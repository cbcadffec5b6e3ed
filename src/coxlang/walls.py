"""Walls of the Cayley graph as positive roots.

A wall is the fixed locus of a reflection (a conjugate of a generator); it
is identified with the positive one of the two opposite roots the
reflection negates, and the reflection is read off that root.  Each wall
splits the chambers into a near side (containing the identity chamber)
and a far side, and the walls separating the identity from g are exactly
the inversion walls read off any reduced word for g.  Which of two walls
lies between a chamber and the other is asked at the identity, after
pulling both back, and answered by root dominance (Brink & Howlett 1993,
"A finiteness property and an automatic structure for Coxeter groups";
Björner & Brenti 2005, Combinatorics of Coxeter Groups, 4.7; see
`_farther`).

An inversion wall of g^-1 has no other one between the identity and it
exactly when its root is small, so wall sets are found by membership in
the finite set of small roots (see `small_roots`).

A `Wall` is the pair (system, root), so wall sets hash and compare as
tuples; the system, which defines no equality of its own, compares by
identity.  Root vectors here are flat integer vectors in the simple-root
basis, laid out as core lays out matrix columns: the generator root is a
column of the identity, an inversion root a column of a prefix matrix,
and negation and difference are elementwise.  All predicates reduce to
exact sign tests of integer vectors: root coordinates, and values of the
doubled form 2B that the system stores (see core).
"""

from __future__ import annotations

from operator import neg, sub
from typing import NamedTuple

from .core import CoxeterSystem, Element
from .errors import InvariantViolation, PreconditionError


class Wall(NamedTuple):
    """A wall, keyed by its canonical positive root.  Equality and hashing
    are the tuple's: the system by identity, then the root."""

    system: CoxeterSystem
    root: tuple

    @property
    def reflection(self) -> Element:
        """The reflection v -> v - 2B(root, v)·root, its own inverse:
        column j is a_j - 2B(root, a_j)·root."""
        sysm, root = self.system, self.root
        scale = sysm.field.scale
        mat = tuple(tuple(map(sub, e, scale(sysm.bform_dot(j, root), root)))
                    for j, e in enumerate(sysm._id_mat))
        r = sysm._element(sysm._heights(mat), mat)
        r._inverse = r
        return r

    def __repr__(self):
        return f"Wall({self.system.word_str(self.reflection.nf)})"


def wall_from_root(system: CoxeterSystem, root) -> Wall:
    """Wrap a root vector as a Wall, flipping a negative root to positive."""
    if system.root_sign(root) < 0:
        root = tuple(map(neg, root))
    return Wall(system, root)


def wall_of_generator(system: CoxeterSystem, s: int) -> Wall:
    return Wall(system, system._id_mat[s])


def conjugate_wall(g: Element, wall: Wall) -> Wall:
    """The image wall g(W): reflection g·r·g⁻¹, root the positive of ±g(root)."""
    return wall_from_root(g.system, g.system.apply(g.mat, wall.root))


def inversion_walls(g: Element) -> list[Wall]:
    """The l(g) walls separating g from the identity, in nf order.

    The i-th root is s_1…s_{i-1}(alpha_{s_i}), a column of the prefix
    matrix, and is always positive.
    """
    sysm = g.system
    walls = []
    prefix = sysm.identity
    for s in g.nf:
        root = prefix.mat[s]
        if sysm.root_sign(root) < 0:
            raise InvariantViolation("inversion root came out negative")
        walls.append(Wall(sysm, root))
        prefix = sysm.mul_gen(prefix, s)
    return walls


def walls_cross(a: Wall, b: Wall) -> bool:
    """Whether two distinct walls intersect: |B(root_a, root_b)| < 1,
    tested as -2 < 2B(root_a, root_b) < 2.

    |B| = 1 means the walls are tangent at infinity and |B| > 1 that they
    bound nested half-spaces; both count as not crossing.
    """
    if a == b:
        raise PreconditionError("walls_cross needs two distinct walls")
    sysm = a.system
    field = sysm.field
    val = sysm.bilinear(a.root, b.root)
    return (field.raw_sign(field.raw_add(val, field.two)) > 0
            and field.raw_sign(field.raw_sub(val, field.two)) < 0)


def _farther(a: Wall, b: Wall) -> Wall | None:
    """Of two distinct walls, the one the other separates from the identity.

    When B(a, b) < 1, neither: the identity lies between them, or they
    cross.  When B(a, b) >= 1 (2B >= 2), the reflections generate an
    infinite dihedral group and a, b lie on one chain of its positive
    roots, whose coefficients grow away from the identity; so the farther
    root minus the nearer is nonnegative.  root_sign raises on mixed signs.
    """
    sysm, field = a.system, a.system.field
    if field.raw_sign(field.raw_sub(sysm.bilinear(a.root, b.root),
                                    field.two)) < 0:
        return None
    diff = tuple(map(sub, b.root, a.root))
    return b if sysm.root_sign(diff) > 0 else a


def separates_vertex_from_wall(a: Wall, g: Element, b: Wall) -> bool:
    """Whether wall a lies strictly between chamber g and wall b.

    Pulled back by g^-1, this asks whether a separates the identity from b.
    """
    if a == b:
        raise PreconditionError("need two distinct walls")
    ginv = g.inverse()
    b = conjugate_wall(ginv, b)
    return _farther(conjugate_wall(ginv, a), b) == b


def small_roots(system: CoxeterSystem) -> frozenset[Wall]:
    """The walls of the small roots, which dominate no other positive root:
    the simple roots closed under s_t while -2 < 2B(root, a_t) < 0
    (Björner & Brenti 2005, 4.7.3).  They are finitely many (Brink &
    Howlett 1993), and kept on the system."""
    if system._small_roots is None:
        field = system.field
        found = [wall_of_generator(system, s) for s in range(system.n)]
        seen = set(found)
        for wall in found:
            for t in range(system.n):
                val = system.bform_dot(t, wall.root)
                if (field.raw_sign(val) < 0 and
                        field.raw_sign(field.raw_add(val, field.two)) > 0):
                    image = Wall(system, system.apply(
                        system.generator(t).mat, wall.root))
                    if image not in seen:
                        seen.add(image)
                        found.append(image)
        system._small_roots = frozenset(seen)
    return system._small_roots


def pulled_wall_set(g: Element) -> frozenset[Wall]:
    """The wall set of g pulled back by g^-1: the small inversion walls of
    g^-1.  A non-small one dominates another positive root, which is then
    an inversion wall of g^-1 between the identity and it."""
    small = small_roots(g.system)
    return frozenset(w for w in inversion_walls(g.inverse()) if w in small)


def wall_set(g: Element) -> frozenset[Wall]:
    """The walls separating g from the identity with no wall in between.

    Candidate separators can be restricted to inversion walls of g: a wall
    separating g from an inversion wall of g lies on a geodesic's path and
    so separates g from the identity itself.  Pulled back by g^-1, these
    are the small inversion walls of g^-1.
    """
    return frozenset(conjugate_wall(g, w) for w in pulled_wall_set(g))

