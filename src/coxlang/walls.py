"""Walls of the Cayley graph as positive roots.

A wall is the fixed locus of a reflection (a conjugate of a generator); it
is identified with the positive one of the two opposite roots the
reflection negates.  Each wall splits the chambers into a near side
(containing the identity chamber) and a far side, and the walls separating
the identity from g are exactly the inversion walls read off any reduced
word for g.

Root vectors here are raw coefficient tuples over the system's field, in
the simple-root basis.  All predicates reduce to exact sign tests of
integer vectors: root coordinates, and values of the doubled form 2B that
the system stores (see core).
"""

from __future__ import annotations

from .core import CoxeterSystem, Element, Word
from .errors import InvariantViolation, PreconditionError

NEAR = "near"
FAR = "far"


class Wall:
    """A wall, keyed by its canonical positive root."""

    __slots__ = ("system", "root")

    def __init__(self, system: CoxeterSystem, root):
        self.system = system
        self.root = root

    @property
    def reflection(self) -> Element:
        """The reflection fixing this wall, as an exact group element."""
        letters, u = _descend_root(self.system, self.root)
        return self.system.element(letters + (u,) + letters[::-1])

    def __eq__(self, other):
        if not isinstance(other, Wall):
            return NotImplemented
        return self.system is other.system and self.root == other.root

    def __hash__(self):
        return hash(self.root)

    def __repr__(self):
        return f"Wall({self.system.word_str(self.reflection.nf)})"


def wall_from_root(system: CoxeterSystem, root) -> Wall:
    """Wrap a root vector as a Wall, flipping a negative root to positive."""
    if system.root_sign(root) < 0:
        root = tuple(system.field.raw_neg(x) for x in root)
    return Wall(system, root)


def wall_of_generator(system: CoxeterSystem, s: int) -> Wall:
    zero, one = system.field.zero, system.field.one
    return Wall(system, tuple(one if i == s else zero for i in range(system.n)))


def conjugate_wall(g: Element, wall: Wall) -> Wall:
    """The image wall g(W): reflection g·r·g⁻¹, root the positive of ±g(root)."""
    return wall_from_root(g.system, g.system.apply(g.mat, wall.root))


def side(wall: Wall, g: Element) -> str:
    """NEAR iff g's chamber is on the identity side of the wall."""
    pulled = wall.system.apply(g.inv, wall.root)
    return NEAR if wall.system.root_sign(pulled) > 0 else FAR


def inversion_walls(g: Element) -> list[Wall]:
    """The l(g) walls separating g from the identity, in nf order.

    The i-th root is s_1…s_{i-1}(alpha_{s_i}), a column of the prefix
    matrix, and is always positive.
    """
    sysm = g.system
    walls = []
    prefix = sysm.identity
    for s in g.nf:
        root = tuple(prefix.mat[i][s] for i in range(sysm.n))
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


def _descend_root(system: CoxeterSystem, root) -> tuple[Word, int]:
    """Greedy descent of a positive root to a simple one.

    Repeatedly applies the least simple reflection s with B(alpha_s, root)
    > 0; each step reduces the depth of the root by one, so the letter
    sequence is a geodesic from the fundamental chamber to the wall.
    Returns (letters, u) with root = s_1…s_k(alpha_u).
    """
    cached = system._root_descent_cache.get(root)
    if cached is not None:
        return cached
    key = root
    field = system.field
    letters = []
    cur = root
    while True:
        support = [i for i, x in enumerate(cur) if any(x)]
        if len(support) == 1:
            simple = support[0]
            if cur[simple] != field.one:
                raise InvariantViolation("single-support root is not simple")
            break
        for s in range(system.n):
            if field.raw_sign(system.bform_dot(s, cur)) > 0:
                break
        else:
            raise InvariantViolation("positive root with no descent direction")
        letters.append(s)
        # sigma_s changes only coordinate s of the vector
        new_s = field.raw_neg(cur[s])
        for t, c in system._nbrs[s]:
            if any(cur[t]):
                new_s = field.raw_add(new_s, field.raw_mul(c, cur[t]))
        cur = tuple(new_s if i == s else cur[i] for i in range(system.n))
    result = (tuple(letters), simple)
    system._root_descent_cache[key] = result
    return result


def adjacent_chamber(wall: Wall) -> Element:
    """A canonical chamber incident to the wall.

    If root = h(alpha_u) with h from the greedy descent, the edge
    (h, h·u) is dual to the wall; h is returned.
    """
    return wall.system.element(_descend_root(wall.system, wall.root)[0])


def separates_vertex_from_wall(a: Wall, g: Element, b: Wall) -> bool:
    """Whether wall a lies strictly between chamber g and wall b.

    Sound because all chambers touching b are on one side of a whenever a
    and b do not cross, so one incident chamber stands in for the wall.
    """
    if a == b:
        raise PreconditionError("need two distinct walls")
    if walls_cross(a, b):
        return False
    return side(a, g) != side(a, adjacent_chamber(b))


def wall_set(g: Element) -> frozenset[Wall]:
    """The walls separating g from the identity with no wall in between.

    Candidate separators can be restricted to inversion walls of g: a wall
    separating g from an inversion wall of g lies on a geodesic's path and
    so separates g from the identity itself.
    """
    if g._wall_set is None:
        g._wall_set = _nearest_walls(inversion_walls(g), g)
    return g._wall_set


def _nearest_walls(walls, x: Element) -> frozenset[Wall]:
    """The walls b among `walls` with no other a of them between x and b."""
    return frozenset(
        b for b in walls
        if not any(a != b and separates_vertex_from_wall(a, x, b)
                   for a in walls))


def residue_walls(system: CoxeterSystem, g: Element, T) -> frozenset[Wall]:
    """The walls separating some pair of chambers of the residue g<T>."""
    T = frozenset(T)
    base = system._residue_walls_cache.get(T)
    if base is None:
        w0 = system.longest_element(T)  # raises InfiniteParabolicError
        base = frozenset(inversion_walls(w0))
        if len(base) != w0.length:
            raise InvariantViolation("residue wall count != l(w0)")
        system._residue_walls_cache[T] = base
    gate = system.residue_gate(g, T)
    if gate.is_identity():
        return base
    return frozenset(conjugate_wall(gate, w) for w in base)
