"""Walls: reflections, sides, crossing, small roots, near-wall sets,
residue walls.

The crossing oracle samples side patterns over a chamber ball; four
patterns mean crossing.  The sampling radius is chosen large enough that
the oracle saw every quadrant for the wall pairs under test (verified:
radius 10 suffices for the inversion walls of radius-6 elements here).
"""

import itertools
import time

import pytest

from coxlang import CoxeterSystem, PreconditionError, parse_system
from coxlang import walls as wl
from conftest import GROUPS
from oracles import (FAR, NEAR, chamber_next_to, chamber_separates,
                     nearest_walls, residue_walls, side, sign_pattern_cross)

SHIPPED = sorted(path.name for path in GROUPS.glob("*.cox"))


def test_generator_walls(fig1):
    for s in range(fig1.n):
        w = wl.wall_of_generator(fig1, s)
        assert w.reflection == fig1.generator(s)
        assert side(w, fig1.identity) == NEAR
        assert side(w, fig1.generator(s)) == FAR


def test_wall_from_root_canonicalizes(fig1):
    w = wl.wall_of_generator(fig1, 0)
    neg = tuple(-c for c in w.root)
    assert wl.wall_from_root(fig1, neg) == w
    assert hash(wl.wall_from_root(fig1, neg)) == hash(w)


def test_walls_use_builtin_tuple_equality():
    """A wall is the NamedTuple (system, root); equality and hashing are
    the tuple's, with no hand-written methods."""
    assert issubclass(wl.Wall, tuple)
    assert wl.Wall._fields == ("system", "root")
    assert wl.Wall.__eq__ is tuple.__eq__
    assert wl.Wall.__hash__ is tuple.__hash__


@pytest.mark.parametrize("fname", SHIPPED)
def test_walls_of_two_parses_of_one_group_are_unequal(fname):
    """The system takes part in a wall's equality, by identity."""
    text = (GROUPS / fname).read_text()
    one, two = parse_system(text), parse_system(text)
    for s in range(one.n):
        a, b = wl.wall_of_generator(one, s), wl.wall_of_generator(two, s)
        assert a.root == b.root
        assert a != b
        assert a == wl.wall_of_generator(one, s)
        assert a.reflection is one.generator(s)
        assert b.reflection is two.generator(s)


def test_conjugate_wall_reflection(fig1, ball):
    for g in ball(fig1, 3):
        for s in range(fig1.n):
            w = wl.conjugate_wall(g, wl.wall_of_generator(fig1, s))
            assert w.reflection == g * fig1.generator(s) * g.inverse()


def test_conjugate_wall_composes(fig1):
    g = fig1.element("str")
    h = fig1.element("ts")
    w = wl.wall_of_generator(fig1, 2)
    assert wl.conjugate_wall(g * h, w) == \
        wl.conjugate_wall(g, wl.conjugate_wall(h, w))


def test_inversion_walls_count_and_side(fig1, a3tilde, ball):
    for system, radius in ((fig1, 6), (a3tilde, 5)):
        for g in ball(system, radius):
            walls = wl.inversion_walls(g)
            assert len(walls) == g.length
            assert len(set(walls)) == g.length
            for w in walls:
                assert side(w, g) == FAR
                assert side(w, system.identity) == NEAR


def test_reflection_length_is_odd_and_palindromic_in_value(fig1, ball):
    # every wall's reflection r satisfies r^2 = id and l(r) = 2*l(c) + 1
    # where c is the adjacent chamber on the near side
    seen = set()
    for g in ball(fig1, 6):
        seen.update(wl.inversion_walls(g))
    for w in seen:
        r = w.reflection
        assert (r * r).is_identity()
        c = chamber_next_to(w)
        assert r.length == 2 * c.length + 1


@pytest.mark.parametrize("fname", SHIPPED)
def test_reflection_fixes_its_wall(fname):
    system = parse_system((GROUPS / fname).read_text())
    walls = set()
    for g in system.ball(4):
        walls.update(wl.inversion_walls(g))
    for w in walls:
        r = w.reflection
        assert (r * r).is_identity()
        assert r.inverse() == r
        assert system.apply(r.mat, w.root) == tuple(-x for x in w.root)


def test_adjacent_chamber_straddles(fig1, a3tilde, ball):
    # the oracle's chamber next to a wall is incident to it
    for system, radius in ((fig1, 7), (a3tilde, 5)):
        walls = set()
        for g in ball(system, radius):
            walls.update(wl.inversion_walls(g))
        for w in walls:
            c = chamber_next_to(w)
            u = (c.inverse() * w.reflection * c)
            assert u.length == 1
            s = u.nf[0]
            assert side(w, c) == NEAR
            assert side(w, system.mul_gen(c, s)) == FAR
            assert w.reflection == c * u * c.inverse()


def test_walls_cross_examples(fig1, dinf):
    ws = wl.wall_of_generator(fig1, 0)
    wt = wl.wall_of_generator(fig1, 1)
    wr = wl.wall_of_generator(fig1, 2)
    assert wl.walls_cross(ws, wt)
    assert wl.walls_cross(ws, wr)
    wa = wl.wall_of_generator(dinf, 0)
    wb = wl.wall_of_generator(dinf, 1)
    assert not wl.walls_cross(wa, wb)
    bab = wl.conjugate_wall(dinf.generator(1), wa)
    assert not wl.walls_cross(wa, bab)
    with pytest.raises(PreconditionError):
        wl.walls_cross(ws, ws)


def test_walls_cross_against_sign_pattern_oracle(fig1, triangle, ball):
    for system, sample_radius in ((fig1, 10), (triangle, 8)):
        chambers = ball(system, sample_radius)
        pairs = set()
        for g in ball(system, 6):
            pairs.update(itertools.combinations(wl.inversion_walls(g), 2))
        for a, b in pairs:
            assert wl.walls_cross(a, b) == sign_pattern_cross(a, b, chambers)


def test_near_wall_set_fig1_example(fig1):
    g = fig1.element("strst")
    walls = wl.wall_set(g)
    assert len(walls) == 3
    refls = {fig1.word_str(w.reflection.nf) for w in walls}
    assert refls == {"strst", "srtrs", "trsrt"}


def test_near_wall_set_contained_in_inversions(fig1, ball):
    for g in ball(fig1, 6):
        walls = wl.wall_set(g)
        inv = set(wl.inversion_walls(g))
        assert set(walls) <= inv
        if not g.is_identity():
            assert walls


def test_near_wall_set_minimality_over_larger_universe(fig1, ball):
    # independence check: no wall from a larger universe separates g from
    # a kept wall, and every dropped inversion wall has a separator
    universe = set()
    for g in ball(fig1, 8):
        universe.update(wl.inversion_walls(g))
    for g in ball(fig1, 4):
        inv = set(wl.inversion_walls(g))
        kept = wl.wall_set(g)
        for w in kept:
            for u in universe:
                if u == w:
                    continue
                assert not wl.separates_vertex_from_wall(u, g, w)
        for w in inv - set(kept):
            assert any(wl.separates_vertex_from_wall(u, g, w)
                       for u in inv if u != w)


@pytest.mark.parametrize("fname", SHIPPED)
def test_separation_matches_chamber_sides(fname):
    """The root predicate against the chamber-side oracle, over the walls
    of a ball and the chambers of a smaller one."""
    start = time.perf_counter()
    system = parse_system((GROUPS / fname).read_text())
    walls = set()
    for g in system.ball(4):
        walls.update(wl.inversion_walls(g))
    chambers = system.ball(2)
    seen = set()
    for a, b in itertools.permutations(walls, 2):
        for x in chambers:
            verdict = wl.separates_vertex_from_wall(a, x, b)
            assert verdict == chamber_separates(a, x, b), (a, x, b)
            seen.add(verdict)
    if len(walls) > 1:
        assert seen == {True, False}
    assert time.perf_counter() - start < 5


def test_farther_does_not_depend_on_order():
    """Either order of a pair, in one system or in two, gives the same
    wall, and both answers occur."""
    text = (GROUPS / "triangle_237.cox").read_text()
    one, two = parse_system(text), parse_system(text)
    roots = sorted({w.root for g in one.ball(4) for w in wl.inversion_walls(g)})
    verdicts = set()
    for a, b in itertools.combinations(roots, 2):
        far = wl._farther(wl.Wall(one, a), wl.Wall(one, b))
        back = wl._farther(wl.Wall(two, b), wl.Wall(two, a))
        assert wl._farther(wl.Wall(one, b), wl.Wall(one, a)) == far
        assert (far and far.root) == (back and back.root)
        verdicts.add(far is None)
    assert verdicts == {True, False}


def _system(pairs):
    """A system from its orders other than 2; every other pair commutes."""
    names = sorted({x for pair in pairs for x in pair})
    orders = {pair: 2 for pair in itertools.combinations(names, 2)
              if pair not in pairs and pair[::-1] not in pairs}
    orders.update(pairs)
    return CoxeterSystem.from_pairs(names, orders)


A4TILDE = {("p", "q"): 3, ("q", "r"): 3, ("r", "s"): 3, ("s", "t"): 3,
           ("p", "t"): 3}
GENERATED = {"a4tilde": A4TILDE,
             "chain345": {("x", "y"): 3, ("y", "z"): 4, ("z", "w"): 5}}


@pytest.mark.parametrize("pairs, count", [
    ({("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3}, 10),   # A4
    ({("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 4}, 16),   # B4
    ({("a", "b"): 5, ("b", "c"): 3}, 15),                  # H3
], ids=["A4", "B4", "H3"])
def test_small_roots_of_a_finite_group_are_all_its_roots(pairs, count):
    system = _system(pairs)
    w0 = system.longest_element(range(system.n))
    assert w0.length == count
    assert wl.small_roots(system) == frozenset(wl.inversion_walls(w0))


@pytest.mark.parametrize("pairs, count", [
    ({("p", "q"): 3, ("q", "r"): 3, ("r", "s"): 3, ("p", "s"): 3}, 12),
    (A4TILDE, 20),
    ({("a", "c"): 3, ("b", "c"): 3, ("c", "d"): 4}, 18),   # B~3
    ({("x", "y"): 4, ("y", "z"): 4}, 8),                   # C~2
    ({("x", "y"): 3, ("y", "z"): 6}, 12),                  # G~2
], ids=["A~3", "A~4", "B~3", "C~2", "G~2"])
def test_small_roots_of_an_affine_group_match_its_finite_root_system(
        pairs, count):
    """An affine group has one small root per root of the finite root
    system (positive and negative), |Phi| in all."""
    assert len(wl.small_roots(_system(pairs))) == count


@pytest.mark.parametrize("fname, count", [
    ("a3tilde.cox", 12), ("dihedral_inf.cox", 2), ("fig1.cox", 8),
    ("single.cox", 1), ("triangle_237.cox", 12), ("triangle_245.cox", 9),
    ("triangle_333.cox", 6)])
def test_small_root_counts_of_shipped_groups(fname, count):
    system = parse_system((GROUPS / fname).read_text())
    small = wl.small_roots(system)
    assert len(small) == count
    assert wl.small_roots(system) is small


@pytest.mark.parametrize("name, radius", [(fname, 6) for fname in SHIPPED]
                         + [("a4tilde", 5), ("chain345", 5)])
def test_pulled_wall_set_is_the_pairwise_nearest_rule(name, radius):
    """No small root lies between the identity and another, and
    small-root membership agrees with the pairwise separation filter it
    replaced, on the inversion walls of g^-1 over a ball."""
    if name in GENERATED:
        system = _system(GENERATED[name])
    else:
        system = parse_system((GROUPS / name).read_text())
    small = wl.small_roots(system)
    for a, b in itertools.combinations(small, 2):
        assert wl._farther(a, b) is None
    for g in system.ball(radius):
        assert wl.pulled_wall_set(g) == nearest_walls(
            wl.inversion_walls(g.inverse())), g


def test_wall_set_and_build_ask_no_pair_question(monkeypatch, fig1, ball):
    """Wall sets and automaton states are found by small-root membership,
    with no pairwise separation test."""
    from coxlang.automaton import build
    calls = []
    real = wl._farther
    monkeypatch.setattr(wl, "_farther",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    for g in ball(fig1, 4):
        wl.wall_set(g)
    build(_system(A4TILDE))
    assert calls == []


def test_separation_examples(dinf):
    # In the infinite dihedral group the walls are parallel: the wall of b
    # lies between the identity and the wall of bab, while the walls of a
    # and bab lie on opposite sides of the identity (2B = -2).
    wa = wl.wall_of_generator(dinf, 0)
    wb = wl.wall_of_generator(dinf, 1)
    bab = wl.conjugate_wall(dinf.generator(1), wa)
    e = dinf.identity
    assert wl.separates_vertex_from_wall(wb, e, bab)
    assert not wl.separates_vertex_from_wall(bab, e, wb)
    assert not wl.separates_vertex_from_wall(wa, e, bab)
    assert not wl.separates_vertex_from_wall(bab, e, wa)
    # from the chamber ab the wall of a lies between it and the wall of b
    assert wl.separates_vertex_from_wall(wa, dinf.element("ab"), wb)


def test_separation_requires_distinct_walls(fig1):
    w = wl.wall_of_generator(fig1, 0)
    with pytest.raises(PreconditionError):
        wl.separates_vertex_from_wall(w, fig1.identity, w)


def test_residue_wall_counts(fig1, a3tilde):
    g = fig1.element("strst")
    assert len(residue_walls(fig1, g, {0})) == 1
    assert len(residue_walls(fig1, g, {0, 1})) == 2
    assert len(residue_walls(fig1, g, {0, 2})) == 4
    h = a3tilde.element("prs")
    assert len(residue_walls(a3tilde, h, {0, 1, 2})) == 6


def test_residue_walls_match_edge_walls(fig1, ball):
    # literal definition: walls dual to the edges inside the residue
    for g in ball(fig1, 4):
        for T in ({0}, {0, 1}, {0, 2}):
            gate = fig1.residue_gate(g, T)
            members = [gate * u for u in fig1.parabolic_elements(T)]
            edge_walls = set()
            for h in members:
                for t in T:
                    edge_walls.add(
                        wl.conjugate_wall(h, wl.wall_of_generator(fig1, t)))
            assert edge_walls == set(residue_walls(fig1, g, T))


def test_residue_walls_identity_are_longest_element_inversions(fig1):
    walls = residue_walls(fig1, fig1.identity, {0, 2})
    w0 = fig1.longest_element({0, 2})
    assert set(walls) == set(wl.inversion_walls(w0))
