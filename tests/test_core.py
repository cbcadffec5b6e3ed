"""Core system construction, words, elements, balls, parabolics."""

import itertools
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlang import (CoxeterMatrix, CoxeterSystem, INF, InfiniteParabolicError,
                     InvariantViolation, ParseError, PreconditionError,
                     ResourceLimitError, SystemMismatchError, parse_system)
from coxlang import core
from coxlang.core import Element, k_constant
from coxlang.language import canonical_word, language_words
from coxlang.walls import Wall, inversion_walls, small_roots
from conftest import (GROUPS, diagram as _diagram, path_edges as _path,
                      pumped_a3tilde_word)
from oracles import (TitsBall, affine_a_ball_sizes, braid_closure,
                     column_descents, layout_matrices, tits_reduce)

SHIPPED = sorted(path.name for path in GROUPS.glob("*.cox"))


# ----- parsing --------------------------------------------------------------

def test_parse_round_trip(fig1):
    assert fig1.matrix.names == ("s", "t", "r")
    assert fig1.matrix.orders[0][1] == 2
    assert fig1.matrix.orders[0][2] == 4
    assert fig1.matrix.orders[1][2] == 4
    assert fig1.matrix.orders[0][0] == 1


def test_parse_defaults_to_infinity():
    system = parse_system("generators a b c\nm a b 3\n")
    assert system.matrix.orders[0][2] == INF
    assert system.matrix.orders[1][2] == INF


def test_parse_repeated_consistent_order_is_fine():
    system = parse_system("generators a b\nm a b 5\nm b a 5\n")
    assert system.matrix.orders[0][1] == 5


@pytest.mark.parametrize("text,line,fragment", [
    ("m a b 3\ngenerators a b", 1, "generators"),
    ("generators", 1, "no generators"),
    ("generators a a", 1, "duplicate"),
    ("generators a b\nm a b", 2, "expected 'm"),
    ("generators a b\nm a c 3", 2, "unknown generator"),
    ("generators a b\nm a a 3", 2, "diagonal"),
    ("generators a b\nm a b x", 2, "integer"),
    ("generators a b\nm a b 1", 2, "at least 2"),
    ("generators a b\nm a b 3\nm b a 4", 3, "conflicting"),
    ("", None, "empty"),
    ("   \n# only a comment\n", None, "empty"),
])
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_matrix_validation():
    with pytest.raises(PreconditionError):
        CoxeterSystem(CoxeterMatrix(("a", "b"), ((1, 2), (3, 1))))  # asymmetric
    with pytest.raises(PreconditionError):
        CoxeterSystem(CoxeterMatrix(("a", "b"), ((2, 3), (3, 1))))  # bad diagonal


@pytest.mark.parametrize("names,pairs,fragment", [
    (("a", "b"), {("a", "a"): 3}, "diagonal"),
    (("a", "b"), {("a", "b"): 1}, "ints >= 2"),
    (("a", "b"), {("a", "b"): 2.0}, "ints >= 2"),
    (("a", "a"), {}, "distinct"),
])
def test_from_pairs_refuses_a_bad_table(names, pairs, fragment):
    with pytest.raises(PreconditionError, match=fragment):
        CoxeterSystem.from_pairs(names, pairs)


@pytest.mark.parametrize("names,orders,fragment", [
    (("a", "b"), ((3, 3), (3, 1)), "diagonal"),
    (("a", "b"), ((1, 1), (1, 1)), "ints >= 2"),
    (("a", "b"), ((1, 2.0), (2.0, 1)), "ints >= 2"),
    (("a", "a"), ((1, 3), (3, 1)), "distinct"),
    (("a", "b"), ((1, 3), (4, 1)), "symmetric"),
    (("a", "b"), ((1, 3), (3, 1), (1, 1)), "shape"),
    (("a", "b"), ((1, 3), (3,)), "shape"),
    ((), (), "no generators"),
])
def test_system_refuses_a_bad_matrix(names, orders, fragment):
    with pytest.raises(PreconditionError, match=fragment):
        CoxeterSystem(CoxeterMatrix(names, orders))


def test_the_empty_generator_list_is_refused_as_by_the_parser():
    """An empty system would pass the empty word off as several words:
    the parser's "no generators declared" holds for every entry point."""
    with pytest.raises(ParseError, match="no generators declared"):
        parse_system("generators\n")
    with pytest.raises(PreconditionError, match="no generators declared"):
        CoxeterSystem.from_pairs((), {})


def test_a_matrix_is_a_tuple_of_names_and_orders():
    names, orders = ("a", "b"), ((1, 3), (3, 1))
    matrix = CoxeterMatrix(names, orders)
    assert matrix == (names, orders)
    assert hash(matrix) == hash((names, orders))
    assert repr(matrix) == ("CoxeterMatrix(names=('a', 'b'), "
                            "orders=((1, 3), (3, 1)))")
    assert CoxeterSystem(matrix).matrix is matrix


# ----- words ----------------------------------------------------------------

def test_parse_word_formats(fig1):
    assert fig1.parse_word("str") == (0, 1, 2)
    assert fig1.parse_word("s t r") == (0, 1, 2)
    assert fig1.parse_word("") == ()
    assert fig1.word_str((0, 1, 2)) == "str"
    assert fig1.word_str(()) == "e"
    assert fig1.parse_word("e") == ()
    with pytest.raises(ParseError):
        fig1.parse_word("sxt")


def test_parse_word_reads_e_as_a_name_when_declared():
    ef = CoxeterSystem.from_pairs(("e", "f"), {("e", "f"): 3})
    plain = CoxeterSystem.from_pairs(("s", "t"), {("s", "t"): 3})
    assert ef.parse_word("e") == (0,)
    assert ef.parse_word("fe") == (1, 0)
    assert plain.parse_word("e") == ()
    with pytest.raises(ParseError):
        plain.parse_word("se")


def test_from_pairs_refuses_an_unknown_generator():
    with pytest.raises(PreconditionError, match="unknown generator 'z'"):
        CoxeterSystem.from_pairs(("a", "b"), {("a", "z"): 3})


def test_from_pairs_refuses_two_orders_for_one_pair():
    with pytest.raises(PreconditionError, match="conflicting orders"):
        CoxeterSystem.from_pairs(("a", "b"), {("a", "b"): 3, ("b", "a"): 4})
    # The same order given both ways is one pair.
    system = CoxeterSystem.from_pairs(("a", "b"),
                                      {("a", "b"): 3, ("b", "a"): 3})
    assert system.matrix.orders == ((1, 3), (3, 1))


def test_multichar_names_need_spaces():
    system = parse_system("generators g1 g2\nm g1 g2 3\n")
    assert system.parse_word("g1 g2") == (0, 1)
    assert system.word_str((0, 1)) == "g1 g2"
    with pytest.raises(ParseError):
        system.parse_word("g3")


# ----- generators and elements ----------------------------------------------

def test_generators_are_involutions(fig1, a3tilde, triangle, dinf, single):
    for system in (fig1, a3tilde, triangle, dinf, single):
        for s in range(system.n):
            g = system.generator(s)
            assert (g * g).is_identity()
            assert g.length == 1
            assert g.nf == (s,)


def test_element_accepts_indices_and_strings(fig1):
    assert fig1.element("str") == fig1.element((0, 1, 2))
    assert fig1.element(()).is_identity()
    with pytest.raises(PreconditionError):
        fig1.element((0, 7))
    # A letter out of range must not reach the step slots, where -1 or n
    # would index another generator's step.
    g = fig1.element("st")
    for s in (-1, 3, 6):
        with pytest.raises(PreconditionError):
            fig1.mul_gen(g, s)
        with pytest.raises(PreconditionError):
            fig1.gen_mul(s, g)


def test_commuting_pair_collapses(fig1):
    # m_st = 2, so sts = t.
    assert fig1.element("sts") == fig1.element("t")
    assert fig1.element("sts").nf == (1,)
    assert fig1.element("st") == fig1.element("ts")


def test_normal_form_examples(fig1):
    assert fig1.element("strst").nf == fig1.parse_word("strst")
    assert fig1.element("strst").length == 5
    assert fig1.identity.nf == ()
    # srs and rsr are distinct at m_sr = 4
    assert fig1.element("srs") != fig1.element("rsr")
    assert fig1.element("srsr") == fig1.element("rsrs")


def test_inverse_and_equality(fig1):
    g = fig1.element("strst")
    assert (g * g.inverse()).is_identity()
    assert g.inverse().length == g.length
    assert g.inverse() == fig1.element("tsrts")


def test_descent_sets(fig1):
    g = fig1.element("strst")
    assert g.right_descents() == frozenset({0, 1})
    assert fig1.element("st").left_descents() == frozenset({0, 1})
    assert fig1.identity.right_descents() == frozenset()


# ----- balls ----------------------------------------------------------------

def test_ball_sizes_fig1(fig1, ball):
    sizes = [len(ball(fig1, r)) for r in range(9)]
    assert sizes == [1, 4, 9, 17, 28, 41, 57, 76, 97]


def test_ball_sizes_dinf(dinf, ball):
    assert [len(ball(dinf, r)) for r in range(6)] == [1, 3, 5, 7, 9, 11]


def test_ball_sizes_single(single):
    assert [len(single.ball(r)) for r in range(3)] == [1, 2, 2]


def test_ball_sizes_affine_match_growth_series(a3tilde, triangle, ball):
    want3 = affine_a_ball_sizes(3, 8)
    want2 = affine_a_ball_sizes(2, 8)
    assert len(ball(a3tilde, 8)) == want3[8] == 425
    assert len(ball(triangle, 8)) == want2[8] == 109
    by_len = {}
    for g in ball(a3tilde, 8):
        by_len[g.length] = by_len.get(g.length, 0) + 1
    cum = 0
    for r in range(9):
        cum += by_len.get(r, 0)
        assert cum == want3[r]


def test_ball_cap(fig1):
    with pytest.raises(ResourceLimitError):
        fig1.ball(6, max_elements=10)


def test_ball_refuses_a_negative_radius(fig1):
    with pytest.raises(PreconditionError, match="radius must be nonnegative"):
        fig1.ball(-1)


def test_ball_cap_counts_the_identity(fig1):
    with pytest.raises(ResourceLimitError):
        fig1.ball(0, max_elements=0)
    with pytest.raises(ResourceLimitError):
        fig1.parabolic_elements({0}, max_elements=0)
    assert len(fig1.ball(0, max_elements=1)) == 1
    assert len(fig1.ball(1, max_elements=4)) == 4
    with pytest.raises(ResourceLimitError):
        fig1.ball(1, max_elements=3)


def test_ball_against_braid_rewriting_oracle(fig1, ball):
    oracle = TitsBall(fig1, 3)
    # same number of elements per level and identical shortlex words
    words = {g.nf for g in ball(fig1, 2)}
    oracle_words = {min(node) for node, lv in oracle.level.items() if lv <= 2}
    assert words == oracle_words


def test_ball_normal_forms_are_shortlex_least(fig1, ball):
    for g in ball(fig1, 5):
        closure = braid_closure(fig1, g.nf)
        assert g.nf == min(closure)
        assert all(len(w) == g.length for w in closure)


def test_length_parity_and_steps(fig1, ball):
    for g in ball(fig1, 4):
        for s in range(fig1.n):
            h = fig1.mul_gen(g, s)
            assert abs(h.length - g.length) == 1


def test_interned_elements_match_matrices_and_rewriting(fig1, a3tilde, h237,
                                                        ball):
    """Each group element is one Element, and what it memoises agrees with
    the matrix kernels and with word rewriting, over small balls and every
    ascent neighbour of them."""
    for system, radius in ((fig1, 6), (a3tilde, 5), (h237, 5)):
        elements = dict.fromkeys(ball(system, radius))
        for g in ball(system, radius):
            for s in range(system.n):
                if s not in g.right_descents():
                    elements[system.mul_gen(g, s)] = None
                if s not in g.left_descents():
                    elements[system.gen_mul(s, g)] = None
        for g in elements:
            # The intern table is keyed by the column heights, and the
            # key stepped along agrees with the matrix formed on first read.
            assert system._elements[g.key] is g
            assert g.key == system._heights(g.mat)
            for s in range(system.n):
                right, left = system.mul_gen(g, s), system.gen_mul(s, g)
                assert right.mat == system._gen_rmul(g.mat, s)
                assert right.inv == system._gen_lmul(s, g.inv)
                assert left.mat == system._gen_lmul(s, g.mat)
                assert left.inv == system._gen_rmul(g.inv, s)
                assert system.mul_gen(right, s) is g
                assert system.gen_mul(s, left) is g
            closure = braid_closure(system, g.nf)
            assert all(system.element(u) is g for u in closure)
            assert g.nf == min(closure) == tits_reduce(system, g.nf)
            assert g.right_descents() == {u[-1] for u in closure if u}
            assert canonical_word(g) in language_words(g)


@pytest.mark.parametrize("fname", SHIPPED)
def test_matrices_match_row_major_generator_products(fname):
    """Each matrix is the tuple of its columns, each a flat vector: the same
    as products of generator matrices built from the order table.  The
    shipped groups cover field degrees 1, 2, 8 and 12."""
    system = parse_system((GROUPS / fname).read_text())
    for g in system.ball(5):
        assert (g.mat, g.inv) == layout_matrices(system, g.nf)


@pytest.mark.parametrize("fname", SHIPPED)
def test_keys_fix_elements_and_their_right_descents(fname):
    """Over elements of every origin in every group file (field degrees 1,
    2, 8 and 12): ball(5), each element's left and right neighbours, their
    inverses, the reflections in the small roots and every w0(T).  An
    element is interned under its key, the key is the column heights of
    the matrix formed on first read, two elements share a key exactly when
    their matrices are equal, and the descents read off keys are the
    column signs, of g's matrix on the right and of g⁻¹'s on the left."""
    system = parse_system((GROUPS / fname).read_text())
    elements = dict.fromkeys(system.ball(5))
    for g in list(elements):
        for s in range(system.n):
            elements[system.mul_gen(g, s)] = None
            elements[system.gen_mul(s, g)] = None
    elements.update(dict.fromkeys([g.inverse() for g in elements]))
    elements.update(dict.fromkeys(w.reflection for w in small_roots(system)))
    elements.update(dict.fromkeys(system.longest_element(T)
                                  for T in system.spherical_subsets()))
    for g in elements:
        assert system._elements[g.key] is g
        assert g.key == system._heights(g.mat)
        assert g.right_descents() == column_descents(system, g.mat)
        assert g.left_descents() == column_descents(system, g.inv)
    assert (len({g.key for g in elements}) == len({g.mat for g in elements})
            == len(elements))


@pytest.mark.parametrize("fname", SHIPPED)
def test_stepped_descents_match_column_signs(fname):
    """Right descents stepped from g to g·s equal the column signs of g·s,
    for elements made by mixed left and right steps, and the left
    descents of every element made are the column signs of its inverse."""
    system = parse_system((GROUPS / fname).read_text())
    for g in reversed(system.ball(5 if fname == "a3tilde.cox" else 6)):
        for s in range(system.n):
            left = system.gen_mul(s, g)
            left.right_descents()
            for t in range(system.n):
                assert system.mul_gen(left, t)._rdesc is not None
    for el in list(system._elements.values()):
        if el._rdesc is not None:
            assert el._rdesc == column_descents(system, el.mat)
        assert el.left_descents() == column_descents(system, el.inv)


@pytest.mark.parametrize("fname", SHIPPED)
def test_stepped_descents_do_not_depend_on_the_steps_taken(fname):
    """A ball steps each element's right descents along its normal form, in
    ShortLex order.  A second system reaches the same elements longest
    first, each along its lex-largest reduced word, so most elements are
    stepped to from another element by another letter; the descents agree."""
    system, other = (parse_system((GROUPS / fname).read_text())
                     for _ in range(2))
    ball = system.ball(5)
    for g in reversed(ball):
        other.element(max(braid_closure(system, g.nf)))
    assert len(other._elements) == len(system._elements)
    for g in ball:
        stepped = other._elements[g.key]._rdesc
        assert stepped is not None and stepped == g._rdesc


def _check_ball_sign_reads(monkeypatch, system, radius):
    """Enumerate ball(radius) and check what signs it reads: no column sign
    at all, and for each new element g·s at most one height sign per
    neighbour t of s (m_st > 2) with t a right descent of g, read while
    g's descents are stepped to g·s.  A full read of all n heights per
    element exceeds that bound."""
    reads, columns, per_step = [], [], []
    negative, sign = system._negative, system.root_sign
    step, orders = system._stepped_descents, system.matrix.orders

    def counted_step(g, key, s):
        before = len(reads)
        out = step(g, key, s)
        per_step.append(len(reads) - before)
        assert per_step[-1] <= sum(t != s and orders[s][t] != 2
                                   for t in g.right_descents())
        return out

    monkeypatch.setattr(system, "_negative",
                        lambda key, t: reads.append(t) or negative(key, t))
    monkeypatch.setattr(system, "root_sign",
                        lambda vec: columns.append(vec) or sign(vec))
    monkeypatch.setattr(system, "_stepped_descents", counted_step)
    before = len(system._elements)
    system.ball(radius)
    assert not columns
    assert len(per_step) == len(system._elements) - before
    assert sum(per_step) == len(reads)


def test_ball_makes_at_most_one_sign_test_per_new_element(monkeypatch):
    """Descents carried from step to step, not a sign test per column: a
    ball over Q reads no column sign, and each new element g·s at most one
    height sign per neighbour of s that is a descent of g."""
    system = parse_system((GROUPS / "a3tilde.cox").read_text())
    assert system.field.degree == 1
    _check_ball_sign_reads(monkeypatch, system, 10)


@pytest.mark.parametrize("fname,degree", [("fig1.cox", 2),
                                          ("triangle_237.cox", 12)])
def test_ball_reads_no_sign_over_number_fields(monkeypatch, fname, degree):
    """Where a sign costs a field evaluation, a ball reads no column sign,
    and each new element g·s at most one height sign per neighbour of s
    that is a descent of g."""
    system = parse_system((GROUPS / fname).read_text())
    assert system.field.degree == degree
    _check_ball_sign_reads(monkeypatch, system, 8)


@pytest.mark.parametrize("fname,degree", [("a3tilde.cox", 1),
                                          ("triangle_237.cox", 12)])
def test_root_sign_reads_flat_vectors_and_rejects_non_roots(fname, degree):
    system = parse_system((GROUPS / fname).read_text())
    field = system.field
    assert field.degree == degree
    zero, one = field.zero, field.one
    minus = field.raw_neg(one)
    rest = zero * (system.n - 2)
    assert system.root_sign(one + field.two + rest) == 1
    assert system.root_sign(zero + minus + rest) == -1
    with pytest.raises(InvariantViolation, match="mixed"):
        system.root_sign(one + minus + rest)
    with pytest.raises(InvariantViolation, match="zero"):
        system.root_sign(zero * system.n)


def test_elements_use_builtin_identity_equality():
    assert Element.__eq__ is object.__eq__
    assert Element.__hash__ is object.__hash__


@pytest.mark.parametrize("fname", SHIPPED)
def test_every_spelling_of_an_element_is_the_one_object(fname):
    """Elements compare by identity, which interning makes exact: the
    normal form, the left-step spelling and the double inverse of g all
    return g itself."""
    system = parse_system((GROUPS / fname).read_text())
    for g in system.ball(6):
        assert system.element(g.nf) is g
        left = system.identity
        for s in reversed(g.nf):
            left = system.gen_mul(s, left)
        assert left is g
        assert g.inverse().inverse() is g


def _assert_inverse(system, g, word):
    """g's lazily formed inverse against the dense product and against
    word rewriting; `word` is any word for g."""
    assert system._mat_mul(g.mat, g.inv) == system._id_mat
    assert g.inverse().mat == g.inv
    assert g.inverse().inverse() is g
    back = tuple(reversed(tits_reduce(system, word, max_letters=12)))
    assert g.left_descents() == {
        s for s in range(system.n)
        if len(tits_reduce(system, back + (s,), max_letters=12)) < len(back)}


def _chain_start(g):
    """The element g's chain of right steps starts from: one that was
    made with its matrix, by `inverse()` unless it is the identity or a
    reflection."""
    while g._slot is not None:
        g = g._steps[g._slot]
    return g


@pytest.mark.parametrize("fname,radius", [
    ("fig1.cox", 6), ("a3tilde.cox", 5), ("triangle_237.cox", 5)])
def test_lazy_inverse_against_dense_product_and_rewriting(fname, radius):
    """Each inverse is formed on first read from the chain of right steps
    that made the element, in a fresh system each time: over a ball and its neighbours on both sides,
    over elements made by left steps and then right steps, and around
    reflections made from their roots."""
    text = (GROUPS / fname).read_text()
    system = parse_system(text)
    ball = system.ball(radius)
    words = {}
    for g in ball:
        words[g] = g.nf
        for s in range(system.n):
            words.setdefault(system.mul_gen(g, s), g.nf + (s,))
            words.setdefault(system.gen_mul(s, g), (s,) + g.nf)
    for g, word in words.items():
        _assert_inverse(system, g, word)

    system = parse_system(text)
    lefts = {}
    for g in ball:
        if g.length > 4:
            break
        x = system.identity
        for s in reversed(g.nf):
            x = system.gen_mul(s, x)
        lefts[x] = g.nf
    tail = tuple(range(system.n))
    mixed = {system.mul_word(x, tail): word + tail
             for x, word in lefts.items()}
    assert any(not _chain_start(g).is_identity() for g in mixed)
    for g, word in mixed.items():
        _assert_inverse(system, g, word)

    # Roots are raw vectors over the same field, so they carry over to a
    # fresh system, where each reflection is made with its inverse.
    system = parse_system(text)
    reflections = {}
    for g in ball:
        if g.length > 4:
            break
        for i, wall in enumerate(inversion_walls(g)):
            prefix = g.nf[:i]
            reflections[wall.root] = prefix + (g.nf[i],) + prefix[::-1]
    for root, word in reflections.items():
        r = Wall(system, root).reflection
        assert r.inv == r.mat and r.inverse() is r
        _assert_inverse(system, r, word)
        for s in range(system.n):
            _assert_inverse(system, system.mul_gen(r, s), word + (s,))
            _assert_inverse(system, system.gen_mul(s, r), (s,) + word)


@pytest.mark.parametrize("fname", SHIPPED)
def test_left_steps_are_right_steps_of_the_inverse(fname):
    """Over ball(5) and its neighbours on both sides: g⁻¹ keeps g as its
    inverse, s·g is the inverse of g⁻¹·s, and an element has one step
    slot per generator, for right steps only."""
    system = parse_system((GROUPS / fname).read_text())
    elements = dict.fromkeys(system.ball(5))
    for g in list(elements):
        for s in range(system.n):
            elements[system.mul_gen(g, s)] = None
            elements[system.gen_mul(s, g)] = None
    for g in elements:
        assert g.inverse()._inverse is g
        assert len(g._steps) == system.n
        for s in range(system.n):
            assert (system.gen_mul(s, g)
                    is system.mul_gen(g.inverse(), s).inverse())


@pytest.mark.parametrize("side", ["right", "left"])
def test_elements_longer_than_the_recursion_limit(side):
    """An element of length 1,211 gets its normal form, its inverse and
    both matrices, whether made by right steps or by left steps only."""
    system = parse_system((GROUPS / "a3tilde.cox").read_text())
    word = system.parse_word(pumped_a3tilde_word(120))
    assert len(word) == 1_211 > sys.getrecursionlimit()
    if side == "right":
        g = system.element(word)
    else:
        g = system.identity
        for s in reversed(word):
            g = system.gen_mul(s, g)
    assert g.nf == word
    assert g.inverse().inverse() is g
    assert g.inverse().nf == system.element(word[::-1]).nf
    assert system._mat_mul(g.mat, g.inv) == system._id_mat


def test_stepping_an_element_of_another_system_raises():
    """mul_gen refuses an element of another system before it steps or
    writes anything, and leaves both systems as they were; gen_mul, a
    right step of the inverse, refuses it too."""
    tri = parse_system((GROUPS / "triangle_333.cox").read_text())
    fig1 = parse_system((GROUPS / "fig1.cox").read_text())
    g = tri.element((1, 2))
    tri_keys, fig1_keys = dict(tri._elements), dict(fig1._elements)
    steps = list(g._steps)
    assert steps[0] is None
    for s in range(fig1.n):
        if steps[s] is None:
            with pytest.raises(SystemMismatchError):
                fig1.mul_gen(g, s)
    assert tri._elements == tri_keys and fig1._elements == fig1_keys
    assert g._steps == steps
    h = tri.mul_gen(g, 0)
    assert h.system is tri and h.nf == (1, 2, 0)
    with pytest.raises(SystemMismatchError):
        fig1.gen_mul(0, g)


def test_stepping_refuses_another_system_before_reading_a_slot(fig1, a3tilde):
    """The system is checked before any slot is read: a step the other
    system already took is not returned, and a letter past the other
    system's rank is not looked up."""
    st = fig1.element("st")
    assert fig1.identity._steps[0] is not None
    for step in (lambda: a3tilde.mul_gen(fig1.identity, 0),
                 lambda: a3tilde.mul_gen(st, 3),
                 lambda: a3tilde.gen_mul(3, st)):
        with pytest.raises(SystemMismatchError):
            step()


def test_degree_144_field_against_rewriting_oracle():
    # Orders 7, 8 and 9 need a field of degree 144, whose values have
    # coefficients far larger than the values themselves.  Word rewriting
    # never touches the field.
    system = parse_system("generators a b c d\nm a b 7\nm b c 8\nm c d 9\n")
    assert system.field.degree == 144
    word = system.parse_word("abcd")
    assert system.element(word).nf == tits_reduce(system, word) == word
    reduced = {tits_reduce(system, w) for k in range(4)
               for w in itertools.product(range(system.n), repeat=k)}
    ball = system.ball(3)
    assert {g.nf for g in ball} == reduced
    assert all(len(tits_reduce(system, g.nf)) == g.length for g in ball)


# ----- parabolic structure ---------------------------------------------------

def test_two_dimensionality(fig1, a3tilde, triangle, dinf, single):
    assert fig1.is_two_dimensional()
    assert triangle.is_two_dimensional()
    assert dinf.is_two_dimensional()
    assert single.is_two_dimensional()
    assert not a3tilde.is_two_dimensional()


def test_finite_parabolic_classification(fig1, a3tilde, triangle, dinf):
    assert fig1.is_finite_parabolic({0, 1})
    assert fig1.is_finite_parabolic({0, 2})
    assert not fig1.is_finite_parabolic({0, 1, 2})
    assert all(a3tilde.is_finite_parabolic(T)
               for T in itertools.combinations(range(4), 3))
    assert not a3tilde.is_finite_parabolic({0, 1, 2, 3})
    assert not triangle.is_finite_parabolic({0, 1, 2})
    assert not dinf.is_finite_parabolic({0, 1})
    assert dinf.is_finite_parabolic({0})
    assert fig1.is_finite_parabolic(frozenset()) is True


def test_parabolic_orders_match_catalog(fig1, a3tilde):
    # I2(2) = 4, I2(4) = 8, A3 = 24: enumerated orders certify the verdicts.
    assert len(fig1.parabolic_elements({0, 1})) == 4
    assert len(fig1.parabolic_elements({0, 2})) == 8
    assert len(a3tilde.parabolic_elements({0, 1, 2})) == 24
    # fig1 itself is infinite: refused before any element is formed, not
    # walked up to the cap.
    interned = len(fig1._elements)
    with pytest.raises(InfiniteParabolicError, match=r"<\{s, t, r\}>"):
        fig1.parabolic_elements({0, 1, 2}, max_elements=500)
    assert len(fig1._elements) == interned
    # A letter out of range is refused as mul_gen refuses it, and -1 is
    # not read as the last generator.
    for T in ({3}, {-1, 2}):
        for ask in (fig1.parabolic_elements, fig1.longest_element,
                    fig1.is_finite_parabolic):
            with pytest.raises(PreconditionError, match="out of range"):
                ask(T)
        assert frozenset(T) not in fig1._finite_cache


def test_parabolic_elements_of_a_repeated_letter(fig1):
    """A letter given twice generates what it generates once: <s> has 2
    elements and <s, t> 4, with no element listed twice."""
    for T, order in (((0, 0), 2), ([0, 1, 1], 4), ((1, 0, 1), 4)):
        members = fig1.parabolic_elements(T)
        assert len(members) == len(set(members)) == order


def _star(arms):
    """Edges (order 3) of a tree: node 0 with arms of the given lengths."""
    edges, nxt = {}, 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges[prev, nxt] = 3
            prev, nxt = nxt, nxt + 1
    return 1 + sum(arms), edges


def _named_diagrams():
    """(name, rank, edges, finite): the finite and affine diagrams, and
    two hyperbolic ones."""
    out = []
    for n in range(1, 9):
        out.append((f"A{n}", n, _path([3] * (n - 1)), True))
    for n in range(2, 9):
        out.append((f"B{n}", n, _path([3] * (n - 2) + [4]), True))
    for n in range(4, 9):
        out.append((f"D{n}", n, {**_path([3] * (n - 2)), (n - 3, n - 1): 3},
                    True))
    for name, arms in (("E6", (1, 2, 2)), ("E7", (1, 2, 3)), ("E8", (1, 2, 4))):
        out.append((name, *_star(arms), True))
    out.append(("F4", 4, _path([3, 4, 3]), True))
    out.append(("H3", 3, _path([5, 3]), True))
    out.append(("H4", 4, _path([5, 3, 3]), True))
    for m in range(2, 13):
        out.append((f"I2({m})", 2, {(0, 1): m}, True))
    out.append(("A~1", 2, {(0, 1): INF}, False))
    for n in range(2, 8):
        out.append((f"A~{n}", n + 1,
                    {**_path([3] * n), (0, n): 3}, False))
    for n in range(3, 8):
        out.append((f"B~{n}", n + 1,
                    {(0, 2): 3, (1, 2): 3,
                     **{(k, k + 1): 3 for k in range(2, n - 1)},
                     (n - 1, n): 4}, False))
    for n in range(2, 8):
        out.append((f"C~{n}", n + 1, _path([4] + [3] * (n - 2) + [4]), False))
    for n in range(4, 8):
        out.append((f"D~{n}", n + 1,
                    {(0, 2): 3, (1, 2): 3,
                     **{(k, k + 1): 3 for k in range(2, n - 2)},
                     (n - 2, n - 1): 3, (n - 2, n): 3}, False))
    for name, arms in (("E~6", (2, 2, 2)), ("E~7", (1, 3, 3)),
                       ("E~8", (1, 2, 5)), ("tree (2,2,3)", (2, 2, 3))):
        out.append((name, *_star(arms), False))
    out.append(("F~4", 5, _path([3, 3, 4, 3]), False))
    out.append(("G~2", 3, _path([6, 3]), False))
    out.append(("5-3-3-3 path", 5, _path([5, 3, 3, 3]), False))
    return out


NAMED = _named_diagrams()


@pytest.mark.parametrize("name,rank,edges,finite", NAMED,
                         ids=[d[0] for d in NAMED])
def test_finite_parabolic_verdicts_on_named_diagrams(name, rank, edges, finite):
    system = _diagram(rank, edges)
    assert system.is_finite_parabolic(range(rank)) is finite
    # Every proper subdiagram of an affine diagram is finite.
    if "~" in name:
        assert all(system.is_finite_parabolic(set(range(rank)) - {v})
                   for v in range(rank))


def test_rank_three_rule():
    """<s, t, r> is finite iff 1/p + 1/q + 1/r > 1, over every table."""
    values = (2, 3, 4, 5, 6, 7, INF)
    for p, q, r in itertools.product(values, repeat=3):
        system = _diagram(3, {(0, 1): p, (0, 2): q, (1, 2): r})
        total = sum(Fraction(1, m) for m in (p, q, r) if m != INF)
        assert system.is_finite_parabolic({0, 1, 2}) == (total > 1), (p, q, r)
        assert system.is_two_dimensional() == (total <= 1), (p, q, r)


@pytest.mark.parametrize("rank,edges,order", [
    (4, _path([3, 3, 3]), 120),       # A4
    (4, _path([3, 3, 4]), 384),       # B4
    (4, {(0, 1): 3, (0, 2): 3, (0, 3): 3}, 192),  # D4
    (4, _path([3, 4, 3]), 1152),      # F4
    (3, _path([5, 3]), 120),          # H3
])
def test_finite_parabolic_orders(rank, edges, order):
    system = _diagram(rank, edges)
    assert len(system.parabolic_elements(range(rank))) == order


@pytest.mark.parametrize("rank,edges,count", [
    (2, {}, 2),                       # A1 x A1
    (2, _path([5]), 2),               # I2(5)
    (3, _path([3, 3]), 16),           # A3
    (3, _path([3, 4]), 42),           # B3
    (4, _path([3, 3, 3]), 768),       # A4
])
def test_braid_closure_is_every_reduced_word_of_w0(rank, edges, count):
    """Braid moves connect all reduced words of an element (Matsumoto),
    and w0 has the known number of them (Stanley 1984)."""
    system = _diagram(rank, edges)
    w0 = system.longest_element(range(rank))
    words = braid_closure(system, w0.nf)
    assert len(words) == count
    assert all(len(u) == w0.length and system.element(u) is w0
               for u in words)


def test_criterion_stays_fast_at_high_rank():
    """Rational rows go first and each step divides out the integer
    content; without either, coefficients double in size at every step
    (H3 x A11 then takes about 5 s, A24 about 30 s)."""
    cases = [(24, _path([3] * 23), True),                            # A24
             (24, _path([4] + [3] * 22), True),                      # B24
             (24, {**_path([3] * 22), (21, 23): 3}, True),           # D24
             (24, {**_path([3] * 23), (0, 23): 3}, False),           # A~23
             (14, {**_path([2] * 3 + [3] * 10), **_path([5, 3])}, True)]  # H3 x A11
    start = time.perf_counter()
    for rank, edges, finite in cases:
        assert _diagram(rank, edges).is_finite_parabolic(range(rank)) is finite
    assert time.perf_counter() - start < 2


def test_spherical_subsets_match_the_subset_filter():
    for path in sorted(GROUPS.glob("*.cox")):
        system = parse_system(path.read_text())
        expected = tuple(T for size in range(1, system.n + 1)
                         for T in itertools.combinations(range(system.n), size)
                         if system.is_finite_parabolic(T))
        assert system.spherical_subsets() == expected, path.name


def test_spherical_subsets_stop_at_the_cap(monkeypatch):
    """A path of k order-3 edges (A_k) has 2^k - 1 spherical subsets.  The
    listing refuses once it passes MAX_SPHERICAL_SUBSETS, while a level
    grows: every subset of A_40 is spherical, so it classifies at most
    cap + n subsets, where the full second level alone is 780."""
    monkeypatch.setattr(core, "MAX_SPHERICAL_SUBSETS", 63)
    assert len(_diagram(6, _path([3] * 5)).spherical_subsets()) == 63
    monkeypatch.setattr(core, "MAX_SPHERICAL_SUBSETS", 62)
    with pytest.raises(ResourceLimitError, match="MAX_SPHERICAL_SUBSETS"):
        _diagram(6, _path([3] * 5)).spherical_subsets()

    monkeypatch.setattr(core, "MAX_SPHERICAL_SUBSETS", 50)
    system, classified = _diagram(40, _path([3] * 39)), []
    classify = system._classify_finite
    monkeypatch.setattr(system, "_classify_finite",
                        lambda T: classified.append(T) or classify(T))

    def refuse(T):
        raise AssertionError("w0 formed before the refusal")
    monkeypatch.setattr(system, "longest_element", refuse)
    with pytest.raises(ResourceLimitError):
        k_constant(system)
    assert len(classified) <= 50 + system.n


def test_longest_elements(fig1, a3tilde):
    w0 = fig1.longest_element({0, 2})
    assert w0.length == 4
    assert w0 == fig1.element("srsr") == fig1.element("rsrs")
    assert (w0 * w0).is_identity()
    assert w0.right_descents() == frozenset({0, 2})

    w0 = a3tilde.longest_element({0, 1, 2})
    assert w0.length == 6
    assert (w0 * w0).is_identity()
    assert w0.right_descents() == frozenset({0, 1, 2})
    # longest element really is the max over the enumerated parabolic
    members = a3tilde.parabolic_elements({0, 1, 2})
    assert max(g.length for g in members) == 6
    assert sum(1 for g in members if g.length == 6) == 1

    assert fig1.longest_element(frozenset()).is_identity()


def test_longest_element_infinite_raises(fig1, dinf):
    with pytest.raises(InfiniteParabolicError):
        fig1.longest_element({0, 1, 2})
    with pytest.raises(InfiniteParabolicError):
        dinf.longest_element({0, 1})


def test_residue_gate_properties(fig1, ball):
    for g in ball(fig1, 6):
        for T in ({0}, {1}, {0, 1}, {0, 2}, {1, 2}):
            h = fig1.residue_gate(g, T)
            rest = h.inverse() * g
            assert h.length + rest.length == g.length
            assert not (h.right_descents() & T)
            assert set(rest.nf) <= T
    # gate of strst in <s,t>: strst * (st)^-1 = str, shortest in the residue
    g = fig1.element("strst")
    assert fig1.residue_gate(g, {0, 1}) == fig1.element("str")


def test_in_residue(fig1):
    g = fig1.element("strst")
    assert fig1.in_residue(fig1.element("str"), g, {0, 1})
    assert fig1.in_residue(fig1.element("strs"), g, {0, 1})
    assert not fig1.in_residue(fig1.element("st"), g, {0, 1})
    assert fig1.in_residue(g, g, {0, 1})


def test_in_residue_matches_rewriting_oracle(fig1, triangle, ball):
    """x is in g<T> iff g^-1·x has a reduced word over T; every reduced
    word of an element of W_T uses only letters of T, so the rewriting
    oracle decides membership without the representation."""
    for system in (fig1, triangle):
        spherical = [frozenset(T) for size in (1, 2)
                     for T in itertools.combinations(range(system.n), size)
                     if system.is_finite_parabolic(T)]
        elements = ball(system, 4)
        hits = 0
        for g in elements:
            for x in elements:
                quotient = tits_reduce(
                    system, tuple(reversed(g.nf)) + x.nf, max_letters=8)
                for T in spherical:
                    expected = set(quotient) <= T
                    assert system.in_residue(x, g, T) == expected
                    hits += expected
        assert hits > len(elements) * len(spherical)


# ----- Tits rewriting ---------------------------------------------------------

def test_braid_closure_examples(fig1):
    assert braid_closure(fig1, (0, 1)) == {(0, 1), (1, 0)}
    closure = braid_closure(fig1, (0, 2, 0, 2))
    assert closure == {(0, 2, 0, 2), (2, 0, 2, 0)}
    assert braid_closure(fig1, ()) == {()}


def test_tits_reduce_agrees_with_geometry(fig1):
    for k in range(7):
        for word in itertools.product(range(3), repeat=k):
            reduced = tits_reduce(fig1, word)
            g = fig1.element(word)
            assert len(reduced) == g.length
            assert reduced == g.nf


def test_tits_reduce_caps(fig1):
    with pytest.raises(ResourceLimitError):
        tits_reduce(fig1, (0, 1) * 40, max_letters=20)
    with pytest.raises(PreconditionError):
        tits_reduce(fig1, (0, 9))


# ----- hypothesis properties --------------------------------------------------

small_words = st.lists(st.integers(min_value=0, max_value=2),
                       max_size=10).map(tuple)


@given(small_words)
@settings(max_examples=60)
def test_word_element_laws(word):
    system = _FIG1
    g = system.element(word)
    assert g.length <= len(word)
    assert (g.length - len(word)) % 2 == 0
    assert system.element(g.nf) == g
    assert g.inverse().length == g.length
    assert g.inverse().nf == tuple(system.element(tuple(reversed(word))).nf)
    assert g.left_descents() == g.inverse().right_descents()


@given(small_words, small_words)
@settings(max_examples=40)
def test_multiplication_consistency(u, v):
    system = _FIG1
    g, h = system.element(u), system.element(v)
    assert g * h == system.element(u + v)
    # Products are generator steps; the dense product is their oracle.
    assert (g * h).mat == system._mat_mul(g.mat, h.mat)
    assert (g * h).inv == system._mat_mul(h.inv, g.inv)


_FIG1 = CoxeterSystem.from_pairs(
    ("s", "t", "r"), {("s", "t"): 2, ("s", "r"): 4, ("t", "r"): 4})
