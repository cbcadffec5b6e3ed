"""Acceptance gate: one test per headline claim, end to end.

Run with -v for one verdict line per criterion; each test also prints a
short summary of what it measured.  Expected values here are frozen from
independent recomputation (brute-force pair walks, word-rewriting
lengths, sign-pattern sampling, 100-digit numerics), not from the code
under test.
"""

import itertools
import random
import time
from fractions import Fraction

import mpmath

from coxlang import (
    build,
    canonical_word,
    check_append_lemma,
    descent_data,
    divergence_scan,
    equivalence_scan,
    ft_pair_divergence,
    ft_scan,
    inversion_walls,
    is_in_standard_language,
    prop_main_scan,
    wall_set,
    walls_cross,
)
from coxlang.scalar import _field, two_cos
from oracles import rewriting_pair_value, sign_pattern_cross

# Cap on the words the rewriting oracle reduces: the pair values checked
# here reach 10, and the oracle's words run two letters past that.
ORACLE_LETTERS = 12


def _names(system, witness):
    word, s = witness
    return system.word_str(word), system.matrix.names[s]


def _oracle_value(system, witness, mode):
    """The pair value of a scan witness (g, s), recomputed by word rewriting.

    mode "right" compares the canonical words of g and g·s, mode "left"
    those of g and s·g across the left factor s.
    """
    word, s = witness
    g = system.element(word)
    if mode == "right":
        g_prime, shift = system.mul_gen(g, s), None
    else:
        g_prime, shift = system.gen_mul(s, g), s
    return rewriting_pair_value(system, canonical_word(g),
                                canonical_word(g_prime), shift,
                                max_letters=ORACLE_LETTERS)


def test_c1_worked_example(fig1):
    t0 = time.perf_counter()
    g = fig1.element(fig1.parse_word("strst"))
    T, w, pi = descent_data(g)
    assert T == frozenset({0, 1})
    assert fig1.word_str(w.nf) == "st"
    assert fig1.word_str(pi.nf) == "str"
    assert g.length == 5
    assert len(wall_set(g)) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nC1 PASS: strst has T={{s,t}}, w=st, l=5, |W|=3 ({elapsed:.3f}s)")


def test_c2_automaton_matches_membership(fig1, triangle, dinf, a3tilde):
    parts = []
    for system, name, max_len in ((fig1, "fig1", 8),
                                  (triangle, "triangle", 8),
                                  (dinf, "dihedral-inf", 8),
                                  (a3tilde, "a3tilde", 7)):
        fsa, report = build(system)
        assert not report.truncated
        scan = equivalence_scan(fsa, system, max_len)
        assert scan.first_mismatch is None, f"{name}: {scan.first_mismatch}"
        parts.append(f"{name} len {max_len} ({scan.words_checked} words)")
    print("\nC2 PASS: " + "; ".join(parts))


def test_c3_canonical_words_sound(fig1, triangle, dinf, a3tilde, single, ball):
    total = 0
    for system in (fig1, triangle, dinf, a3tilde, single):
        for g in ball(system, 8):
            word = canonical_word(g)
            assert is_in_standard_language(system, word)
            assert system.element(word) == g
            assert len(word) == g.length
            total += 1
    print(f"\nC3 PASS: {total} canonical words accepted, correct, geodesic")


def test_c4_append_lemma_equivalence(fig1, a3tilde, ball):
    checked = 0
    for system in (fig1, a3tilde):
        finite = [T for r in range(system.n + 1)
                  for T in itertools.combinations(range(system.n), r)
                  if system.is_finite_parabolic(T)]
        for g in ball(system, 6):
            for T in finite:
                lhs, rhs = check_append_lemma(g, frozenset(T))
                assert lhs == rhs, (system.word_str(g.nf), T)
                checked += 1
    print(f"\nC4 PASS: lhs == rhs on {checked} (g, T) pairs")


def test_c5_fellow_traveller_bounds(fig1, triangle):
    f8, f10 = ft_scan(fig1, 8), ft_scan(fig1, 10)
    t8, t10 = ft_scan(triangle, 8), ft_scan(triangle, 10)
    print(f"\nC5 data: fig1 K={f8.k} max_ii={f8.max_ii} "
          f"max_iii(8)={f8.max_iii} max_iii(10)={f10.max_iii}; "
          f"triangle max_ii={t8.max_ii} "
          f"max_iii(8)={t8.max_iii} max_iii(10)={t10.max_iii}")
    assert f8.max_ii <= 5 * f8.k == 20 and f8.bound_ok
    assert t8.max_ii <= 15
    # A finite scan cannot show that max_iii is bounded, so the measured
    # values are pinned instead: fig1 rises from 3 to 5 at radius 9.
    assert (f8.max_iii, f10.max_iii) == (3, 5)
    assert (t8.max_iii, t10.max_iii) == (3, 3)
    assert _names(fig1, f8.witness_iii) == ("srs", "r")
    assert _names(fig1, f10.witness_iii) == ("trstrstrt", "r")
    for system, report in ((fig1, f8), (fig1, f10),
                           (triangle, t8), (triangle, t10)):
        assert _oracle_value(system, report.witness_ii, "right") == report.max_ii
        assert _oracle_value(system, report.witness_iii, "left") == report.max_iii
    print("C5 PASS: max_ii within 5K; max_iii pinned at (3, 5) and (3, 3), "
          "witness values confirmed by word rewriting")


def test_c6_residue_witnesses(fig1, triangle):
    rf = prop_main_scan(fig1, 7)
    rt = prop_main_scan(triangle, 7)
    assert rf.ok, rf.failures[:3]
    assert rt.ok, rt.failures[:3]
    print(f"\nC6 PASS: zero failures (fig1 {rf.checks} checks over "
          f"{rf.residues} residue pairs, triangle {rt.checks} over {rt.residues})")


def test_c7_divergence_growth(a3tilde):
    table = divergence_scan(a3tilde, (8, 12, 16))
    vals = tuple(row.max_divergence for row in table.rows)
    print(f"\nC7 data: max divergence at radii (8, 12, 16) = {vals}")
    assert vals[2] >= vals[0] + 2
    # The full profile over radii 0..16 is 1,2,2,2,4,6,6,6,6,6,6,6,6,6,8,8,8:
    # a plateau at 6 for radii 5 through 13, the next jump at radius 14.
    assert vals == (6, 6, 8)
    assert tuple(_names(a3tilde, row.witness) for row in table.rows) == (
        ("prpsrpt", "s"), ("prpsrpt", "s"), ("prpsrptprsrtps", "t"))
    for row in table.rows:
        assert _oracle_value(a3tilde, row.witness, "right") == row.max_divergence

    # The growth goes on past the ball: the witnesses of lengths 7 and 14
    # extend geodesically to a length-21 element, and the chain of values
    # 6, 8 continues with 10.
    g7 = a3tilde.element(table.rows[0].witness[0])
    g14 = a3tilde.element(table.rows[2].witness[0])
    g21 = a3tilde.element(a3tilde.parse_word("prpsrptprsrptpsrtpsrt"))
    assert g14.length == 14 == g7.length + (g7.inverse() * g14).length
    assert g21.length == 21 == g14.length + (g14.inverse() * g21).length
    s = a3tilde.gen_index("s")
    gs = a3tilde.mul_gen(g21, s)
    assert ft_pair_divergence(g21, gs, "right", s) == 10
    assert _oracle_value(a3tilde, (g21.nf, s), "right") == 10
    print("C7 PASS: maxima (6, 6, 8) with gap >= 2, witness values confirmed "
          "by word rewriting; the length-21 extension reaches 10")


def test_c10_divergence_grows_within_the_ball(a3tilde):
    # Past C7's radii the growth shows inside the ball itself: the maxima
    # at radii 20 and 24 are 8 and 12.
    table = divergence_scan(a3tilde, (20, 24))
    vals = tuple(row.max_divergence for row in table.rows)
    print(f"\nC10 data: max divergence at radii (20, 24) = {vals}")
    assert vals == (8, 12)
    assert tuple(_names(a3tilde, row.witness) for row in table.rows) == (
        ("prpsrptprsrptprsrtps", "r"), ("prpsrptprsrptpsrptpsrtps", "r"))
    for row in table.rows:
        word, s = row.witness
        g = a3tilde.element(word)
        assert rewriting_pair_value(
            a3tilde, canonical_word(g), canonical_word(a3tilde.mul_gen(g, s)),
            None, max_letters=14) == row.max_divergence
    print("C10 PASS: maxima (8, 12) at radii (20, 24), witness values "
          "confirmed by word rewriting")


def test_c8_oracle_agreement(fig1, triangle, dinf, a3tilde, single, ball):
    words = 0
    for system in (fig1, triangle, dinf, a3tilde, single):
        for n in range(9):
            for word in itertools.product(range(system.n), repeat=n):
                assert len(system.element(word).nf) == len(system.tits_reduce(word))
                words += 1

    pair_count = 0
    for system, sample_radius in ((fig1, 10), (triangle, 8),
                                  (a3tilde, 8), (dinf, 8)):
        chambers = ball(system, sample_radius)
        seen = set()
        for g in ball(system, 6):
            for a, b in itertools.combinations(inversion_walls(g), 2):
                key = frozenset((a, b))
                if key in seen:
                    continue
                seen.add(key)
                assert walls_cross(a, b) == sign_pattern_cross(a, b, chambers)
        pair_count += len(seen)
    print(f"\nC8 PASS: {words} word lengths agree; "
          f"{pair_count} wall pairs agree with sign-pattern sampling")


def test_c9_exact_arithmetic(fig1, triangle, dinf, a3tilde, single):
    for system in (fig1, triangle, dinf, a3tilde, single):
        for s in range(system.n):
            gen = system.generator(s)
            assert gen * gen == system.identity

    f5 = _field(5)
    phi = two_cos(f5, 5)
    assert phi * phi - phi - f5.scalar(1) == f5.scalar(0)

    rng = random.Random(0x5c2c)
    fields = [_field(1), _field(5), _field(12), _field(30)]
    with mpmath.workdps(100):
        for _ in range(1000):
            field = rng.choice(fields)
            coeffs = tuple(Fraction(rng.randint(-10**6, 10**6),
                                    rng.randint(1, 1000))
                           for _ in range(field.degree))
            x = field.from_coeffs(coeffs)
            theta = 2 * mpmath.cos(mpmath.pi / field.n)
            val = sum(mpmath.mpf(c.numerator) / c.denominator * theta**i
                      for i, c in enumerate(coeffs))
            want = 0 if abs(val) < mpmath.mpf(10) ** -60 else (1 if val > 0 else -1)
            assert x.sign() == want
    print("\nC9 PASS: involutions exact, golden identity exact, "
          "1000 random signs match 100-digit evaluation")
