"""Fellow-traveller scans, divergence tables, residue witness scans."""

import pytest

from coxlang import (PreconditionError, ResourceLimitError, divergence_scan,
                     ft_pair_divergence, ft_scan, k_constant, prop_main_scan)
from coxlang.experiments import (_pair_value, divergence_tsv, ft_text, ft_tsv,
                                 prop_text, prop_tsv)
from coxlang.language import canonical_word


def test_k_constants(fig1, a3tilde, triangle, dinf, single):
    assert k_constant(dinf) == 1
    assert k_constant(single) == 1
    assert k_constant(fig1) == 4
    assert k_constant(triangle) == 3
    assert k_constant(a3tilde) == 6


def test_pair_divergence_identity_examples(fig1):
    s = fig1.generator(0)
    assert ft_pair_divergence(fig1.identity, s, "right", 0) == 1
    # left mode from the identity: s*v(i) and v'(i) coincide immediately
    assert ft_pair_divergence(fig1.identity, s, "left", 0) == 0


def test_pair_divergence_regression(fig1):
    g = fig1.element("str")
    value = ft_pair_divergence(g, fig1.mul_gen(g, 0), "right", 0)
    assert value == 1
    assert value <= 5 * k_constant(fig1)
    assert ft_pair_divergence(g, fig1.mul_gen(g, 1), "right", 1) == 1
    assert ft_pair_divergence(g, fig1.gen_mul(2, g), "left", 2) == 1


def test_pair_divergence_preconditions(fig1):
    g = fig1.element("str")
    with pytest.raises(PreconditionError):
        ft_pair_divergence(g, fig1.mul_gen(g, 2), "right", 2)  # r descends
    with pytest.raises(PreconditionError):
        ft_pair_divergence(g, fig1.gen_mul(0, g), "left", 0)  # s descends
    with pytest.raises(PreconditionError):
        ft_pair_divergence(g, fig1.element("str"), "right", 0)  # not g*s
    with pytest.raises(PreconditionError):
        ft_pair_divergence(fig1.identity, fig1.generator(0), "sideways", 0)


def test_pair_value_swap_shifts_by_at_most_one(fig1, ball):
    for g in ball(fig1, 5):
        for s in range(fig1.n):
            if s in g.right_descents():
                continue
            v = canonical_word(g)
            vp = canonical_word(fig1.mul_gen(g, s))
            fwd = _pair_value(fig1, v, vp, None)
            rev = _pair_value(fig1, vp, v, None)
            assert abs(fwd - rev) <= 1


def test_ft_scan_fig1_frozen(fig1):
    report = ft_scan(fig1, 6)
    assert (report.max_ii, report.max_iii) == (4, 3)
    assert report.witness_ii == (fig1.parse_word("strsr"), 1)
    assert report.witness_iii == (fig1.parse_word("srs"), 2)
    assert report.k == 4
    assert report.two_dimensional and report.bound_ok
    # at radius 8 a lexicographically smaller witness of the same value
    # appears, so the tie-break switches to it
    report8 = ft_scan(fig1, 8)
    assert (report8.max_ii, report8.max_iii) == (4, 3)
    assert report8.witness_ii == (fig1.parse_word("strstrsr"), 1)


def test_ft_scan_triangle_frozen(triangle):
    report = ft_scan(triangle, 6)
    assert (report.max_ii, report.max_iii) == (2, 3)
    assert report.witness_ii == (triangle.parse_word("abac"), 1)
    assert report.bound_ok


def test_ft_scan_not_two_dimensional(a3tilde):
    report = ft_scan(a3tilde, 3)
    assert not report.two_dimensional
    assert report.bound_ok is None
    assert (report.max_ii, report.max_iii) == (2, 3)


def test_ft_scan_all_words_dominates_canonical(fig1):
    can = ft_scan(fig1, 4)
    full = ft_scan(fig1, 4, words="all")
    assert full.max_ii >= can.max_ii
    assert full.max_iii >= can.max_iii
    assert (full.max_ii, full.max_iii) == (4, 3)
    assert full.words == "all"


def test_ft_scan_bad_mode(fig1):
    with pytest.raises(PreconditionError):
        ft_scan(fig1, 2, words="bogus")


def test_ft_scan_ball_cap(fig1):
    with pytest.raises(ResourceLimitError):
        ft_scan(fig1, 6, max_ball=5)


def test_divergence_fig1_constant(fig1):
    table = divergence_scan(fig1, (6, 8, 10))
    assert [row.max_divergence for row in table.rows] == [4, 4, 4]
    assert [row.radius for row in table.rows] == [6, 8, 10]


def test_divergence_radius_one(fig1, dinf):
    # a commuting pair reorders the canonical word, so the radius-1 maximum
    # is 2 when some m_st = 2 and 1 otherwise
    row = divergence_scan(fig1, (1,)).rows[0]
    assert row.max_divergence == 2
    assert row.witness == (fig1.parse_word("t"), 0)
    assert divergence_scan(dinf, (1,)).rows[0].max_divergence == 1


def test_divergence_a3tilde_growth(a3tilde):
    table = divergence_scan(a3tilde, (4, 6, 8))
    vals = [row.max_divergence for row in table.rows]
    assert vals == [4, 6, 6]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert all(row.witness is not None for row in table.rows)


def test_divergence_rows_equal_ft_scan(fig1, a3tilde, dinf):
    # one pass serves both scans: each divergence row is the max_ii of a
    # separate ft_scan at that radius, with the same tie-break
    for system, radii in ((fig1, (0, 2, 5)), (a3tilde, (0, 3, 5)),
                          (dinf, (0, 1, 4))):
        table = divergence_scan(system, radii)
        for row, radius in zip(table.rows, radii):
            report = ft_scan(system, radius)
            assert (row.radius, row.max_divergence, row.witness) == \
                (radius, report.max_ii, report.witness_ii)


def test_divergence_radii_validation(fig1):
    with pytest.raises(PreconditionError):
        divergence_scan(fig1, ())
    with pytest.raises(PreconditionError):
        divergence_scan(fig1, (4, 4))
    with pytest.raises(PreconditionError):
        divergence_scan(fig1, (6, 4))
    with pytest.raises(PreconditionError):
        divergence_scan(fig1, (-1, 2))


def test_divergence_ball_cap(a3tilde):
    with pytest.raises(ResourceLimitError):
        divergence_scan(a3tilde, (8,), max_ball=10)


def test_prop_scan_frozen(fig1, triangle):
    report = prop_main_scan(fig1, 4)
    assert (report.residues, report.checks) == (75, 728)
    assert report.ok and report.failures == ()
    report = prop_main_scan(triangle, 4)
    assert (report.residues, report.checks) == (84, 744)
    assert report.ok


def test_prop_scan_radius_zero(fig1):
    report = prop_main_scan(fig1, 0)
    assert (report.residues, report.checks) == (6, 26)
    assert report.ok


def test_prop_scan_needs_two_dimensional(a3tilde):
    with pytest.raises(PreconditionError):
        prop_main_scan(a3tilde, 2)


def test_renderers(fig1, a3tilde):
    report = ft_scan(fig1, 4)
    tsv = ft_tsv(report, fig1)
    lines = tsv.splitlines()
    assert lines[0] == "radius\tK\tmax_ii\tmax_iii\twitness_g_nf\twitness_s"
    assert lines[1].startswith("4\t4\t4\t3\t")
    assert tsv.endswith("\n")
    text = ft_text(report, fig1)
    assert "bound max_ii <= 5K = 20: holds" in text

    table = divergence_scan(a3tilde, (2, 4))
    tsv = divergence_tsv(table, a3tilde)
    lines = tsv.splitlines()
    assert lines[0] == "radius\tmax_divergence\twitness_g_nf\twitness_s"
    assert len(lines) == 3

    prop = prop_main_scan(fig1, 2)
    assert prop_tsv(prop, fig1).splitlines()[0] == \
        "radius\tresidues\tchecks\tfailures"
    assert "witnesses found for every pair" in prop_text(prop, fig1)
