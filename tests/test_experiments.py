"""Fellow-traveller scans, divergence tables, residue witness scans."""

import itertools
import operator
import tracemalloc

import pytest

from coxlang import (CoxeterSystem, PreconditionError, ResourceLimitError,
                     divergence_scan, ft_pair_divergence, ft_scan, k_constant,
                     parse_system, prop_main_scan)
from conftest import GROUPS, diagram, path_edges, pumped_a3tilde_word
from coxlang import experiments
from coxlang.experiments import (_pair_value, _tail_value, divergence_tsv,
                                 ft_text, ft_tsv, prop_text, prop_tsv)
from coxlang.core import DEFAULT_WORD_CAP
from coxlang.language import (canonical_word, chunk_decomposition,
                              language_words, weak_order)
import oracles

SHIPPED = sorted(path.name for path in GROUPS.glob("*.cox"))


def test_k_constants(fig1, a3tilde, triangle, dinf, single):
    assert k_constant(dinf) == 1
    assert k_constant(single) == 1
    assert k_constant(fig1) == 4
    assert k_constant(triangle) == 3
    assert k_constant(a3tilde) == 6


def _a5():
    names = tuple("abcde")
    return CoxeterSystem.from_pairs(
        names, {(x, y): 3 if j == i + 1 else 2
                for (i, x), (j, y) in itertools.combinations(enumerate(names), 2)})


@pytest.mark.parametrize("fname", sorted(
    path.name for path in GROUPS.glob("*.cox")) + ["A5"])
def test_k_constant_is_the_max_over_all_spherical_subsets(fname):
    system = (_a5() if fname == "A5"
              else parse_system((GROUPS / fname).read_text()))
    everything = max(system.longest_element(T).length
                     for T in system.spherical_subsets())
    assert k_constant(system) == everything
    if fname == "A5":
        assert everything == 15


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


PUMPED_DIVERGENCE = {0: 6, 1: 10, 2: 16, 3: 18, 4: 20, 5: 24, 6: 28, 7: 30,
                     10: 40, 20: 76, 40: 140, 80: 276}


def test_pumped_a3tilde_family_diverges_off_the_ball(a3tilde):
    """g_n = prpsrpt·(prsrpt)ⁿ·(psrt)ⁿ⁺¹ is its own normal form, of length
    10n + 11, and the canonical words of g_n and g_n·p drift apart as n
    grows: a right-side pair far outside any ball a scan reaches."""
    p = a3tilde.gen_index("p")
    for n, value in PUMPED_DIVERGENCE.items():
        word = a3tilde.parse_word(pumped_a3tilde_word(n))
        g = a3tilde.element(word)
        if n <= 7:
            assert g.nf == word and g.length == 10 * n + 11
        assert ft_pair_divergence(g, a3tilde.mul_gen(g, p), "right",
                                  p) == value


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


def test_canonical_words_and_pair_values_match_oracles(fig1, a3tilde, h237,
                                                       ball):
    """The kept canonical word against the Pi chain walked afresh, and the
    pair value against the oracle's loop, for every ascent on either
    side."""
    identity = fig1.identity
    assert canonical_word(identity) == oracles.canonical_word(identity) == ()
    for system, radius in ((fig1, 7), (a3tilde, 6), (h237, 5)):
        for g in ball(system, radius):
            v = canonical_word(g)
            assert v == oracles.canonical_word(g)
            for s in range(system.n):
                for gp, shift in ((system.mul_gen(g, s), None),
                                  (system.gen_mul(s, g), s)):
                    if gp.length < g.length:
                        continue
                    vp = canonical_word(gp)
                    assert vp == oracles.canonical_word(gp)
                    assert (_pair_value(system, v, vp, shift)
                            == oracles.pair_value(system, v, vp, shift))


def _shipped_or_a4(name):
    if name == "A~4":
        return diagram(5, {**path_edges([3, 3, 3, 3]), (0, 4): 3})
    return parse_system((GROUPS / name).read_text())


def _right_ascents(system, ball):
    return [(g, s, system.mul_gen(g, s)) for g in ball
            for s in range(system.n) if s not in g.right_descents()]


@pytest.mark.parametrize("name", SHIPPED + ["A~4"])
def test_tail_values_equal_the_public_oracle(name):
    """Every right-ascent value read from canonical-word suffixes against
    the oracle's canonical words, walked afresh and compared letter by
    letter from the first, in a separate system.  The ascents out of the
    ball's last level are never formed, so their values come from stepped
    keys, and the scan interns nothing past the ball; on A~3 that level
    is at radius 10."""
    system, oracle = _shipped_or_a4(name), _shipped_or_a4(name)
    tails = {}
    ball = system.ball({"A~4": 6, "a3tilde.cox": 10}.get(name, 8))
    size = len(system._elements)
    last = ball[-1].length
    skipped = 0
    for g in ball:
        h = oracle.element(g.nf)
        v = oracles.canonical_word(h)
        for s in range(system.n):
            if s in g.right_descents():
                continue
            skipped += g._steps[s] is None
            vp = oracles.canonical_word(oracle.mul_gen(h, s))
            assert (_tail_value(system, g, s, tails)
                    == oracles.pair_value(oracle, v, vp, None)), (g, s)
    assert len(system._elements) == size
    assert skipped == sum(system.n - len(g.right_descents())
                          for g in ball if g.length == last)


def _compared_pairs(system, ball):
    """(g, g′, d) for every compared pair of either side: g′ = g·s with
    d = 1, and g′ = s·g with d = s."""
    return [(g, gp, d) for g in ball for s in range(system.n)
            for gp, d in ((system.mul_gen(g, s), system.identity),
                          (system.gen_mul(s, g), system.generator(s)))
            if gp.length > g.length]


def _prefix_counts(g):
    """|P_i(g)| for i = 1..l(g), from the weak-order rows of g's chunks."""
    return [len(row) for c in reversed(chunk_decomposition(g))
            for row in weak_order(g.system, c.parabolic)[1:]]


@pytest.mark.parametrize("name,radius",
                         [(name, 6) for name in SHIPPED] + [("A~4", 5)])
def test_prefix_walk_equals_the_word_pair_product(name, radius):
    """For every compared pair of the ball, on both sides, the walk over
    prefix levels equals the max of `_pair_value` over every pair of
    language words, and the rows it walks have as many elements as the
    words have distinct prefixes at each length."""
    system = _shipped_or_a4(name)
    words = {}
    for g, gp, d in _compared_pairs(system, system.ball(radius)):
        for x in (g, gp):
            if x not in words:
                words[x] = language_words(x)
                prefixes = [{system.mul_word(system.identity, v[:i])
                             for v in words[x]}
                            for i in range(1, x.length + 1)]
                assert _prefix_counts(x) == list(map(len, prefixes))
        shift = None if d.is_identity() else d.nf[0]
        assert experiments._walk_value(g, gp, d, DEFAULT_WORD_CAP) == max(
            _pair_value(system, v, vp, shift)
            for v in words[g] for vp in words[gp]), (g, gp, d)


def test_prefix_walk_takes_one_step_per_prefix_pair(monkeypatch, a3tilde):
    """On A~3 at radius 10 the walks take one `_step` per prefix pair,
    Σ_i |P_i(g)|·|P_i(g′)| per compared pair, the sum the cap reads."""
    steps = 0
    real = experiments._step

    def counted(*args):
        nonlocal steps
        steps += 1
        return real(*args)
    monkeypatch.setattr(experiments, "_step", counted)
    ft_scan(a3tilde, 10, words="all")
    expected = 0
    for g, gp, _ in _compared_pairs(a3tilde, a3tilde.ball(10)):
        counts, counts_p = _prefix_counts(g), _prefix_counts(gp)
        counts += [1] * (len(counts_p) - len(counts))
        expected += sum(map(operator.mul, counts, counts_p))
    assert steps == expected


def test_divergence_scan_interns_only_the_ball():
    """A~3 divergence rows intern the elements of the ball at the largest
    radius and no more: 3,025 at radius 16 and 5,781 at radius 20."""
    for radii, size in (((8, 12, 16), 3025), ((8, 12, 16, 20), 5781)):
        system = parse_system((GROUPS / "a3tilde.cox").read_text())
        divergence_scan(system, radii)
        assert len(system._elements) == len(system.ball(radii[-1])) == size


def _reference_entries(system, ball, mode):
    """(l(g), value, (nf(g), s)) per ascent, from the oracle's canonical
    words compared letter by letter."""
    right, out = mode == "right", []
    for g in ball:
        for s in range(system.n):
            gs = system.mul_gen(g, s) if right else system.gen_mul(s, g)
            if gs.length > g.length:
                value = oracles.pair_value(
                    system, oracles.canonical_word(g),
                    oracles.canonical_word(gs), None if right else s)
                out.append((g.length, value, (g.nf, s)))
    return out


@pytest.mark.parametrize("name, radii", [
    ("a3tilde.cox", (0, 3, 7)), ("dihedral_inf.cox", (0, 1, 4, 9)),
    ("fig1.cox", (0, 2, 5, 8)), ("single.cox", (0, 5, 9)),
    ("triangle_237.cox", (0, 4, 8)), ("triangle_245.cox", (1, 6)),
    ("triangle_333.cox", (0, 2, 3, 7))])
def test_streamed_rows_equal_the_list_reference(name, radii):
    """Divergence rows and ft_scan maxima against the list-based best over
    every entry, at radius 0, with gaps between radii, and past the
    longest element of a finite group."""
    system = parse_system((GROUPS / name).read_text())
    ball = system.ball(radii[-1])
    right = _reference_entries(system, ball, "right")
    left = _reference_entries(system, ball, "left")
    table = divergence_scan(system, radii)
    assert [row.radius for row in table.rows] == list(radii)
    for row, radius in zip(table.rows, radii):
        assert (row.max_divergence, row.witness) == oracles.best(right, radius)
        report = ft_scan(system, radius)
        assert (report.max_ii, report.witness_ii) == oracles.best(right, radius)
        assert (report.max_iii, report.witness_iii) == oracles.best(left, radius)


def _suffixes(v, vp):
    """The words v and vp past their first differing letter."""
    i = 0
    while i < len(v) and v[i] == vp[i]:
        i += 1
    return v[i:], vp[i:]


def test_a3tilde_divergence_walks_each_suffix_pair_once(monkeypatch):
    """The mechanism behind the A~3 scan: one pair walk per distinct pair
    of canonical-word suffixes past the first differing letter, the
    canonical word kept on every ball element, and a bounded allocation
    peak."""
    system = parse_system((GROUPS / "a3tilde.cox").read_text())
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _pair_value(*args)

    monkeypatch.setattr(experiments, "_pair_value", counted)
    tracemalloc.start()
    try:
        table = divergence_scan(system, (8, 12, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.max_divergence for row in table.rows] == [6, 6, 8]
    ball = system.ball(16)
    assert all(g._canonical == oracles.canonical_word(g) for g in ball[1:])
    pairs = _right_ascents(system, ball)
    walked = {_suffixes(oracles.canonical_word(g), oracles.canonical_word(gs))
              for g, s, gs in pairs}
    assert len(pairs) == 6596
    assert calls == len(walked) <= 1000
    assert peak < 3.5 * 2**20


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
    with pytest.raises(PreconditionError, match="nonempty"):
        divergence_scan(fig1, ())
    with pytest.raises(PreconditionError, match="increasing"):
        divergence_scan(fig1, (4, 4))
    with pytest.raises(PreconditionError, match="increasing"):
        divergence_scan(fig1, (6, 4))
    with pytest.raises(PreconditionError, match="nonnegative"):
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
