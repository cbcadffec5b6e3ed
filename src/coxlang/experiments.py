"""Fellow-traveller measurements and divergence scans.

Two canonical-word representatives fellow-travel if the distance between
their length-i prefixes stays bounded as i grows.  For 2-dimensional
systems the bound 5K holds (K = longest chunk); the scans here measure the
observed maxima over balls, and for the Euclidean group A~3 they exhibit
the growing divergence that rules out such a bound.

All scans are deterministic: ties between witnesses are broken by the
lexicographically least (normal form, generator index), which is
independent of iteration order.
"""

from __future__ import annotations

from itertools import compress, count, zip_longest
from operator import ne
from typing import NamedTuple

from .core import (DEFAULT_BALL_CAP, DEFAULT_WORD_CAP, CoxeterSystem, Element,
                   Word, k_constant)
from .errors import PreconditionError, ResourceLimitError
from .language import (_finite_pairs, _gate_chain, _signature, _witness,
                       canonical_word, chunk_decomposition, weak_order)

Witness = tuple[Word, int]


class FtReport(NamedTuple):
    radius: int
    k: int
    max_ii: int
    max_iii: int
    witness_ii: Witness | None
    witness_iii: Witness | None
    two_dimensional: bool
    bound_ok: bool | None
    words: str


class DivergenceRow(NamedTuple):
    radius: int
    max_divergence: int
    witness: Witness | None


class DivergenceTable(NamedTuple):
    rows: tuple[DivergenceRow, ...]


class PropMainReport(NamedTuple):
    radius: int
    residues: int
    checks: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def _step(d: Element, a, b) -> Element:
    """a·d·b for letters a and b, None for no step; a·d is (d⁻¹·a)⁻¹, and
    a step or an inverse already taken is read from its slot."""
    if a is not None:
        e = d._inverse or d.inverse()
        e = e._steps[a] or d.system.mul_gen(e, a)
        d = e._inverse or e.inverse()
    if b is not None:
        d = d._steps[b] or d.system.mul_gen(d, b)
    return d


def _pair_value(system: CoxeterSystem, v: Word, vp: Word, s) -> int:
    """max over i >= 1 of l(v(i)^-1 [s] vp(i)), prefixes saturating.

    The difference element takes one `_step` per i, past the shorter
    word on the longer side only.  Elements are interned and keep their
    steps and normal form, and on A~3 the difference takes only a few
    hundred values over a whole scan.
    """
    d = system.identity if s is None else system.generator(s)
    best = 0
    for a, b in zip_longest(v, vp):
        d = _step(d, a, b)
        length = len(d._nf or d.nf)
        if length > best:
            best = length
    return best


def ft_pair_divergence(g: Element, g_prime: Element, mode: str, s: int) -> int:
    """Worst prefix distance between the canonical words of g and g'.

    mode "right" compares v(i) with v'(i) for g' = g·s; mode "left"
    compares s·v(i) with v'(i) for g' = s·g.  Requires l(g') > l(g).
    """
    system = g.system
    if mode == "right":
        if s in g.right_descents() or g_prime is not system.mul_gen(g, s):
            raise PreconditionError("need g' = g·s with l(g·s) > l(g)")
        return _tail_value(system, g, s, {})
    if mode == "left":
        if s in g.left_descents() or g_prime is not system.gen_mul(s, g):
            raise PreconditionError("need g' = s·g with l(s·g) > l(g)")
        return _pair_value(system, canonical_word(g), canonical_word(g_prime), s)
    raise PreconditionError(f"unknown mode {mode!r}")


def _better(value: int, wit: Witness, best: int, best_wit: Witness | None) -> bool:
    if value != best:
        return value > best
    return best_wit is None or wit < best_wit


def _tail_value(system: CoxeterSystem, g: Element, s: int,
                tails: dict) -> int:
    """The value of the right-side pair (g, g' = g·s) from the suffixes of
    the canonical words past their first differing letter.

    The difference is the identity along the shared prefix, so the value
    is that of the suffixes, kept in `tails` per pair of them.  g' is not
    formed when no step has linked it to g: T = T(g') is stepped from g's
    descents and key, and can(g') = can(b) + nf(w0(T)) for b = Pi(g'), the
    gate of g<T>, reached from g down steps the ball already took.
    """
    v, gp = g._canonical or canonical_word(g), g._steps[s]
    if gp is not None:
        vp = gp._canonical or canonical_word(gp)
    else:
        T = system._stepped_descents(g, system._key_rmul(g.key, s), s)
        b = system.residue_gate(g, T)
        vp = (b._canonical or canonical_word(b)) + system.longest_element(T).nf
    i = next(compress(count(), map(ne, v, vp)), len(v))
    key = v[i:], vp[i:]
    value = tails.get(key)
    if value is None:
        value = tails[key] = _pair_value(system, *key, None)
    return value


def _walk_value(g: Element, gp: Element, d: Element, max_pairs: int) -> int:
    """The worst `_pair_value` over every pair of language words of g and
    g′, d being the difference of their empty prefixes.

    The length-i prefixes of g's words are base·u, for the chunk base
    below i and the u of one row of `weak_order(T)`, so g's rows are its
    chunks' tables joined; a word that has ended keeps one prefix, its own
    parent.  Words of g and g′ are chosen independently, so each a⁻¹·d·b
    is one `_step` past that of the parents of a and b, and a walk of
    Σ_i |P_i(g)|·|P_i(g′)| steps over max_pairs raises before any step.
    """
    rows = list(zip_longest(
        *([row for c in reversed(chunk_decomposition(x))
           for row in weak_order(x.system, c.parabolic)[1:]] for x in (g, gp)),
        fillvalue=((None, ((0, None),)),)))
    if sum(len(row) * len(row_p) for row, row_p in rows) > max_pairs:
        raise ResourceLimitError(f"prefix pair count exceeds cap {max_pairs}")
    level, best = [[d]], 0
    for row, row_p in rows:
        steps_p = [down[0] for _, down in row_p]
        level = [[_step(level[j][jp], t, tp) for jp, tp in steps_p]
                 for j, t in (down[0] for _, down in row)]
        best = max(best, *(len(e._nf or e.nf) for diffs in level for e in diffs))
    return best


def _ascent_values(system, ball, side, words, max_words):
    """(l(g), value, (nf(g), s)) for each g in the ball with an ascent, in
    ball order: the largest value over g's ascents s, the least s among
    ties.

    Side "right" compares g with g·s; side "left" compares g with s·g,
    shifting the prefixes of g by s.  In "all" mode the value is the worst
    over every pair of standard-language words, walked by prefix levels,
    else that of the canonical words, which on the right side is read from
    their suffixes without forming g·s.
    """
    right, n = side == "right", system.n

    def neighbour(g, s):
        if right:
            return g._steps[s] or system.mul_gen(g, s)
        return system.gen_mul(s, g)

    if words == "all":
        def value(g, s):
            d = system.identity if right else system.generator(s)
            return _walk_value(g, neighbour(g, s), d, max_words)
    elif right:
        tails = {}

        def value(g, s):
            return _tail_value(system, g, s, tails)
    else:
        def value(g, s):
            gp = neighbour(g, s)
            return _pair_value(system, g._canonical or canonical_word(g),
                               gp._canonical or canonical_word(gp), s)
    for g in ball:
        desc = g.right_descents() if right else g.left_descents()
        best = None
        for s in range(n):
            if s not in desc:
                val = value(g, s)
                if best is None or val > best:
                    best, arg = val, s
        if best is not None:
            yield g.length, best, (g.nf, arg)


def _running_bests(entries, radii) -> list[tuple[int, Witness | None]]:
    """Per radius r, the largest value with l(g) <= r, least witness
    among ties.

    The entries come in ball order, whose lengths never decrease, so the
    row for r is closed by the first entry longer than r.
    """
    rows, best, wit = [], 0, None
    for length, val, witness in entries:
        while len(rows) < len(radii) and length > radii[len(rows)]:
            rows.append((best, wit))
        if _better(val, witness, best, wit):
            best, wit = val, witness
    rows.extend((best, wit) for _ in radii[len(rows):])
    return rows


def ft_scan(system: CoxeterSystem, radius: int, words: str = "canonical",
            max_words: int = DEFAULT_WORD_CAP,
            max_ball: int = DEFAULT_BALL_CAP) -> FtReport:
    """Measure both fellow-traveller quantities over a ball.

    max_ii ranges over g' = g·s (prefixes compared directly); max_iii over
    g' = s·g (prefixes compared across the left factor).  In "all" mode
    every pair of standard-language words is compared, not just the
    canonical ones, and a compared pair with more than max_words prefix
    pairs is refused before it is walked.
    """
    if words not in ("canonical", "all"):
        raise PreconditionError(f"unknown words mode {words!r}")
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    ball = system.ball(radius, max_ball)
    (max_ii, wit_ii), = _running_bests(
        _ascent_values(system, ball, "right", words, max_words), (radius,))
    (max_iii, wit_iii), = _running_bests(
        _ascent_values(system, ball, "left", words, max_words), (radius,))
    k = k_constant(system)
    two_dim = system.is_two_dimensional()
    bound_ok = (max_ii <= 5 * k) if two_dim else None
    return FtReport(radius, k, max_ii, max_iii, wit_ii, wit_iii,
                    two_dim, bound_ok, words)


def divergence_scan(system: CoxeterSystem, radii,
                    max_ball: int = DEFAULT_BALL_CAP) -> DivergenceTable:
    """Max prefix divergence per radius, one row per requested radius.

    Each row equals ft_scan(system, radius).max_ii and its witness.
    """
    radii = tuple(radii)
    if not radii:
        raise PreconditionError("radii must be nonempty")
    if any(r < 0 for r in radii):
        raise PreconditionError("radii must be nonnegative")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be strictly increasing")
    ball = system.ball(radii[-1], max_ball)
    entries = _ascent_values(system, ball, "right", "canonical",
                             DEFAULT_WORD_CAP)
    return DivergenceTable(tuple(
        DivergenceRow(radius, *row)
        for radius, row in zip(radii, _running_bests(entries, radii))))


def prop_main_scan(system: CoxeterSystem, radius: int,
                   max_ball: int = DEFAULT_BALL_CAP) -> PropMainReport:
    """Exhaustively verify the residue-witness property over a ball.

    Scans every spherical residue meeting the ball and every ordered pair
    of its members (the in-ball one acting as g); records any pair for
    which no witness exists.
    """
    if not system.is_two_dimensional():
        raise PreconditionError("the residue witness scan needs a 2-dimensional system")
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    pairs = _finite_pairs(system)
    # The residues are built so that check_prop_main's preconditions hold,
    # so the scan asks `_witness` directly; each pair's words are listed
    # once.  One signature table serves the whole scan: the gates of a
    # ball element name its residues, and each member's gate chain is
    # formed once per residue.  A gate is the shortest member, so a
    # member's length is the gate's plus its word's.
    words = [[u.nf for u in system.parabolic_elements(pair)]
             for pair in pairs]
    signatures = {}
    seen = set()
    failures = []
    residues = 0
    checks = 0
    for g in system.ball(radius, max_ball):
        for i, gate in enumerate(_signature(g, pairs, signatures)):
            if (gate, i) in seen:
                continue
            seen.add((gate, i))
            residues += 1
            members = [system.mul_word(gate, u) for u in words[i]]
            chains = [_gate_chain(x, pairs, signatures) for x in members]
            inside = radius - gate.length
            for u, g1, chain in zip(words[i], members, chains):
                if len(u) > inside:
                    continue
                for g2, chain_prime in zip(members, chains):
                    checks += 1
                    if _witness(chain, chain_prime, pairs) is None:
                        failures.append((g1.nf, g2.nf, *pairs[i]))
    return PropMainReport(radius, residues, checks, tuple(failures))


# ----- rendering ------------------------------------------------------------


def _witness_cells(system, witness: Witness | None) -> tuple[str, str]:
    if witness is None:
        return "-", "-"
    word, s = witness
    return system.word_str(word), system.matrix.names[s]


def ft_tsv(report: FtReport, system: CoxeterSystem) -> str:
    g_nf, s = _witness_cells(system, report.witness_ii)
    lines = ["radius\tK\tmax_ii\tmax_iii\twitness_g_nf\twitness_s",
             f"{report.radius}\t{report.k}\t{report.max_ii}\t"
             f"{report.max_iii}\t{g_nf}\t{s}"]
    return "\n".join(lines) + "\n"


def ft_text(report: FtReport, system: CoxeterSystem) -> str:
    g2, s2 = _witness_cells(system, report.witness_ii)
    g3, s3 = _witness_cells(system, report.witness_iii)
    lines = [
        f"radius {report.radius}, words {report.words}",
        f"K = {report.k}",
        f"max_ii  = {report.max_ii}  (witness g = {g2}, s = {s2})",
        f"max_iii = {report.max_iii}  (witness g = {g3}, s = {s3})",
    ]
    if report.two_dimensional:
        verdict = "holds" if report.bound_ok else "VIOLATED"
        lines.append(f"bound max_ii <= 5K = {5 * report.k}: {verdict}")
    else:
        lines.append("not 2-dimensional: no 5K bound asserted")
    return "\n".join(lines) + "\n"


def divergence_tsv(table: DivergenceTable, system: CoxeterSystem) -> str:
    lines = ["radius\tmax_divergence\twitness_g_nf\twitness_s"]
    for row in table.rows:
        g_nf, s = _witness_cells(system, row.witness)
        lines.append(f"{row.radius}\t{row.max_divergence}\t{g_nf}\t{s}")
    return "\n".join(lines) + "\n"


def divergence_text(table: DivergenceTable, system: CoxeterSystem) -> str:
    lines = []
    for row in table.rows:
        g_nf, s = _witness_cells(system, row.witness)
        lines.append(f"radius {row.radius}: max divergence {row.max_divergence}"
                     f"  (witness g = {g_nf}, s = {s})")
    return "\n".join(lines) + "\n"


def prop_tsv(report: PropMainReport, system: CoxeterSystem) -> str:
    lines = ["radius\tresidues\tchecks\tfailures",
             f"{report.radius}\t{report.residues}\t{report.checks}\t"
             f"{len(report.failures)}"]
    return "\n".join(lines) + "\n"


def prop_text(report: PropMainReport, system: CoxeterSystem) -> str:
    lines = [f"radius {report.radius}: {report.residues} residues, "
             f"{report.checks} ordered pairs checked"]
    if report.ok:
        lines.append("witnesses found for every pair")
    else:
        for g1, g2, s, t in report.failures[:10]:
            lines.append(
                f"NO WITNESS: g = {system.word_str(g1)}, g' = {system.word_str(g2)}, "
                f"pair = ({system.matrix.names[s]}, {system.matrix.names[t]})")
        lines.append(f"{len(report.failures)} failures")
    return "\n".join(lines) + "\n"
