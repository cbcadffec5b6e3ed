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

import itertools
from dataclasses import dataclass

from .core import DEFAULT_BALL_CAP, CoxeterSystem, Element, Word
from .errors import PreconditionError
from .language import (DEFAULT_WORD_CAP, _finite_pairs, canonical_word,
                       check_prop_main, language_words)

Witness = tuple[Word, int]


@dataclass(frozen=True)
class FtReport:
    radius: int
    k: int
    max_ii: int
    max_iii: int
    witness_ii: Witness | None
    witness_iii: Witness | None
    two_dimensional: bool
    bound_ok: bool | None
    words: str


@dataclass(frozen=True)
class DivergenceRow:
    radius: int
    max_divergence: int
    witness: Witness | None


@dataclass(frozen=True)
class DivergenceTable:
    rows: tuple[DivergenceRow, ...]


@dataclass(frozen=True)
class PropMainReport:
    radius: int
    residues: int
    checks: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def k_constant(system: CoxeterSystem) -> int:
    """Max chunk length: the longest w0 over finite standard parabolics."""
    best = 0
    for size in range(1, system.n + 1):
        for T in itertools.combinations(range(system.n), size):
            if system.is_finite_parabolic(T):
                best = max(best, system.longest_element(T).length)
    return best


def _pair_value(system: CoxeterSystem, v: Word, vp: Word, s) -> int:
    """max over i >= 1 of l(v(i)^-1 [s] vp(i)), prefixes saturating.

    The difference element is updated by one generator step on each side
    per i.  Elements are interned, and each keeps its steps and normal
    form, so a difference element met before costs two lookups per i.  On
    A~3 it takes only a few hundred values over a whole scan.
    """
    d = system.identity if s is None else system.generator(s)
    best = 0
    for i in range(max(len(v), len(vp))):
        if i < len(v):
            d = system.gen_mul(v[i], d)
        if i < len(vp):
            d = system.mul_gen(d, vp[i])
        best = max(best, d.length)
    return best


def ft_pair_divergence(g: Element, g_prime: Element, mode: str, s: int) -> int:
    """Worst prefix distance between the canonical words of g and g'.

    mode "right" compares v(i) with v'(i) for g' = g·s; mode "left"
    compares s·v(i) with v'(i) for g' = s·g.  Requires l(g') > l(g).
    """
    system = g.system
    if mode == "right":
        if s in g.right_descents() or g_prime != system.mul_gen(g, s):
            raise PreconditionError("need g' = g·s with l(g·s) > l(g)")
        shift = None
    elif mode == "left":
        if s in g.left_descents() or g_prime != system.gen_mul(s, g):
            raise PreconditionError("need g' = s·g with l(s·g) > l(g)")
        shift = s
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    return _pair_value(system, canonical_word(g), canonical_word(g_prime), shift)


def _better(value: int, wit: Witness, best: int, best_wit: Witness | None) -> bool:
    if value != best:
        return value > best
    return best_wit is None or wit < best_wit


def _ascent_values(system, ball, sides, words, max_words) -> dict:
    """Per side, (l(g), value, (nf(g), s)) for g in the ball and each ascent s.

    Side "right" compares g with g·s; side "left" compares g with s·g,
    shifting the prefixes of g by s.  In "all" mode the value is the worst
    over every pair of standard-language words, else that of the canonical
    words.
    """
    if words == "all":
        def value(g, gp, shift):
            return max(_pair_value(system, v, vp, shift)
                       for v in language_words(g, max_words)
                       for vp in language_words(gp, max_words))
    else:
        def value(g, gp, shift):
            return _pair_value(system, canonical_word(g), canonical_word(gp),
                               shift)
    out = {}
    for side in sides:
        right = side == "right"
        entries = out[side] = []
        for g in ball:
            desc = g.right_descents() if right else g.left_descents()
            for s in range(system.n):
                if s not in desc:
                    gp = system.mul_gen(g, s) if right else system.gen_mul(s, g)
                    val = value(g, gp, None if right else s)
                    entries.append((g.length, val, (g.nf, s)))
    return out


def _best(entries, radius: int | None = None) -> tuple[int, Witness | None]:
    """The largest value with l(g) <= radius, least witness among ties."""
    best, wit = 0, None
    for length, val, witness in entries:
        if (radius is None or length <= radius) and _better(val, witness, best, wit):
            best, wit = val, witness
    return best, wit


def ft_scan(system: CoxeterSystem, radius: int, words: str = "canonical",
            max_words: int = DEFAULT_WORD_CAP,
            max_ball: int = DEFAULT_BALL_CAP) -> FtReport:
    """Measure both fellow-traveller quantities over a ball.

    max_ii ranges over g' = g·s (prefixes compared directly); max_iii over
    g' = s·g (prefixes compared across the left factor).  In "all" mode
    every pair of standard-language words is compared, not just the
    canonical ones.
    """
    if words not in ("canonical", "all"):
        raise PreconditionError(f"unknown words mode {words!r}")
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    ball = system.ball(radius, max_ball)
    values = _ascent_values(system, ball, ("right", "left"), words, max_words)
    max_ii, wit_ii = _best(values["right"])
    max_iii, wit_iii = _best(values["left"])
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
    if not radii or any(r < 0 for r in radii):
        raise PreconditionError("radii must be nonnegative")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be strictly increasing")
    ball = system.ball(radii[-1], max_ball)
    entries = _ascent_values(system, ball, ("right",), "canonical",
                             DEFAULT_WORD_CAP)["right"]
    return DivergenceTable(tuple(DivergenceRow(radius, *_best(entries, radius))
                                 for radius in radii))


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
    seen = set()
    failures = []
    residues = 0
    checks = 0
    for g in system.ball(radius, max_ball):
        for s, t in pairs:
            gate = system.residue_gate(g, {s, t})
            key = (gate.nf, s, t)
            if key in seen:
                continue
            seen.add(key)
            residues += 1
            members = [system.mul_word(gate, u.nf)
                       for u in system.parabolic_elements({s, t})]
            for g1 in members:
                if g1.length > radius:
                    continue
                for g2 in members:
                    checks += 1
                    if check_prop_main(g1, g2, s, t) is None:
                        failures.append((g1.nf, g2.nf, s, t))
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
