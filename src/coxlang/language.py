"""The standard language of a Coxeter system.

Every g has a descent set T(g) generating a finite parabolic; w(g) is the
longest element of that parabolic and Pi(g) = g·w(g) is strictly shorter.
Iterating Pi cuts g into chunks, and the standard language consists of the
geodesic words that spell, suffix-first, a reduced word of each successive
chunk.  Membership, the canonical representative, chunk enumeration, and
the residue witness check of the main proposition live here; the append
lemma, which decides the automaton's transitions, lives in `automaton`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import DEFAULT_WORD_CAP, CoxeterSystem, Element, Word
from .errors import InvariantViolation, PreconditionError, ResourceLimitError


class Chunk(NamedTuple):
    """One peeling step: remainder * longest == the element peeled from."""

    parabolic: frozenset[int]
    longest: Element
    remainder: Element


def descent_data(g: Element) -> tuple[frozenset[int], Element, Element]:
    """(T(g), w(g), Pi(g)); the identity yields (empty, id, id).

    Computed once per element and kept on it.
    """
    if g._descent is None:
        system, T = g.system, g.right_descents()
        if not system.is_finite_parabolic(T):
            # contradicts the classification of descent parabolics
            raise InvariantViolation("descent set generates an infinite parabolic")
        w = system.longest_element(T)
        g._descent = T, w, system.mul_word(g, w.nf)
    return g._descent


def chunk_decomposition(g: Element) -> tuple[Chunk, ...]:
    """Chunks of g from the outside in, ending at the identity."""
    chunks = []
    cur = g
    while not cur.is_identity():
        T, w, pi = descent_data(cur)
        chunks.append(Chunk(T, w, pi))
        cur = pi
    return tuple(chunks)


def is_in_standard_language(system: CoxeterSystem, word) -> bool:
    """Whether a word is in the standard language.

    Peels chunks off the suffix: the last l(w(g)) letters must spell a
    reduced word of w(g), and the remaining prefix must be in the language
    for the shorter element.  Only geodesic words can survive the peeling.
    """
    if isinstance(word, str):
        word = system.parse_word(word)
    prefixes = [system.identity]
    for s in word:
        prefixes.append(system.mul_gen(prefixes[-1], s))
    pos = len(word)
    while pos > 0:
        g = prefixes[pos]
        if g.is_identity():
            return False  # nonempty word for the identity is never geodesic
        T, w, pi = descent_data(g)
        k = w.length
        if k > pos:
            return False
        # w is an involution, so prefix⁻¹·g == w exactly when prefix == g·w.
        if prefixes[pos - k] is not pi:
            return False
        pos -= k
    return True


def canonical_word(g: Element) -> Word:
    """The representative spelling each chunk by its ShortLex reduced
    word: canonical(g) = canonical(Pi(g)) + nf(w(g)).

    Kept on g alone.  The Pi chain is walked down to the identity or to
    an element whose word is known, and the chunks' words are joined
    once, so a long element costs memory linear in its length.  A scan
    asks for its ball's words in order of length, so it finds Pi(g)'s
    word kept and takes one step.
    """
    word = g._canonical
    if word is None:
        parts, cur, identity = [], g, g.system.identity
        while cur._canonical is None and cur is not identity:
            _, w, cur = descent_data(cur)
            parts.append(w.nf)
        parts.append(cur._canonical or ())
        word = g._canonical = tuple(
            itertools.chain.from_iterable(reversed(parts)))
    return word


MAX_REDUCED_WORDS = 200_000


def weak_order(system: CoxeterSystem, T) -> tuple[tuple, ...]:
    """The weak order of W_T, one row per length; kept on the system per T.

    Row i lists the elements u of length i, each with the pairs (j, t)
    for which u·t is element j of row i - 1, one generator step each.
    Every u lies below w0(T) (Björner & Brenti 2005, Ch. 3), so row i is
    the set of length-i prefixes of the reduced words of w0(T).
    """
    T = frozenset(T)
    rows = system._weak_orders.get(T)
    if rows is None:
        ts, rows = sorted(T), [((system.identity, ()),)]
        for _ in range(system.longest_element(T).length):
            above = {}
            for j, (u, _) in enumerate(rows[-1]):
                for t in ts:
                    if t not in u.right_descents():
                        above.setdefault(system.mul_gen(u, t), []).append((j, t))
            rows.append(tuple((v, tuple(down)) for v, down in above.items()))
        rows = system._weak_orders[T] = tuple(rows)
    return rows


def reduced_word_count(system: CoxeterSystem, T) -> int:
    """The number of reduced words of w0(T), the maximal chains from the
    identity in `weak_order(system, T)`: row by row, the chains reaching
    u are summed over its pairs (j, t).  No word is formed."""
    chains = (1,)
    for row in weak_order(system, T)[1:]:
        chains = tuple(sum(chains[j] for j, _ in down) for _, down in row)
    return chains[0]


def reduced_words(system: CoxeterSystem, T) -> tuple[Word, ...]:
    """Every reduced word of w0(T), sorted; kept on the system per T.

    They are the maximal chains from the identity in the weak order of
    W_T (Björner & Brenti 2005, Ch. 3), walked one letter per level with
    the ascents in increasing order, so each level is in lex order.  More
    than MAX_REDUCED_WORDS of them raises, from `reduced_word_count`,
    before any word is formed.
    """
    T = frozenset(T)
    words = system._reduced_words.get(T)
    if words is None:
        ts = sorted(T)
        if reduced_word_count(system, T) > MAX_REDUCED_WORDS:
            names = ",".join(system.matrix.names[t] for t in ts)
            raise ResourceLimitError(f"w0({{{names}}}) has more than "
                                     f"{MAX_REDUCED_WORDS} reduced words")
        level = [((), system.identity)]
        for _ in range(system.longest_element(T).length):
            level = [(word + (t,), system.mul_gen(u, t)) for word, u in level
                     for t in ts if t not in u.right_descents()]
        words = system._reduced_words[T] = tuple(word for word, _ in level)
    return words


def language_words(g: Element, max_words: int = DEFAULT_WORD_CAP) -> tuple[Word, ...]:
    """All standard-language words for g, sorted.

    The language words are all concatenations of one reduced word of each
    chunk's w0, read from `reduced_words`.  The words of one w0 have equal
    length, so the product of the sorted tables is already sorted.
    """
    chunk_words = []
    total = 1
    for c in reversed(chunk_decomposition(g)):
        words = reduced_words(g.system, c.parabolic)
        chunk_words.append(words)
        total *= len(words)
        if total > max_words:
            raise ResourceLimitError(
                f"language word count exceeds cap {max_words}")
    return tuple(tuple(itertools.chain.from_iterable(combo))
                 for combo in itertools.product(*chunk_words))


def _finite_pairs(system: CoxeterSystem) -> list[tuple[int, int]]:
    """All (p, r) with p <= r spanning a finite parabolic (p = r allowed)."""
    return sorted((T[0], T[-1]) for T in system.spherical_subsets()
                  if len(T) <= 2)


def check_prop_main(g: Element, g_prime: Element, s: int, t: int):
    """Search for the two-step residue witness connecting g and g'.

    Looks for k, k' in 0..3 with k + k' > 0 and a spherical pair (p, r)
    such that Pi^{k'}(g') lies in the residue Pi^k(g)<p, r>.  Witnesses
    are tried by increasing k + k', largest k first, pairs in index order;
    the first hit is returned as (k, k', p, r), or None.
    """
    system = g.system
    if not system.is_two_dimensional():
        raise PreconditionError("the residue witness search needs a 2-dimensional system")
    if not system.is_finite_parabolic({s, t}):
        raise PreconditionError("the pair (s, t) must span a finite parabolic")
    if not system.in_residue(g_prime, g, {s, t}):
        raise PreconditionError("g' must lie in the residue g<s, t>")
    pairs, signatures = _finite_pairs(system), {}
    return _witness(_gate_chain(g, pairs, signatures),
                    _gate_chain(g_prime, pairs, signatures), pairs)


def _signature(x: Element, pairs, signatures: dict) -> tuple:
    """The gates of x's residues x<p, r>, one per pair, kept in
    `signatures`."""
    sig = signatures.get(x)
    if sig is None:
        gate = x.system.residue_gate
        sig = signatures[x] = tuple(gate(x, pair) for pair in pairs)
    return sig


def _gate_chain(g: Element, pairs, signatures: dict) -> list[tuple]:
    """The signatures of g, Pi(g), Pi^2(g) and Pi^3(g), saturating at the
    identity."""
    chain = [g]
    while len(chain) < 4:
        chain.append(descent_data(chain[-1])[2])
    return [_signature(x, pairs, signatures) for x in chain]


# The (k, k') of the witness search in order: by increasing k + k', and
# the largest k first.
_WITNESS_STEPS = tuple((k, total - k) for total in range(1, 7)
                       for k in range(min(3, total), -1, -1) if total - k <= 3)


def _witness(chain: list[tuple], chain_prime: list[tuple], pairs):
    """`check_prop_main` without its precondition checks, over the given
    spherical pairs, for g and g' given by their `_gate_chain`s.

    Pi^{k'}(g') lies in Pi^k(g)<p, r> exactly when the two have the same
    <p, r>-gate, so a witness test is one identity comparison of two
    signature entries.  A scan keeps one `signatures` dict for all its
    chains, so each element's gates are formed once.
    """
    for k, kp in _WITNESS_STEPS:
        for pair, x, y in zip(pairs, chain[k], chain_prime[kp]):
            if x is y:
                return (k, kp, *pair)
    return None
