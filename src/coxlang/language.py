"""The standard language of a Coxeter system.

Every g has a descent set T(g) generating a finite parabolic; w(g) is the
longest element of that parabolic and Pi(g) = g·w(g) is strictly shorter.
Iterating Pi cuts g into chunks, and the standard language consists of the
geodesic words that spell, suffix-first, a reduced word of each successive
chunk.  Membership, the canonical representative, chunk enumeration, and
two executable lemma checks live here.
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

    Kept on the element.  The Pi chain is walked down to the identity or
    to an element whose word is known, and the words are filled in on
    the way back up.
    """
    chain, cur, identity = [], g, g.system.identity
    while cur._canonical is None and cur is not identity:
        chain.append(cur)
        cur = descent_data(cur)[2]
    word = cur._canonical or ()
    for el in reversed(chain):
        word = el._canonical = word + el._descent[1].nf
    return word


MAX_REDUCED_WORDS = 200_000


def reduced_words(system: CoxeterSystem, T) -> tuple[Word, ...]:
    """Every reduced word of w0(T), sorted; kept on the system per T.

    They are the maximal chains from the identity in the weak order of
    W_T (Björner & Brenti 2005, Ch. 3), walked one letter per level with
    the ascents in increasing order, so each level is in lex order.  Every
    prefix extends to a word, so a level over MAX_REDUCED_WORDS raises.
    """
    T = frozenset(T)
    words = system._reduced_words.get(T)
    if words is None:
        ts, level = sorted(T), [((), system.identity)]
        for _ in range(system.longest_element(T).length):
            level = [(word + (t,), system.mul_gen(u, t)) for word, u in level
                     for t in ts if t not in u.right_descents()]
            if len(level) > MAX_REDUCED_WORDS:
                names = ",".join(system.matrix.names[t] for t in ts)
                raise ResourceLimitError(f"w0({{{names}}}) has more than "
                                         f"{MAX_REDUCED_WORDS} reduced words")
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


def check_append_lemma(g: Element, T) -> tuple[bool, bool]:
    """Both sides of the descent-set append criterion.

    lhs: appending w0(T) to g yields an element with descent set exactly T.
    rhs: T is disjoint from T(g), and for every t outside T the wall dual
    to the edge (g·w0, g·w0·t) avoids the wall set of g.
    Equivalence of the two is the tested lemma.
    """
    from .walls import conjugate_wall, wall_of_generator, wall_set

    system = g.system
    T = frozenset(T)
    w0 = system.longest_element(T)
    gw = system.mul_word(g, w0.nf)
    lhs = gw.right_descents() == T
    if T & g.right_descents():
        return lhs, False
    Wg = wall_set(g)
    for t in range(system.n):
        if t in T:
            continue
        if conjugate_wall(gw, wall_of_generator(system, t)) in Wg:
            return lhs, False
    return lhs, True


def _pi_chain(g: Element, steps: int) -> list[Element]:
    """[g, Pi(g), ..., Pi^steps(g)], saturating at the identity."""
    chain = [g]
    for _ in range(steps):
        chain.append(descent_data(chain[-1])[2])
    return chain


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
    return _witness(g, g_prime, _finite_pairs(system))


def _witness(g: Element, g_prime: Element, pairs):
    """`check_prop_main` without its precondition checks, over the given
    spherical pairs."""
    system = g.system
    chain_g = _pi_chain(g, 3)
    chain_gp = _pi_chain(g_prime, 3)
    for total in range(1, 7):
        for k in range(min(3, total), -1, -1):
            kp = total - k
            if kp > 3:
                continue
            x, y = chain_g[k], chain_gp[kp]
            for p, r in pairs:
                if system.in_residue(y, x, {p, r}):
                    return k, kp, p, r
    return None
