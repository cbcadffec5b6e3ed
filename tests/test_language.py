"""Standard language: descent data, chunks, membership, word enumeration.

The exhaustive ball tests characterize the language exactly: a reduced
word is accepted precisely when it lies in the enumerated language of its
element, so membership, enumeration, and the chunk decomposition are
checked against each other on every element of the ball.
"""

import pytest

from coxlang import (InvariantViolation, PreconditionError,
                     ResourceLimitError, canonical_word, check_append_lemma,
                     check_prop_main, chunk_decomposition, descent_data,
                     is_in_standard_language, language, language_words,
                     parse_system, reduced_words)
from conftest import GROUPS, diagram, path_edges
from oracles import braid_closure, tits_reduce

SHIPPED = sorted(path.name for path in GROUPS.glob("*.cox"))


def test_descent_data_example(fig1):
    g = fig1.element("strst")
    T, w, pi = descent_data(g)
    assert T == frozenset({0, 1})
    assert w == fig1.element("st")
    assert pi == fig1.element("str")
    assert pi * w == g


def test_pi_is_the_gate_of_the_descent_residue(fig1, a3tilde, h237, ball):
    """Pi(g) = g·w(g), formed by generator steps, equals the dense product,
    the gate of g<T(g)>, and the rewriting oracle's reduced word."""
    for system, radius in ((fig1, 6), (a3tilde, 5), (h237, 6)):
        for g in ball(system, radius):
            T, w, pi = descent_data(g)
            assert pi.mat == system._mat_mul(g.mat, w.mat)
            assert pi == system.residue_gate(g, T)
            assert pi.nf == tits_reduce(system, g.nf + w.nf, max_letters=12)


def test_descent_data_identity(fig1):
    T, w, pi = descent_data(fig1.identity)
    assert T == frozenset()
    assert w.is_identity() and pi.is_identity()


def test_chunk_decomposition_example(fig1):
    chunks = chunk_decomposition(fig1.element("strst"))
    data = [(sorted(c.parabolic), fig1.word_str(c.longest.nf),
             fig1.word_str(c.remainder.nf)) for c in chunks]
    assert data == [([0, 1], "st", "str"),
                    ([2], "r", "st"),
                    ([0, 1], "st", "e")]
    assert chunk_decomposition(fig1.identity) == ()


def test_canonical_word_examples(fig1):
    assert fig1.word_str(canonical_word(fig1.element("strst"))) == "strst"
    assert fig1.word_str(canonical_word(fig1.element("sts"))) == "t"
    assert canonical_word(fig1.identity) == ()


def test_canonical_word_can_differ_from_shortlex(fig1):
    # the shortlex-least reduced word is not always in the language
    g = fig1.element("strsr")
    assert fig1.word_str(g.nf) == "strsr"
    assert fig1.word_str(canonical_word(g)) == "tsrsr"
    assert not is_in_standard_language(fig1, "strsr")


def test_membership_examples(fig1):
    assert is_in_standard_language(fig1, "strst")
    assert is_in_standard_language(fig1, "tsrts")
    assert is_in_standard_language(fig1, "")
    assert not is_in_standard_language(fig1, "ss")
    assert not is_in_standard_language(fig1, "sts")
    assert not is_in_standard_language(fig1, "strsr")


def test_language_words_examples(fig1):
    words = language_words(fig1.element("strst"))
    assert {fig1.word_str(w) for w in words} == \
        {"strst", "strts", "tsrst", "tsrts"}
    assert words == tuple(sorted(words))
    words = language_words(fig1.element("strsr"))
    assert {fig1.word_str(w) for w in words} == {"tsrsr", "trsrs"}
    assert language_words(fig1.identity) == ((),)


def test_language_words_cap(fig1):
    with pytest.raises(ResourceLimitError):
        language_words(fig1.element("strst"), max_words=3)


def test_exhaustive_language_characterization(fig1, a3tilde, ball):
    for system, radius in ((fig1, 6), (a3tilde, 5)):
        for g in ball(system, radius):
            words = set(language_words(g))
            canon = canonical_word(g)
            assert canon in words
            assert len(canon) == g.length
            assert system.element(canon) == g
            for w in braid_closure(system, g.nf):
                assert is_in_standard_language(system, w) == (w in words)


def test_chunks_telescope(fig1, ball):
    for g in ball(fig1, 6):
        chunks = chunk_decomposition(g)
        assert sum(c.longest.length for c in chunks) == g.length
        rebuilt = fig1.identity
        for c in reversed(chunks):
            rebuilt = rebuilt * c.longest
        assert rebuilt == g
        for c in chunks:
            assert c.longest == fig1.longest_element(c.parabolic)


def test_append_lemma_examples(fig1):
    assert check_append_lemma(fig1.identity, {0}) == (True, True)
    assert check_append_lemma(fig1.generator(0), {0}) == (False, False)


def test_append_lemma_scan(fig1, a3tilde, ball):
    import itertools
    for system, radius in ((fig1, 4), (a3tilde, 3)):
        finite_T = [T for size in range(system.n + 1)
                    for T in itertools.combinations(range(system.n), size)
                    if system.is_finite_parabolic(T)]
        for g in ball(system, radius):
            for T in finite_T:
                lhs, rhs = check_append_lemma(g, frozenset(T))
                assert lhs == rhs


def test_prop_main_example(fig1):
    g = fig1.element("strst")
    assert check_prop_main(g, g, 0, 0) == (1, 0, 0, 1)
    found = check_prop_main(g, fig1.element("str"), 0, 1)
    assert found is not None
    k, kp, p, r = found
    assert 0 <= k <= 3 and 0 <= kp <= 3 and k + kp > 0


def test_prop_main_preconditions(fig1, a3tilde, dinf):
    g3 = a3tilde.element("pr")
    with pytest.raises(PreconditionError):
        check_prop_main(g3, g3, 0, 1)
    a = dinf.generator(0)
    with pytest.raises(PreconditionError):
        check_prop_main(a, a, 0, 1)
    with pytest.raises(PreconditionError):
        check_prop_main(fig1.element("st"), fig1.element("r"), 0, 1)


def test_membership_accepts_string_or_tuple(fig1):
    assert is_in_standard_language(fig1, (0, 1)) == \
        is_in_standard_language(fig1, "st")


def _check_reduced_words(system, T):
    """reduced_words(T) is the sorted braid closure of nf(w0(T)), each word
    spells w0(T) in l(w0(T)) letters, and the table is kept per T."""
    words = reduced_words(system, T)
    w0 = system.longest_element(T)
    assert words == tuple(sorted(braid_closure(system, w0.nf)))
    assert all(len(u) == w0.length and system.element(u) is w0
               for u in words)
    assert reduced_words(system, set(T)) is words
    return len(words)


@pytest.mark.parametrize("fname", SHIPPED)
def test_reduced_words_of_every_spherical_subset(fname):
    system = parse_system((GROUPS / fname).read_text())
    for T in system.spherical_subsets():
        _check_reduced_words(system, T)


@pytest.mark.parametrize("rank,edges,count", [
    (4, path_edges([3, 3, 3]), 768),                  # A4
    (3, path_edges([3, 4]), 42),                      # B3
    (4, {(0, 1): 3, (0, 2): 3, (0, 3): 3}, 2316),     # D4
    (3, path_edges([5, 3]), 286),                     # H3
    (4, path_edges([3, 3, 4]), 24024),                # B4
], ids=["A4", "B3", "D4", "H3", "B4"])
def test_reduced_words_of_w0_count(rank, edges, count):
    """The maximal chains of the weak order are the reduced words of w0,
    in the numbers known for these types (Stanley 1984)."""
    assert _check_reduced_words(diagram(rank, edges), range(rank)) == count


def test_reduced_words_cap(monkeypatch):
    """A walk that would pass the cap raises and keeps nothing; one that
    reaches it exactly does not raise."""
    system = diagram(4, path_edges([3, 3, 3]))
    monkeypatch.setattr(language, "MAX_REDUCED_WORDS", 767)
    with pytest.raises(ResourceLimitError, match="767"):
        reduced_words(system, range(4))
    monkeypatch.setattr(language, "MAX_REDUCED_WORDS", 768)
    assert len(reduced_words(system, range(4))) == 768
