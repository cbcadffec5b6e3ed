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
                     is_in_standard_language, language_words)


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
            assert pi.nf == system.tits_reduce(g.nf + w.nf, max_letters=12)


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
            for w in system.braid_closure(g.nf):
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
