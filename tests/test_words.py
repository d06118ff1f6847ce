import random

import pytest

from fpgroups.words import (
    Alphabet,
    Word,
    WordError,
    commutator,
)

AB = Alphabet(["a", "b"])
a = AB.gen("a")
b = AB.gen("b")


def rand_word(rng, alphabet, max_len=40):
    n = len(alphabet)
    k = rng.randrange(max_len + 1)
    return Word(alphabet, [rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(k)])


def test_alphabet_rejects_bad_names():
    with pytest.raises(WordError):
        Alphabet(["a", "2x"])
    with pytest.raises(WordError):
        Alphabet(["a", "a"])
    with pytest.raises(WordError):
        Alphabet(["a b"])


def test_letter_range_checked():
    with pytest.raises(WordError):
        Word(AB, [3])
    with pytest.raises(WordError):
        Word(AB, [0])


def test_alphabets_never_mix():
    other = Alphabet(["a", "c"])
    with pytest.raises(WordError):
        a * other.gen("a")


def test_reduce_basic():
    w = a * b * ~b * ~a * a
    assert w.reduce() == a
    assert Word.identity(AB).reduce() == Word.identity(AB)
    # already-reduced words come back as-is
    r = (a * b).reduce()
    assert r.reduce() is r


def test_cyclic_reduce_example():
    # a b a^-1 a b a^-1  ->  core b b, conjugator a
    w = Word(AB, [1, 2, -1, 1, 2, -1])
    core, conj = w.cyclic_reduce()
    assert core == Word(AB, [2, 2])
    assert conj == a
    assert (conj * core * ~conj).reduce() == w.reduce()


def test_cyclic_reduce_leaves_single_letter():
    core, conj = a.cyclic_reduce()
    assert core == a and len(conj) == 0
    # conjugate of a single letter
    w = b * a * ~b
    core, conj = w.cyclic_reduce()
    assert core == a and conj == b


def test_pow_and_inverse():
    assert (a**3).letters == (1, 1, 1)
    assert (a**-2).letters == (-1, -1)
    assert (a * b).inverse().letters == (-2, -1)
    assert (~(a * b)).letters == (-2, -1)
    assert (a**0) == Word.identity(AB)


def test_exponent_vector_and_sum():
    w = a * b * ~a * b * b
    assert w.exponent_vector() == [0, 3]


def test_syllables_and_text():
    w = Word(AB, [1, 1, -2, -2, -2, 1])
    assert list(w.syllables()) == [("a", 2), ("b", -3), ("a", 1)]
    assert w.text() == "a^2 b^-3 a"
    assert Word.identity(AB).text() == ""


def test_commutator():
    c = commutator(a, b)
    assert c.letters == (1, 2, -1, -2)
    assert c.exponent_vector() == [0, 0]


def test_reduction_properties_random():
    rng = random.Random(11)
    for _ in range(500):
        w = rand_word(rng, AB)
        r = w.reduce()
        assert r.is_reduced
        assert r.reduce() == r
        # length parity is invariant under reduction
        assert (len(w) - len(r)) % 2 == 0
        # exponent sums are invariant
        assert w.exponent_vector() == r.exponent_vector()
        # w * w^-1 reduces to the identity
        assert (w * ~w).reduce() == Word.identity(AB)
        # double inverse
        assert (~(~w)) == w


def test_cyclic_reduce_properties_random():
    rng = random.Random(13)
    for _ in range(500):
        w = rand_word(rng, AB)
        core, conj = w.cyclic_reduce()
        assert core.is_reduced
        ls = core.letters
        if ls:
            assert ls[0] != -ls[-1] or len(ls) == 1
        assert (conj * core * ~conj).reduce() == w.reduce()
