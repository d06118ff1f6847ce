import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpgroups.cosets import SchreierRewriter, todd_coxeter
from fpgroups.presentations import (
    Presentation,
    PresentationWarning,
    parse_presentation,
    parse_word,
)
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


# The writer before numpy, kept unchanged as an oracle: it walked the
# letters one at a time into (name, signed exponent) syllables.


def _syllables(w: Word):
    """Runs of equal letters as (generator name, signed exponent)."""
    ls = w.letters
    i = 0
    while i < len(ls):
        j = i
        while j < len(ls) and ls[j] == ls[i]:
            j += 1
        name = w.alphabet.names[abs(ls[i]) - 1]
        yield name, (j - i) * (1 if ls[i] > 0 else -1)
        i = j


def _reference_text(w: Word) -> str:
    """Canonical text form: space-joined syllables, '^' powers."""
    parts = []
    for name, e in _syllables(w):
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)


def _reference_reduce(letters) -> tuple[int, ...]:
    """The stack pass of Word.reduce."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def test_syllables_and_text():
    w = Word(AB, [1, 1, -2, -2, -2, 1])
    assert list(_syllables(w)) == [("a", 2), ("b", -3), ("a", 1)]
    assert w.text() == _reference_text(w) == "a^2 b^-3 a"
    assert Word.identity(AB).text() == _reference_text(Word.identity(AB)) == ""


# Words drawn as runs of equal letters over names of one to five characters:
# runs of one letter, short runs and very long ones, and the empty word.
LONG = Alphabet(["a", "b1", "alpha", "x_2_y", "Z"])
_RUN_LENGTHS = st.one_of(st.just(1), st.integers(1, 4), st.integers(1, 20_000))
_runs = st.lists(
    st.tuples(st.integers(1, len(LONG)), st.sampled_from([1, -1]), _RUN_LENGTHS), max_size=12
)


def _word(runs) -> Word:
    return Word(LONG, [sign * g for g, sign, k in runs for _ in range(k)])


@settings(max_examples=200, deadline=None)
@given(_runs)
@example([])
@example([(3, -1, 1)])
@example([(1, 1, 20_000), (1, 1, 1), (5, -1, 1), (5, 1, 1)])
def test_text_matches_the_reference_writer(runs):
    w = _word(runs)
    assert w.text() == _reference_text(w)


@settings(max_examples=100, deadline=None)
@given(st.lists(_runs, max_size=4))
@example([[], [(2, 1, 1)]])
def test_to_text_matches_the_reference_writer(relators):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PresentationWarning)  # empty or repeated relators
        p = Presentation(LONG, [_word(runs) for runs in relators])
        assert parse_presentation(p.to_text()) == p
    texts = [_reference_text(r) for r in p.relators]
    head = "< a, b1, alpha, x_2_y, Z |"
    assert p.to_text() == (f"{head} {', '.join(texts)} >" if texts else f"{head} >")
    assert p.to_json()["relators"] == texts


_letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=60)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_letters, _letters.map(_reference_reduce)))
@example([])
@example([1, -1])
@example([1, 2, -2, 2, 1])
def test_reduce_matches_the_stack_pass(letters):
    reduced = _reference_reduce(letters)
    assert Word(AB, letters).is_reduced == (reduced == tuple(letters))
    w = Word(AB, letters)
    r = w.reduce()
    assert r.letters == reduced and r.is_reduced
    assert (r is w) == (reduced == tuple(letters))


def _assert_as_validated(w: Word) -> None:
    """w, made on the trusted path, equals what the checking constructor
    makes of its letters, and is reduced exactly when that word is."""
    v = Word(w.alphabet, w.letters)
    assert type(w.letters) is tuple and all(type(l) is int for l in w.letters)
    assert w == v and w.is_reduced == v.is_reduced


_S4 = parse_presentation("< a, b, c | a^2, b^2, c^2, (a b)^3, (b c)^3, (a c)^2 >")
_S4_REWRITER = SchreierRewriter(_S4, todd_coxeter(_S4, (_S4.word("a"),)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30),
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30),
    st.integers(-3, 3),
    st.integers(0, 11),
)
@example([1, -1, 2], [], -2, 0)
def test_trusted_words_equal_their_validated_construction(u_letters, v_letters, n, start):
    ab = _S4.alphabet
    u, v = Word(ab, u_letters), Word(ab, v_letters)
    inverse = [-l for l in reversed(u_letters)]
    red = u.reduce()
    made = [
        (u.inverse(), Word(ab, inverse)),
        (red.inverse(), Word(ab, _reference_reduce(inverse))),
        (u * v, Word(ab, u_letters + v_letters)),
        (u**n, Word(ab, (u_letters if n > 0 else inverse) * abs(n))),
        (red, Word(ab, _reference_reduce(u_letters))),
    ]
    if u:
        made.append((parse_word(u.text(), ab), u))
    core, conj = u.cyclic_reduce()
    made += [(core, core), (conj, conj), ((conj * core * ~conj).reduce(), red)]
    for got, want in made:
        _assert_as_validated(got)
        assert got == want
    _assert_as_validated(_S4_REWRITER.rewrite(u, start))


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
