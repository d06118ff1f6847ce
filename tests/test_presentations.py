import json
import signal
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpgroups.budget import Budget, BudgetExhausted
from fpgroups import presentations
from fpgroups.cancellation import _cyclic_words
from fpgroups.construct import rips, uce
from fpgroups.presentations import (
    CatalogError,
    ParseError,
    Presentation,
    PresentationWarning,
    catalog,
    direct_product,
    load_presentation,
    parse_presentation,
    parse_word,
)
from fpgroups.words import Alphabet, Word, WordError
from fpgroups.zlattice import AbelianInvariants, abelianization


def test_parse_basic():
    p = parse_presentation("< a, b | a^2, b^3, (a b)^5 >")
    assert p.generators == ("a", "b")
    assert len(p.relators) == 3
    assert p.relators[0].letters == (1, 1)
    assert p.relators[2].letters == (1, 2) * 5


def test_parse_free_and_comments():
    p = parse_presentation("# rank-one free group\n< a | >  # no relators\n")
    assert p.generators == ("a",)
    assert p.relators == ()


def test_parse_negative_powers_and_star():
    p = parse_presentation("< a, t | a^25, t^-1 * a * t * a^-6 >")
    assert p.relators[1].letters == (-2, 1, 2) + (-1,) * 6


def test_parse_commutator_and_equation_sugar():
    with pytest.warns(PresentationWarning, match="duplicate"):
        p = parse_presentation("< a, b | [a, b], a b = b a >")
    assert p.relators[0].letters == (1, 2, -1, -2)
    # u = v becomes u v^-1 and freely reduces
    assert p.relators[1].letters == (1, 2, -1, -2)


def test_parse_nested_and_powered_atoms():
    p = parse_presentation("< a, b | ([a, b^2])^-1, (a (b a)^2)^3 >")
    w = p.relators[0]
    u = p.word("[a, b^2]")
    assert w == u.inverse().reduce()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_presentation("< a, b | a^2, c >")
    assert "unknown generator 'c'" in str(ei.value)
    assert ei.value.line == 1 and ei.value.col == 15
    with pytest.raises(ParseError):
        parse_presentation("< a | a^ >")
    with pytest.raises(ParseError):
        parse_presentation("< a | (a >")
    with pytest.raises(ParseError):
        parse_presentation("a | a")
    with pytest.raises(ParseError):
        parse_presentation("< a | a > junk")
    with pytest.raises(ParseError):
        parse_presentation("< a | a $ >")


def test_power_expansion_capped_by_letter_budget():
    # refused before the expansion is allocated, at the default 2M-letter cap
    with pytest.raises(BudgetExhausted, match="letter cap"):
        parse_presentation("< a | a^99999999999 >")
    with pytest.raises(BudgetExhausted, match="letter cap"):
        load_presentation("< a, b | ([a, b]^999)^-999 >")
    with pytest.raises(BudgetExhausted, match="letter cap"):
        parse_presentation("< a, b | [a^999999, b^999999] >")
    # the cap covers concatenation, `u = v` and all relators together
    p = parse_presentation("< a | (a^999)^999 (a^999)^-999 a >")
    assert len(p.relators[0]) == 1
    for text in (
        "< a | " + " ".join(["(a^999)^999"] * 3) + " >",
        "< a | (a^999)^999 (a^999)^999 = (a^999)^-999 >",
        "< a | " + ", ".join(["(a^999)^999"] * 3) + " >",
        json.dumps({"generators": ["a"], "relators": ["(a^999)^999"] * 3}),
    ):
        with pytest.raises(BudgetExhausted, match="letter cap"):
            load_presentation(text)


def test_a_lone_generator_counts_against_the_letter_cap():
    # the first relator fills the cap; a word of one bare name is one over
    d = {"generators": ["a"], "relators": ["(a^1000)^2000", "a"]}
    with pytest.raises(BudgetExhausted) as ei:
        Presentation.from_json(d)
    assert str(ei.value) == (
        "line 1, col 1: expansion to 2000001 letters exceeds the 2000000-letter cap"
    )
    assert _outcome(Presentation.from_json, d) == _outcome(_reference_from_json, d)
    with pytest.raises(BudgetExhausted, match="2000001 letters"):
        parse_presentation("< a | (a^1000)^2000, a >")


def test_parse_word_standalone():
    ab = Alphabet(["x", "y"])
    assert parse_word("x y^-2 (x y)^2", ab).letters == (1, -2, -2, 1, 2, 1, 2)
    with pytest.raises(ParseError):
        parse_word("x z", ab)


def test_empty_relator_dropped_with_warning():
    ab = Alphabet(["a"])
    a = ab.gen("a")
    with pytest.warns(PresentationWarning, match="empty"):
        p = Presentation(ab, [a * ~a, a])
    assert len(p.relators) == 1


def test_duplicate_relator_flagged_but_kept():
    ab = Alphabet(["a"])
    a = ab.gen("a")
    with pytest.warns(PresentationWarning, match="duplicate"):
        p = Presentation(ab, [a**2, a**2])
    assert len(p.relators) == 2


def test_serialize_roundtrip():
    for text in [
        "< a, b | a^2, b^3, (a b)^5 >",
        "< a, t | a^25, t^-1 a t a^-6 >",
        "< x1, x2 | >",
        "< a, b, alpha, beta | b a^-2 b^-1 a^3, [b a b^-1, a] beta^-1 >",
    ]:
        p = parse_presentation(text)
        assert parse_presentation(p.to_text()) == p
        # JSON form round-trips too
        assert Presentation.from_json(json.loads(json.dumps(p.to_json()))) == p
        assert load_presentation(json.dumps(p.to_json())) == p
        assert load_presentation(p.to_text()) == p


def test_relator_texts_are_built_once_per_presentation():
    # the file and the report of a written presentation share the texts
    p = parse_presentation("< a, b | a^2, b^3, (a b)^5 >")
    real = Word.text
    with mock.patch.object(Word, "text", autospec=True, side_effect=real) as text:
        assert p.to_text() == "< a, b | a^2, b^3, a b a b a b a b a b >"
        assert p.to_json()["relators"] == ["a^2", "b^3", "a b a b a b a b a b"]
        assert p.to_text() == "< a, b | a^2, b^3, a b a b a b a b a b >"
    assert text.call_count == 3


def symmetrize(p: Presentation) -> dict[Word, int]:
    """The symmetrized set as the piece checker builds it: every rotation of
    every rotation class, mapped to the class's source relator."""
    words = _cyclic_words(p, Budget.start())[0]
    return {
        Word(p.alphabet, w.letters[k:] + w.letters[:k], _reduced=True): w.source
        for w in words
        for k in range(len(w.letters))
    }


def test_symmetrize_counts():
    p = parse_presentation("< a, b | [a, b] >")
    s = symmetrize(p)
    assert len(s) == 8
    p2 = parse_presentation("< a | a^3 >")
    assert len(symmetrize(p2)) == 2
    assert len(symmetrize(Presentation.free(["a"]))) == 0


def test_symmetrize_closure_and_origin():
    p = parse_presentation("< a, b | a b a^-1 b, a^4 >")
    s = symmetrize(p)
    for w in s:
        assert s[w] in (0, 1)
        ls = w.letters
        assert w.is_reduced and (len(ls) == 1 or ls[0] != -ls[-1])  # cyclically reduced
        # closed under inversion and rotation
        assert ~w in s
        assert Word(p.alphabet, ls[1:] + ls[:1]) in s
        # same length as the source relator, which is cyclically reduced
        assert len(w) == len(p.relators[s[w]])


def test_symmetrize_idempotent():
    p = parse_presentation("< a, b | a b a^-1 b^-1, a^3 >")
    s1 = symmetrize(p)
    p2 = Presentation(p.alphabet, list(s1))
    s2 = symmetrize(p2)
    assert set(s1) == set(s2)


def test_direct_product_counts_and_abelianization():
    p = parse_presentation("< a | a^2 >")
    q = parse_presentation("< b | b^3 >")
    d = direct_product(p, q)
    assert d.generators == ("a_1", "b_2")
    assert len(d.relators) == 3
    assert abelianization(d) == AbelianInvariants(0, (6,))


def test_direct_product_free_rank_one_squared():
    f = Presentation.free(["x"])
    d = direct_product(f, f)
    assert d.generators == ("x_1", "x_2")
    assert len(d.relators) == 1
    assert d.relators[0].letters == (1, 2, -1, -2)
    assert abelianization(d) == AbelianInvariants(2)


def test_direct_product_commutator_count():
    p = parse_presentation("< a, b | a^2 >")
    q = parse_presentation("< x, y, z | x y >")
    d = direct_product(p, q)
    assert len(d.generators) == 5
    assert len(d.relators) == 1 + 1 + 2 * 3


def test_catalog_bp():
    e = catalog("Bp", [2])
    assert e.presentation.generators == ("a", "b", "alpha", "beta")
    texts = [r.text() for r in e.presentation.relators]
    assert texts[0] == "b a^-2 b^-1 a^3"
    assert texts[1] == "beta alpha^-2 beta^-1 alpha^3"
    assert texts[2] == "b a b^-1 a b a^-1 b^-1 a^-1 beta^-1"
    assert texts[3] == "beta alpha beta^-1 alpha beta alpha^-1 beta^-1 alpha^-1 b^-1"
    for p_ in range(2, 11):
        assert abelianization(catalog("Bp", [p_]).presentation).is_trivial
    # bit-identical regeneration
    assert catalog("Bp", [2]) == catalog("Bp", [2])


def test_catalog_baumslag25():
    e1 = catalog("baumslag25", [1]).presentation
    e2 = catalog("baumslag25", [2]).presentation
    assert e1.relators[1].text() == "t^-1 a t a^-6"
    assert e2.relators[1].text() == "t^-1 a t a^-11"  # 6^2 = 36 = 11 mod 25
    assert abelianization(e1) == abelianization(e2) == AbelianInvariants(1, (5,))


def test_catalog_a5_free_cyclic():
    a5 = catalog("A5", []).presentation
    assert a5.to_text() == "< a, b | a^2, b^3, a b a b a b a b a b >"
    assert abelianization(a5).is_trivial
    assert catalog("free", [3]).presentation.generators == ("x1", "x2", "x3")
    assert abelianization(catalog("cyclic", [12]).presentation) == AbelianInvariants(0, (12,))


def test_catalog_errors():
    with pytest.raises(CatalogError):
        catalog("nope", [])
    with pytest.raises(CatalogError):
        catalog("Bp", [1])
    with pytest.raises(CatalogError):
        catalog("Bp", [])
    with pytest.raises(CatalogError):
        catalog("free", [0])
    with pytest.raises(CatalogError):
        catalog("baumslag25", [0])


def test_non_decimal_digit_is_an_unexpected_character():
    # the lexer used to take any str.isdigit character into an exponent, and
    # int() then raised a bare ValueError with no position
    for text, col in (("< a | a^² >", 9), ("< a | a^2² >", 10), ("< a | a^-² >", 9)):
        with pytest.raises(ParseError) as ei:
            parse_presentation(text)
        assert str(ei.value) == f"line 1, col {col}: unexpected character {text[col - 1]!r}"
        assert (ei.value.line, ei.value.col) == (1, col)
    # the decimal digits of other scripts are what int() reads
    assert parse_presentation("< a | a^٣ >").relators[0].letters == (1, 1, 1)


# ---------------------------------------------------------------------------
# The parser before the regex scan, kept unchanged as an oracle: it walked
# the text one character at a time into one _Tok per token.

_SYMBOLS = set("<>|,^()[]=*")
_MAX_NESTING = 100  # '(' and '[' levels; the parser recurses once per level


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'name' | 'int' | one of _SYMBOLS | 'eof'
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c in _SYMBOLS:
            toks.append(_Tok(c, c, line, start_col))
            i += 1
            col += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet | None = None):
        self.toks = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.spent = 0  # letters of the words finished so far
        self.depth = 0  # open '(' and '[' around the current token

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            got = t.value or "end of input"
            raise ParseError(f"expected {kind!r}, got {got!r}", t.line, t.col)
        return t

    def fail(self, message: str) -> None:
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    # -- words ------------------------------------------------------------

    def _room(self, letters: int, t: _Tok) -> None:
        """Refuse a word past the default letter cap (no caller sets another)."""
        if self.spent + letters > Budget.max_letters:
            raise BudgetExhausted(
                f"line {t.line}, col {t.col}: expansion to {self.spent + letters} "
                f"letters exceeds the {Budget.max_letters}-letter cap"
            )

    def _letters_of_atom(self) -> list[int]:
        t = self.peek()
        if t.kind == "name":
            self.next()
            assert self.alphabet is not None
            if t.value not in self.alphabet:
                raise ParseError(f"unknown generator {t.value!r}", t.line, t.col)
            return [self.alphabet.index(t.value) + 1]
        if t.kind not in ("(", "["):
            self.fail(f"expected a generator, '(' or '[', got {t.value or 'end of input'!r}")
        if self.depth == _MAX_NESTING:
            raise ParseError(f"brackets nested deeper than {_MAX_NESTING} levels", t.line, t.col)
        self.next()
        self.depth += 1
        u = self._letters_of_word()
        if t.kind == "(":
            self.expect(")")
            self.depth -= 1
            return u
        self.expect(",")
        v = self._letters_of_word()
        self.expect("]")
        self.depth -= 1
        self._room(2 * (len(u) + len(v)), t)
        return u + v + [-x for x in reversed(u)] + [-x for x in reversed(v)]

    def _letters_of_term(self) -> list[int]:
        base = self._letters_of_atom()
        if self.peek().kind == "^":
            self.next()
            t = self.expect("int")
            e = int(t.value)
            self._room(len(base) * abs(e), t)
            if e >= 0:
                return base * e
            return [-x for x in reversed(base)] * (-e)
        return base

    def _starts_atom(self) -> bool:
        return self.peek().kind in ("name", "(", "[")

    def _letters_of_word(self) -> list[int]:
        if not self._starts_atom():
            self.fail("expected a word")
        t = self.peek()
        letters = self._letters_of_term()
        self._room(len(letters), t)
        while True:
            if self.peek().kind == "*":
                self.next()
                if not self._starts_atom():
                    self.fail("expected a term after '*'")
            if not self._starts_atom():
                return letters
            t = self.peek()
            term = self._letters_of_term()
            self._room(len(letters) + len(term), t)
            letters += term

    def word(self) -> Word:
        assert self.alphabet is not None
        letters = self._letters_of_word()
        self.spent += len(letters)
        return Word(self.alphabet, letters)

    # -- presentations -----------------------------------------------------

    def presentation(self) -> "Presentation":
        self.expect("<")
        names = [self.expect("name").value]
        while self.peek().kind == ",":
            self.next()
            names.append(self.expect("name").value)
        t = self.peek()
        try:
            self.alphabet = Alphabet(names)
        except WordError as e:
            raise ParseError(str(e), t.line, t.col) from None
        self.expect("|")
        relators: list[Word] = []
        if self.peek().kind != ">":
            relators.append(self._relator())
            while self.peek().kind == ",":
                self.next()
                relators.append(self._relator())
        self.expect(">")
        self.expect("eof")
        return Presentation(self.alphabet, relators)

    def _relator(self) -> Word:
        u = self.word()
        if self.peek().kind == "=":
            self.next()
            v = self.word()
            return u * v.inverse()
        return u


def _reference_parse_presentation(text: str) -> Presentation:
    return _Parser(text).presentation()


def _reference_parse_word(text: str, alphabet: Alphabet) -> Word:
    p = _Parser(text, alphabet)
    w = p.word()
    p.expect("eof")
    return w


def _reference_from_json(d: dict) -> Presentation:
    if not d["generators"]:
        raise ValueError("a presentation needs at least one generator")
    alphabet = Alphabet(d["generators"])
    p = _Parser("", alphabet)  # one letter cap for all the relators
    relators = []
    for text in d["relators"]:
        p.toks, p.pos = _tokenize(text), 0
        relators.append(p.word())
        p.expect("eof")
    return Presentation(alphabet, relators)


def _outcome(parse, *args):
    """What a parse gives: its value, or the error with its exact text."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return parse(*args)
        except ParseError as e:
            return ("ParseError", str(e), e.line, e.col)
        except BudgetExhausted as e:
            return ("BudgetExhausted", str(e))


# Generated text has no non-decimal digit: those lex differently on purpose
# (test_non_decimal_digit_is_an_unexpected_character).  Words are mostly
# well formed, with tabs, `\r`, comments and `*` between terms, nesting up to
# 103 levels and powers past the letter cap; then up to two noise pieces are
# spliced in anywhere, so that every error can occur at any position.
_GENS = ["a", "b", "a_1", "ab"]
_NOISE = [
    "<", ">", "|", ",", "^", "(", ")", "[", "]", "=", "*", "-", "#", "$", "_", "é",
    "ß", "x9", "3", "-1", "\x0b", "\n", "\t", "\r", " # c\n", "# c",
]
_GAP = st.sampled_from(["", " ", "  ", "\t", "\r", "\n", " # c\n", "*", " * "])
_EXPONENT = st.sampled_from(["2", "-1", "-3", "0", "12", "-999", "999", "99999999999"])
_words = st.recursive(
    st.sampled_from(_GENS * 3 + ["é", "c"]),
    lambda w: st.one_of(
        w.map(lambda u: f"({u})"),
        st.tuples(w, w).map(lambda uv: f"[{uv[0]}, {uv[1]}]"),
        st.tuples(w, _EXPONENT).map(lambda ue: f"{ue[0]}^{ue[1]}"),
        st.tuples(w, _GAP, w).map("".join),
        st.tuples(st.integers(97, 103), w).map(lambda ku: "(" * ku[0] + ku[1] + ")" * ku[0]),
    ),
    max_leaves=6,
)


def _noisy(texts):
    def splice(args):
        text, pieces = args
        for at, piece in pieces:
            at %= len(text) + 1
            text = text[:at] + piece + text[at:]
        return text

    pieces = st.lists(st.tuples(st.integers(0, 999), st.sampled_from(_NOISE)), max_size=2)
    return st.tuples(texts, pieces).map(splice)


_relators = st.lists(
    st.one_of(_words, st.tuples(_words, _words).map(lambda uv: f"{uv[0]} = {uv[1]}")), max_size=3
).map(", ".join)
_texts = st.one_of(
    st.text("<>|,^()[]=*-# \n\t\rabéß_0123456789", max_size=24),
    _noisy(st.builds(
        lambda head, body, tail: head + body + tail,
        st.sampled_from(["< a, b, a_1, ab | ", "<a,b,a_1,ab|", "<\ta , b,a_1,ab\r\n|"] * 2
                        + ["< a, é | "]),
        _relators,
        st.sampled_from([" >", ">", " > # no newline after", ">\n# last line", ">  \n", ""]),
    )),
)


@settings(max_examples=400, deadline=None)
@given(_texts)
@example("< a | a > # end")
@example("< a, b | " + "(" * 101 + "a" + ")" * 101 + " >")
@example("< a | " + ", ".join(["(a^999)^999"] * 3) + " >")
@example("< a | a^99999999999 $ >")
@example("< a, b | [a^999999, b^999999] >")
@example("< a | c $\n\t >")
def test_parse_presentation_matches_the_reference(text):
    assert _outcome(parse_presentation, text) == _outcome(_reference_parse_presentation, text)


@settings(max_examples=300, deadline=None)
@given(_noisy(_words))
@example("a b^-1 # end")
@example("a\r\n\t* [b, a_1]^-2")
@example("é")
def test_parse_word_matches_the_reference(text):
    ab = Alphabet(_GENS)
    assert _outcome(parse_word, text, ab) == _outcome(_reference_parse_word, text, ab)


@settings(max_examples=200, deadline=None)
@given(st.lists(_noisy(_words), max_size=3))
@example(["(a^999)^999"] * 3)
@example(["a^2", "b $"])
def test_json_form_matches_the_reference(relators):
    d = {"generators": _GENS, "relators": relators}
    assert _outcome(Presentation.from_json, d) == _outcome(_reference_from_json, d)


# ---------------------------------------------------------------------------
# Run tokens: a run of syllables `x` or `x^k` joined by single spaces, the
# form Word.text writes, is one token.  A text with runs parses as it does
# without them, errors included: every outcome is compared with the parse
# whose scan has no runs (_PLAIN in place of _TOKEN) and, where the reference
# can read the text at all, with the reference.  The reference hands an
# exponent of more than 4,300 digits or with a non-decimal digit to int(),
# which raises a bare ValueError; the run-free parse reports both.

_LONG_EXPONENT = "9" * 4301
_SYLLABLES = st.one_of(
    st.sampled_from(_GENS),
    st.tuples(
        st.sampled_from(_GENS),
        st.sampled_from(["2", "-1", "-3", "0", "12", "-999", "999999", "-999999"]),
    ).map("^".join),
)
# Faults spliced into a run: an unknown generator, a long exponent, a
# non-decimal digit, a double power, a `^` with no exponent, and a detached
# `^` after a space, a newline or a comment.
_RUN_FAULTS = [
    "c", "é", f"a^{_LONG_EXPONENT}", f"b^-{_LONG_EXPONENT}", "a^2²", "b^2^3", "a^", "a^-",
    "a ^2", "b\n^-1", "a # c\n^3", "ab^٣",
]


def _spliced(args):
    syllables, faults = args
    for at, fault in faults:
        syllables.insert(at % (len(syllables) + 1), fault)
    return " ".join(syllables)


_runs = st.tuples(
    st.lists(_SYLLABLES, min_size=1, max_size=40),
    st.lists(st.tuples(st.integers(0, 99), st.sampled_from(_RUN_FAULTS)), max_size=2),
).map(_spliced)
_run_words = st.tuples(
    _runs, st.sampled_from(["", " ^2", " # c\n^-2", "\n^3", "^2", " * a", " = b a"])
).map("".join)
_run_texts = st.builds(
    lambda head, body, tail: head + body + tail,
    st.sampled_from(["< a, b, a_1, ab | ", "< a b, a_1 | ", "< a, b a_1 ab | ", "<a,b,a_1,ab|"]),
    st.lists(st.one_of(_run_words, _words), max_size=4).map(", ".join),
    st.sampled_from([" >", ">", " > # end", ""]),
)


def _without_runs(parse, *args):
    """The outcome of parse when the scan reads no runs."""
    with mock.patch.object(presentations, "_TOKEN", presentations._PLAIN):
        return _outcome(parse, *args)


def _matches_without_runs_and_the_reference(texts, parse, reference, *args):
    """parse(*args), which reads texts, gives what it gives without runs and,
    unless a text holds a non-decimal digit (the reference's tokenizer reads
    those into exponents) or int() refuses an exponent, what the reference
    gives."""
    got = _outcome(parse, *args)
    assert got == _without_runs(parse, *args)
    if any(c.isdigit() and not c.isdecimal() for text in texts for c in text):
        return
    try:
        expected = _outcome(reference, *args)
    except ValueError:  # int() refused a 4,301-digit exponent
        return
    assert got == expected


@settings(max_examples=120, deadline=None)
@given(_run_texts)
@example("< a, b | a b c ^2 >")
@example("< a, b | a b # c\n^2 >")
@example("< a, b | b^2^3 >")
@example("< a b | a >")
@example(f"< a, b | a b c a^{_LONG_EXPONENT} b >")
@example(f"< a, b | a b a^{_LONG_EXPONENT} b >")
@example("< a, b | a b^2² a >")
@example("< a, b | a^999999 b^999999 a^999999 b >")
@example("< a, b | (a^999)^999, a^999 b^999 a^9 b^-9 a^99999 b >")
def test_runs_parse_as_without_them(text):
    _matches_without_runs_and_the_reference(
        [text], parse_presentation, _reference_parse_presentation, text
    )


@settings(max_examples=80, deadline=None)
@given(_run_words)
@example("a b^2² a")
@example(f"a b^{_LONG_EXPONENT}")
def test_run_words_parse_as_without_them(text):
    ab = Alphabet(_GENS)
    _matches_without_runs_and_the_reference([text], parse_word, _reference_parse_word, text, ab)


@settings(max_examples=40, deadline=None)
@given(st.lists(_run_words, max_size=3))
@example(["(a^999)^999", "a^999 b^999 a^999"])
@example(["a^999999 b^999999", "a b^2 a"])
def test_run_json_form_parses_as_without_them(relators):
    d = {"generators": _GENS, "relators": relators}
    _matches_without_runs_and_the_reference(relators, Presentation.from_json, _reference_from_json, d)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_run_texts, _texts))
@example("< a | a^2² a >")
def test_a_run_token_stands_for_its_plain_tokens(text):
    plain = []
    for t in presentations._TOKEN.findall(text):
        plain += presentations._PLAIN.findall(t)[:-1] if t else [t]
    assert plain == presentations._PLAIN.findall(text)


def test_run_tokens_and_their_errors():
    lex = presentations._TOKEN.findall
    assert lex("a b c ^2") == ["a b", "c", "^", "2", ""]
    assert lex("a b # c\n^2") == ["a", "b", "^", "2", ""]
    assert lex("b^2^3") == ["b", "^", "2", "^", "3", ""]
    assert lex("a^2²") == ["a", "^", "2", "²", ""]
    assert lex("x^-3 ab^12 c, d") == ["x^-3 ab^12 c", ",", "d", ""]
    # a detached `^` powers the last syllable alone, as it does without runs
    assert parse_presentation("< a, b, c | a b c ^2 >").relators[0].letters == (1, 2, 3, 3)
    assert parse_presentation("< a, b | a b # c\n^-2 >").relators[0].letters == (1, -2, -2)
    for text, error in (
        ("< a, b | b^2^3 >", "line 1, col 13: expected '>', got '^'"),
        ("< a b | a >", "line 1, col 5: expected '|', got 'b'"),
        (f"< a, b | a b a^{_LONG_EXPONENT} b >", "line 1, col 16: exponent has more than 4300 digits"),
        ("< a, b | a b^2² a >", "line 1, col 15: unexpected character '²'"),
        ("< a, b | a b c a >", "line 1, col 14: unknown generator 'c'"),
    ):
        with pytest.raises(ParseError) as ei:
            parse_presentation(text)
        assert str(ei.value) == error
    with pytest.raises(BudgetExhausted) as ei:
        parse_presentation("< a, b | a^999999 b^999999 a^999999 b >")
    assert str(ei.value) == (
        "line 1, col 28: expansion to 2999997 letters exceeds the 2000000-letter cap"
    )


@contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError inside the block once seconds have passed, so a
    lexer that backtracks without end fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"not done in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("comment", [
    "#" * 400,
    "# " * 200,
    "#" * 200 + " x^2 " + "#" * 200,
    "# x^2",
], ids=["banner", "spaced", "power-inside", "short"])
def test_a_run_before_a_comment_lexes_in_linear_time(comment):
    # the look past a run for `^` reads each comment one way only: a comment
    # of k `#` must not be tried in 2^k splits, nor end before a `^` in it
    for text in (f"< a, b | a b   {comment}\n>", f"< a, b | a b {comment}\n^2 >"):
        with _deadline(2.0):
            toks = presentations._TOKEN.findall(text)
            got = _outcome(parse_presentation, text)
        assert _without_runs(parse_presentation, text) == got
        plain = []
        for t in toks:
            plain += presentations._PLAIN.findall(t)[:-1] if t else [t]
        assert plain == presentations._PLAIN.findall(text)
        assert ("a b" in toks) == text.endswith("\n>")  # a run only where no `^` follows


def test_written_constructions_read_back():
    gamma = rips(catalog("Bp", [2]).presentation, 7, zero_exponent=True).gamma
    tilde = uce(catalog("A5", []).presentation).tilde
    for p in (gamma, tilde):
        assert parse_presentation(p.to_text()) == p
        assert load_presentation(json.dumps(p.to_json())) == p
