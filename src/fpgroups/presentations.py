"""Finite presentations: grammar, direct products, and a catalog of test groups.

Text grammar (UTF-8, `#` starts a line comment):

    presentation := "<" gens "|" rels ">"
    gens         := NAME ("," NAME)*
    rels         := [ rel ("," rel)* ]
    rel          := word | word "=" word          -- sugar for u v^-1
    word         := term ("*"? term)*
    term         := atom ("^" INT)?
    atom         := NAME | "(" word ")" | "[" word "," word "]"

NAME is a letter followed by letters, digits or `_`; Alphabet further
limits generator names to ASCII.  INT is an optional `-` followed by decimal
digits (`t^-1`), at most 4,300 of them, the most int() reads by default;
a longer one is a ParseError.  `[u,v]` abbreviates u v u^-1 v^-1.  Brackets
nest at most 100 deep; deeper input is a ParseError.  All words of one parse
together expand to at most Budget.max_letters letters; a power, commutator
or product past that cap raises BudgetExhausted before allocation.
JSON alternative: {"generators": ["a", ...], "relators": ["a^2", ...]}.

The lexer reads a run of syllables `x` or `x^k` joined by single spaces, the
form to_text writes, as one token, which the parser expands in one step from
a memo of syllable letters.  A run means what its terms mean one by one.  A
text that fails to parse with run tokens is parsed again without them, so
errors, lines and columns are those of the token-by-token reading.
"""

from __future__ import annotations

import functools
import json
import re
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Sequence, TypeVar

from .budget import Budget, BudgetExhausted
from .words import Alphabet, Word, WordError, commutator


class PresentationWarning(UserWarning):
    """Degenerate but legal input: empty or duplicate relators."""


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokens and parser

# One scan of the whole text yields the token strings.  Whitespace and
# comments match outside the group and drop out, `.` catches any other
# character as a token of its own, and `\Z` gives the empty token that ends
# the list (twice when the text ends in whitespace or a comment).  NAME's
# first class also admits numeric characters that are not letters, such as
# '½'; the parser reads those, like the catch-all's, as unexpected characters.
#
# _TOKEN also reads a run of syllables `NAME(^INT)?` joined by single spaces,
# the form Word.text writes, as one token, and the parser expands it as one
# atom.  A run ends where neither a word character nor a `^` follows, a `^`
# after whitespace and comments included; where one would, the match backs
# off to a shorter run or to the plain tokens, so `a b c ^2` gives `a b`,
# `c`, `^`, `2`, and `b^2^3` gives five tokens.  A run stands for its plain
# tokens read as juxtaposed terms, so a text that parses with runs gives the
# letters it gives without them.  A text that fails, and that _PLAIN (the
# same scan without runs) splits differently, is read again with _PLAIN from
# the letter count it started at; that reading's error, line and column are
# the ones raised.  Backing off inside a syllable costs one step a place,
# since a shorter syllable is followed by a word character or by `^`.  In the
# lookahead a comment runs to the end of its line, so the gap splits into
# pieces one way only and a failed look for `^` is linear in the gap.
_GAP = r"(?:[ \t\r\n]|#[^\n]*)*"
_AHEAD_GAP = r"(?:[ \t\r\n]|#[^\n]*(?![^\n]))*"
_NAME = r"[^\W\d_]\w*"
_SYLLABLE = r"[^\W\d_]\w*(?:\^-?\d+)?"
_RUN = rf"{_SYLLABLE}(?: {_SYLLABLE})*(?!\w|{_AHEAD_GAP}\^)"
_OTHER = r"-?\d+|[<>|,^()\[\]=*]|.|\Z"
_PLAIN = re.compile(rf"{_GAP}({_NAME}|{_OTHER})")
_TOKEN = re.compile(rf"{_GAP}({_RUN}|{_NAME}|{_OTHER})")
_SYMBOLS = frozenset("<>|,^()[]=*")
_OPENERS = frozenset("([")
_MAX_NESTING = 100  # '(' and '[' levels; the parser recurses once per level
_MAX_DIGITS = 4300  # int() refuses longer digit strings by default
_T = TypeVar("_T")


def _kind(tok: str) -> str:
    """A token's kind, read off its first character: 'name', 'int', 'eof'
    (the empty token that ends every list), the symbol itself, or '' for an
    unexpected character."""
    if tok in _SYMBOLS:
        return tok
    if not tok:
        return "eof"
    c = tok[0]
    if c.isalpha():
        return "name"
    if c.isdecimal() or (c == "-" and len(tok) > 1):
        return "int"
    return ""


class _Parser:
    """Recursive descent over the token strings of one text at a time; the
    letter count `spent` runs on across the texts one parser reads."""

    def __init__(self, alphabet: Alphabet | None = None):
        self.alphabet = alphabet
        self.spent = 0  # letters of the words finished so far
        self.expansions = functools.cache(self._syllable)  # syllable text -> its letters

    def parse(self, text: str, rule: Callable[[], _T]) -> _T:
        """rule() over the whole of text, read with run tokens and, should
        that fail, again without them (see _TOKEN)."""
        spent = self.spent
        try:
            return self._read(text, rule, _TOKEN)
        except (ParseError, BudgetExhausted):
            if _PLAIN.findall(text) == self.toks:
                raise
        self.spent = spent
        return self._read(text, rule, _PLAIN)

    def _read(self, text: str, rule: Callable[[], _T], lexer: re.Pattern) -> _T:
        self.text = text
        self.lexer = lexer
        self.toks = lexer.findall(text)
        self.pos = 0
        self.depth = 0  # open '(' and '[' around the current token
        result = rule()
        self.expect("eof")
        return result

    # -- errors -------------------------------------------------------------

    def _position(self, i: int) -> tuple[int, int]:
        """Line and column of token i, found by scanning the text again.  An
        unexpected character anywhere in the text outranks every other error,
        so it is raised here, at its own position."""
        for j, t in enumerate(self.toks):
            if not _kind(t):
                raise ParseError(f"unexpected character {t[0]!r}", *self._locate(j))
        return self._locate(i)

    def _locate(self, i: int) -> tuple[int, int]:
        text = self.text
        o = next(islice(self.lexer.finditer(text), i, None)).start(1)
        start = text.rfind("\n", 0, o) + 1
        if o == len(text) and "#" in text[start:]:
            o = text.index("#", start)  # a comment takes no columns
        return text.count("\n", 0, o) + 1, o - start + 1

    def error(self, message: str, i: int | None = None) -> ParseError:
        """A ParseError at token i, by default the current one."""
        return ParseError(message, *self._position(self.pos if i is None else i))

    def expect(self, kind: str) -> str:
        t = self.toks[self.pos]
        if _kind(t) != kind:
            raise self.error(f"expected {kind!r}, got {t or 'end of input'!r}")
        self.pos += 1
        return t

    # -- words ------------------------------------------------------------

    def _room(self, letters: int, i: int) -> None:
        """Refuse a word past the default letter cap (no caller sets another)."""
        if self.spent + letters > Budget.max_letters:
            line, col = self._position(i)
            raise BudgetExhausted(
                f"line {line}, col {col}: expansion to {self.spent + letters} "
                f"letters exceeds the {Budget.max_letters}-letter cap"
            )

    def _starts_atom(self) -> bool:
        t = self.toks[self.pos]
        return t in _OPENERS or t[:1].isalpha()

    def _syllable(self, syllable: str) -> tuple[int, ...]:
        """The letters of `name` or `name^int`, a syllable of the token just
        read; the digit and letter caps are checked before allocation."""
        name, _, exponent = syllable.partition("^")
        letter = self.alphabet.index(name) + 1
        if not exponent:
            return (letter,)
        i = self.pos - 1
        if len(exponent.lstrip("-")) > _MAX_DIGITS:
            raise self.error(f"exponent has more than {_MAX_DIGITS} digits", i)
        e = int(exponent)
        self._room(abs(e), i)
        return (letter,) * e if e >= 0 else (-letter,) * -e

    def _letters_of_atom(self) -> list[int]:
        """The atom at the current token, which _starts_atom has accepted."""
        i = self.pos
        t = self.toks[i]
        self.pos += 1
        if t not in _OPENERS:
            try:
                syllables = list(map(self.expansions, t.split()))
            except WordError:
                raise self.error(f"unknown generator {t!r}", i) from None
            if " " in t or "^" in t:  # a run: one check for all its letters
                self._room(sum(map(len, syllables)), i)
            return list(chain.from_iterable(syllables))
        if self.depth == _MAX_NESTING:
            raise self.error(f"brackets nested deeper than {_MAX_NESTING} levels", i)
        self.depth += 1
        u = self._letters_of_word()
        if t == "(":
            self.expect(")")
            self.depth -= 1
            return u
        self.expect(",")
        v = self._letters_of_word()
        self.expect("]")
        self.depth -= 1
        self._room(2 * (len(u) + len(v)), i)
        return u + v + [-x for x in reversed(u)] + [-x for x in reversed(v)]

    def _letters_of_term(self) -> list[int]:
        base = self._letters_of_atom()
        if self.toks[self.pos] != "^":
            return base
        self.pos += 1
        i = self.pos
        t = self.expect("int")
        if len(t.lstrip("-")) > _MAX_DIGITS:
            raise self.error(f"exponent has more than {_MAX_DIGITS} digits", i)
        e = int(t)
        self._room(len(base) * abs(e), i)
        if e >= 0:
            return base * e
        return [-x for x in reversed(base)] * (-e)

    def _letters_of_word(self) -> list[int]:
        if not self._starts_atom():
            raise self.error("expected a word")
        i = self.pos
        letters = self._letters_of_term()
        self._room(len(letters), i)  # a lone name is checked nowhere else
        while True:
            if self.toks[self.pos] == "*":
                self.pos += 1
                if not self._starts_atom():
                    raise self.error("expected a term after '*'")
            if not self._starts_atom():
                return letters
            i = self.pos
            term = self._letters_of_term()
            self._room(len(letters) + len(term), i)
            letters += term

    def word(self) -> Word:
        letters = self._letters_of_word()
        self.spent += len(letters)
        return Word._trusted(self.alphabet, tuple(letters))

    # -- presentations -----------------------------------------------------

    def relators(self) -> list[Word]:
        """`< gens | rels >`: sets the alphabet and returns the relators."""
        self.expect("<")
        names = [self.expect("name")]
        while self.toks[self.pos] == ",":
            self.pos += 1
            names.append(self.expect("name"))
        try:
            self.alphabet = Alphabet(names)
        except WordError as e:
            raise self.error(str(e)) from None
        self.expect("|")
        relators: list[Word] = []
        if self.toks[self.pos] != ">":
            relators.append(self._relator())
            while self.toks[self.pos] == ",":
                self.pos += 1
                relators.append(self._relator())
        self.expect(">")
        return relators

    def _relator(self) -> Word:
        u = self.word()
        if self.toks[self.pos] == "=":
            self.pos += 1
            v = self.word()
            return u * v.inverse()
        return u


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a single word (same grammar as relators) over a known alphabet."""
    p = _Parser(alphabet)
    return p.parse(text, p.word)


def parse_presentation(text: str) -> "Presentation":
    """Parse `< gens | relators >` text; `#` comments allowed."""
    p = _Parser()
    relators = p.parse(text, p.relators)
    return Presentation(p.alphabet, relators)


# ---------------------------------------------------------------------------
# the Presentation value


class Presentation:
    """An alphabet plus a tuple of freely reduced, nonempty relators.

    Relators reducing to the empty word are dropped with a warning; duplicate
    relators are kept but flagged (counts matter to the constructions).
    The relators' texts are built on first use and kept, so a presentation
    written to a file and to a report spells each relator once.
    """

    __slots__ = ("alphabet", "relators", "_texts")

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word] = ()):
        kept: list[Word] = []
        seen: set[tuple[int, ...]] = set()
        for i, r in enumerate(relators):
            if r.alphabet != alphabet:
                raise WordError(f"relator {i} is over a different alphabet")
            r = r.reduce()
            if not r:
                warnings.warn(f"dropping relator {i}: freely reduces to the empty word",
                              PresentationWarning, stacklevel=2)
                continue
            if r.letters in seen:
                warnings.warn(f"duplicate relator {r.text()!r} kept",
                              PresentationWarning, stacklevel=2)
            seen.add(r.letters)
            kept.append(r)
        self.alphabet = alphabet
        self.relators = tuple(kept)
        self._texts: tuple[str, ...] | None = None

    @classmethod
    def free(cls, names: Sequence[str]) -> "Presentation":
        return cls(Alphabet(names))

    # -- conveniences -------------------------------------------------------

    @property
    def generators(self) -> tuple[str, ...]:
        return self.alphabet.names

    def gen(self, name: str) -> Word:
        return self.alphabet.gen(name)

    def word(self, text: str) -> Word:
        return parse_word(text, self.alphabet)

    def max_relator_length(self) -> int:
        return max((len(r) for r in self.relators), default=0)

    def total_relator_length(self) -> int:
        return sum(len(r) for r in self.relators)

    # -- serialization ------------------------------------------------------

    def _relator_texts(self) -> tuple[str, ...]:
        if self._texts is None:
            self._texts = tuple(r.text() for r in self.relators)
        return self._texts

    def to_text(self) -> str:
        gens = ", ".join(self.alphabet.names)
        rels = ", ".join(self._relator_texts())
        return f"< {gens} | {rels} >" if rels else f"< {gens} | >"

    def to_json(self) -> dict:
        return {
            "generators": list(self.alphabet.names),
            "relators": list(self._relator_texts()),
        }

    @classmethod
    def from_json(cls, d: dict) -> "Presentation":
        if not d["generators"]:
            raise ValueError("a presentation needs at least one generator")
        alphabet = Alphabet(d["generators"])
        p = _Parser(alphabet)  # one letter count for all the relators
        return cls(alphabet, [p.parse(text, p.word) for text in d["relators"]])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Presentation)
            and self.alphabet == other.alphabet
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.relators))

    def __repr__(self) -> str:
        return f"<presentation {self.to_text()}>"


def load_presentation(text: str) -> Presentation:
    """Accept either grammar text or the JSON form (sniffed on first '{')."""
    if text.lstrip().startswith("{"):
        try:
            return Presentation.from_json(json.loads(text))
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed JSON presentation: {e!r}") from None
    return parse_presentation(text)


# ---------------------------------------------------------------------------
# direct products


def _reletter(w: Word, target: Alphabet, index_map: Sequence[int]) -> Word:
    """Transport w to `target`, sending source generator i to target generator
    index_map[i].  Pure renaming: no reduction needed."""
    ls = tuple(
        (index_map[abs(l) - 1] + 1) * (1 if l > 0 else -1) for l in w.letters
    )
    return Word(target, ls, _reduced=w.is_reduced)


def direct_product(p: Presentation, q: Presentation) -> Presentation:
    """Generators renamed g -> g_1 / g_2; relators R_p, R_q, then the
    commutators [x_1, y_2] in (p-generator major, q-generator minor) order."""
    names = [f"{n}_1" for n in p.alphabet.names] + [f"{n}_2" for n in q.alphabet.names]
    ab = Alphabet(names)
    np_ = len(p.alphabet)
    pmap = list(range(np_))
    qmap = [np_ + i for i in range(len(q.alphabet))]
    relators = [_reletter(r, ab, pmap) for r in p.relators]
    relators += [_reletter(r, ab, qmap) for r in q.relators]
    for i in range(np_):
        x = Word(ab, (i + 1,), _reduced=True)
        for j in range(len(q.alphabet)):
            y = Word(ab, (np_ + j + 1,), _reduced=True)
            relators.append(commutator(x, y))
    return Presentation(ab, relators)


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: tuple[int, ...]
    presentation: Presentation
    notes: str


class CatalogError(ValueError):
    pass


def catalog(name: str, params: Sequence[int] = ()) -> CatalogEntry:
    """Named test groups; regenerating with equal parameters is bit-identical.

    Bp p          four-generator perfect aspherical family (p >= 2)
    baumslag25 k  metacyclic Z/25-by-Z pair member, conjugation exponent 6^k mod 25
    A5            alternating group on 5 points, (2,3,5) triangle quotient
    free n        free group of rank n
    cyclic n      cyclic group of order n
    """
    params = tuple(int(x) for x in params)

    def need(k: int):
        if len(params) != k:
            raise CatalogError(f"{name!r} takes {k} parameter(s), got {len(params)}")

    if name == "Bp":
        need(1)
        p = params[0]
        if p < 2:
            raise CatalogError("Bp requires p >= 2")
        text = (
            f"< a, b, alpha, beta | "
            f"b a^-{p} b^-1 a^{p + 1}, "
            f"beta alpha^-{p} beta^-1 alpha^{p + 1}, "
            f"[b a b^-1, a] beta^-1, "
            f"[beta alpha beta^-1, alpha] b^-1 >"
        )
        notes = (
            "Perfect four-generator group with an aspherical presentation; "
            "admits no nontrivial finite quotients."
        )
        return CatalogEntry(name, params, parse_presentation(text), notes)

    if name == "baumslag25":
        need(1)
        k = params[0]
        if k < 1:
            raise CatalogError("baumslag25 requires variant k >= 1")
        e = pow(6, k, 25)
        text = f"< a, t | a^25, t^-1 a t a^-{e} >"
        notes = (
            f"Z/25 extended by Z, stable letter conjugating by multiplication "
            f"by {e} = 6^{k} mod 25."
        )
        return CatalogEntry(name, params, parse_presentation(text), notes)

    if name == "A5":
        need(0)
        text = "< a, b | a^2, b^3, (a b)^5 >"
        return CatalogEntry(name, params, parse_presentation(text),
                            "Alternating group of order 60 as a (2,3,5) triangle quotient.")

    if name == "free":
        need(1)
        n = params[0]
        if n < 1:
            raise CatalogError("free requires n >= 1")
        pres = Presentation.free([f"x{i + 1}" for i in range(n)])
        return CatalogEntry(name, params, pres, f"Free group of rank {n}.")

    if name == "cyclic":
        need(1)
        n = params[0]
        if n < 1:
            raise CatalogError("cyclic requires n >= 1")
        return CatalogEntry(name, params, parse_presentation(f"< a | a^{n} >"),
                            f"Cyclic group of order {n}.")

    raise CatalogError(f"unknown catalog name {name!r}")
