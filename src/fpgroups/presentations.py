"""Finite presentations: grammar, direct products, and a catalog of test groups.

Text grammar (UTF-8, `#` starts a line comment):

    presentation := "<" gens "|" rels ">"
    gens         := NAME ("," NAME)*
    rels         := [ rel ("," rel)* ]
    rel          := word | word "=" word          -- sugar for u v^-1
    word         := term ("*"? term)*
    term         := atom ("^" INT)?
    atom         := NAME | "(" word ")" | "[" word "," word "]"

`[u,v]` abbreviates u v u^-1 v^-1; INT may be negative (`t^-1`).  Brackets
nest at most 100 deep; deeper input is a ParseError.  All words of one parse
together expand to at most Budget.max_letters letters; a power, commutator or
product past that cap raises BudgetExhausted before allocation.
JSON alternative: {"generators": ["a", ...], "relators": ["a^2", ...]}.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

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
# tokenizer / parser

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
        letters = self._letters_of_term()
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


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a single word (same grammar as relators) over a known alphabet."""
    p = _Parser(text, alphabet)
    w = p.word()
    p.expect("eof")
    return w


def parse_presentation(text: str) -> "Presentation":
    """Parse `< gens | relators >` text; `#` comments allowed."""
    return _Parser(text).presentation()


# ---------------------------------------------------------------------------
# the Presentation value


class Presentation:
    """An alphabet plus a tuple of freely reduced, nonempty relators.

    Relators reducing to the empty word are dropped with a warning; duplicate
    relators are kept but flagged (counts matter to the constructions).
    """

    __slots__ = ("alphabet", "relators")

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

    def to_text(self) -> str:
        gens = ", ".join(self.alphabet.names)
        rels = ", ".join(r.text() for r in self.relators)
        return f"< {gens} | {rels} >" if rels else f"< {gens} | >"

    def to_json(self) -> dict:
        return {
            "generators": list(self.alphabet.names),
            "relators": [r.text() for r in self.relators],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Presentation":
        if not d["generators"]:
            raise ValueError("a presentation needs at least one generator")
        alphabet = Alphabet(d["generators"])
        p = _Parser("", alphabet)  # one letter cap for all the relators
        relators = []
        for text in d["relators"]:
            p.toks, p.pos = _tokenize(text), 0
            relators.append(p.word())
            p.expect("eof")
        return cls(alphabet, relators)

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


def proper_power_root(w: Word) -> tuple[Word, int]:
    """(root, k) with the cyclic core of w equal to root^k, k maximal."""
    core, _ = w.cyclic_reduce()
    ls = core.letters
    n = len(ls)
    for d in range(1, n + 1):
        if n % d == 0 and ls == ls[:d] * (n // d):
            return Word(w.alphabet, ls[:d], _reduced=True), n // d
    return core, 1  # empty core only


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
    if len(set(names)) != len(names):  # pragma: no cover - suffixes keep sides apart
        raise WordError(f"suffix renaming collided: {names}")
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
