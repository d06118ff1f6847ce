"""Words in free groups.

A word is a finite sequence of letters x^(+-1) over a fixed alphabet of
generator names.  Letters are stored as nonzero signed integers: +(i+1) is
generator i, -(i+1) its inverse, so inversion is "negate and reverse" and
free reduction is a single stack pass.

Words from different alphabets never mix: every binary operation checks that
both operands resolve against equal alphabets.
"""

from __future__ import annotations

import functools
import re
from operator import eq, neg
from operator import index as _as_int
from typing import Iterable, Iterator

import numpy as np

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class WordError(ValueError):
    """Alphabet mismatch or malformed letter data."""


class Alphabet:
    """An ordered tuple of distinct generator names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for n in names:
            if not _NAME_RE.match(n):
                raise WordError(f"bad generator name {n!r}")
        if len(set(names)) != len(names):
            raise WordError(f"duplicate generator names in {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise WordError(f"unknown generator {name!r}") from None

    def gen(self, name: str) -> "Word":
        """The length-1 word for a generator."""
        return Word(self, (self.index(name) + 1,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({', '.join(self.names)})"


def _check_same(a: Alphabet, b: Alphabet) -> None:
    if a != b:
        raise WordError(f"alphabet mismatch: {a!r} vs {b!r}")


class Word:
    """An immutable word; equality is letter-for-letter (not group equality).

    Use reduce for the freely reduced form.
    """

    __slots__ = ("alphabet", "letters", "_reduced")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = (), *, _reduced: bool = False):
        letters = tuple(letters)
        n = len(alphabet)
        if letters:
            # validated with C-speed passes; constructions routinely make
            # words of 10^5+ letters, so no per-letter Python loop here
            try:
                letters = tuple(map(_as_int, letters))
            except TypeError:
                bad = next(l for l in letters if not isinstance(l, int))
                raise WordError(f"letter {bad!r} out of range for {alphabet!r}") from None
            if 0 in letters or min(letters) < -n or max(letters) > n:
                bad = next(l for l in letters if l == 0 or abs(l) > n)
                raise WordError(f"letter {bad!r} out of range for {alphabet!r}")
        self.alphabet = alphabet
        self.letters = letters
        self._reduced = _reduced

    @classmethod
    def _trusted(
        cls, alphabet: Alphabet, letters: tuple[int, ...], reduced: bool = False
    ) -> "Word":
        """A word on letters the program made over this alphabet: a tuple of
        ints, nonzero and within range, taken as it is.  Words from outside
        go through Word(alphabet, letters), which checks every letter."""
        w = object.__new__(cls)
        w.alphabet, w.letters, w._reduced = alphabet, letters, reduced
        return w

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Word":
        return cls(alphabet, (), _reduced=True)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.letters))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        _check_same(self.alphabet, other.alphabet)
        return Word._trusted(self.alphabet, self.letters + other.letters)

    def inverse(self) -> "Word":
        letters = tuple(map(neg, reversed(self.letters)))
        return Word._trusted(self.alphabet, letters, self._reduced)

    __invert__ = inverse

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word.identity(self.alphabet)
        base = self if n > 0 else self.inverse()
        return Word._trusted(self.alphabet, base.letters * abs(n))

    @property
    def is_reduced(self) -> bool:
        if not self._reduced:
            ls = self.letters
            self._reduced = not any(map(eq, ls[1:], map(neg, ls)))
        return self._reduced

    def reduce(self) -> "Word":
        """Freely reduced form (cancel adjacent x x^-1 pairs).  A reduced
        word, found with one C-speed pass, comes back as it is."""
        if self.is_reduced:
            return self
        out: list[int] = []
        for l in self.letters:
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
        return Word._trusted(self.alphabet, tuple(out), True)

    def exponent_vector(self) -> list[int]:
        """Exponent sums for every generator, in alphabet order."""
        v = [0] * len(self.alphabet)
        for l in self.letters:
            v[abs(l) - 1] += 1 if l > 0 else -1
        return v

    def text(self) -> str:
        """Canonical text form: one syllable per run of equal letters, `x`
        or `x^e` with e the run's signed length, joined by single spaces.
        numpy finds the runs: padded with the non-letter 0, the word changes
        letter at the start of each run and once past its end.  Each distinct
        (letter, run length) is spelled once."""
        names = self.alphabet.names

        @functools.cache
        def syllable(letter: int, run: int) -> str:
            name = names[abs(letter) - 1]
            if letter < 0:
                return f"{name}^{-run}"
            return name if run == 1 else f"{name}^{run}"

        ls = np.array((0, *self.letters, 0))
        edges = np.flatnonzero(ls[1:] != ls[:-1])
        heads = ls[edges[:-1] + 1].tolist()
        return " ".join(map(syllable, heads, np.diff(edges).tolist()))

    def __repr__(self) -> str:
        return f"<word {self.text() or '1'}>"


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1, not reduced."""
    _check_same(u.alphabet, v.alphabet)
    return u * v * u.inverse() * v.inverse()

