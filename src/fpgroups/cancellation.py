"""Metric small cancellation: pieces, C'(1/m) checking, and Dehn's algorithm.

A piece is a common subword occurring at two distinct positions of the
symmetrized relator set, where a position is (cyclic word, offset) — distinct
cyclic words, or the same cyclic word at two different offsets.  The metric
condition C'(1/m) demands |piece| < |r|/m strictly for every piece inside
every symmetrized relator r.

Each relator core and its inverse is canonicalised once (Booth's least
rotation) into deduplicated rotation classes; the checker and the Dehn
solver share that one pass.  Piece search runs on a generalized suffix array
over the doubled cyclic words (so every rotation's subwords are visible) with
per-word unique separators.  A match between two positions is capped at the length of the
shorter participating cyclic word: a longer overlap wraps around that word
and is not a subword of any single rotation of it.

Words of the presented group can be tested for triviality by Dehn's
algorithm once the presentation is verified C'(1/6): Greendlinger's lemma
guarantees every nonempty cyclically reduced word representing the identity
contains more than half of some symmetrized relator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .budget import Budget
from .presentations import Presentation, proper_power_root
from .words import Word


class SmallCancellationError(ValueError):
    """Raised when an operation requires a C' bound the presentation lacks."""


# ---------------------------------------------------------------------------
# rotation classes of the symmetrized set


def _least_rotation_start(s: tuple[int, ...]) -> int:
    """Booth's algorithm: index of the lexicographically least rotation."""
    d = s + s
    n = len(d)
    f = [-1] * n
    k = 0
    for j in range(1, n):
        sj = d[j]
        i = f[j - k - 1]
        while i != -1 and sj != d[k + i + 1]:
            if sj < d[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != d[k + i + 1]:
            if sj < d[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _canon(ls: tuple[int, ...]) -> tuple[int, ...]:
    if not ls:
        return ls
    k = _least_rotation_start(ls)
    return ls[k:] + ls[:k]


@dataclass(frozen=True)
class _CyclicWord:
    """One rotation class of the symmetrized set."""

    letters: tuple[int, ...]  # a fixed representative rotation
    source: int  # index of the first relator producing it
    inverse: bool  # representative is the inverse of that relator's core


def _cyclic_words(p: Presentation) -> tuple[list[_CyclicWord], list[tuple[int, int]]]:
    """Deduplicated rotation classes of relator cores and their inverses, and
    per relator the class indices of its core and of its core's inverse."""
    out: list[_CyclicWord] = []
    index: dict[tuple[int, ...], int] = {}
    classes: list[tuple[int, int]] = []
    for idx, r in enumerate(p.relators):
        core, _ = r.cyclic_reduce()
        pair = []
        for inv, ls in ((False, core.letters), (True, tuple(-x for x in reversed(core.letters)))):
            wi = index.setdefault(_canon(ls), len(out))
            if wi == len(out):
                out.append(_CyclicWord(ls, idx, inv))
            pair.append(wi)
        classes.append(tuple(pair))
    return out, classes


# ---------------------------------------------------------------------------
# the piece report


@dataclass(frozen=True)
class Occurrence:
    """A position in the symmetrized set: an offset into a relator's cyclic
    core (or that core's inverse)."""

    relator: int
    inverse: bool
    offset: int

    def to_json(self) -> dict:
        return {"relator": self.relator, "inverse": self.inverse, "offset": self.offset}


@dataclass(frozen=True)
class PieceWitness:
    piece: tuple[int, ...]  # letters
    first: Occurrence
    second: Occurrence

    def to_json(self, alphabet) -> dict:
        return {
            "piece": Word(alphabet, self.piece, _reduced=True).text(),
            "first": self.first.to_json(),
            "second": self.second.to_json(),
        }


@dataclass(frozen=True)
class RelatorPieces:
    relator: int
    length: int  # cyclic core length
    max_piece: int
    witness: PieceWitness | None  # a piece attaining max_piece, if any exists


@dataclass(frozen=True)
class PieceReport:
    m: int
    verdict: bool
    rows: tuple[RelatorPieces, ...]
    proper_powers: tuple[int, ...]  # relator indices flagged as proper powers
    failing: tuple[int, ...] = field(default=())  # relators violating the bound

    def max_piece(self) -> int:
        return max((r.max_piece for r in self.rows), default=0)

    def to_json(self, alphabet) -> dict:
        return {
            "m": self.m,
            "verdict": self.verdict,
            "proper_powers": list(self.proper_powers),
            "failing": list(self.failing),
            "rows": [
                {
                    "relator": r.relator,
                    "length": r.length,
                    "max_piece": r.max_piece,
                    "witness": r.witness.to_json(alphabet) if r.witness else None,
                }
                for r in self.rows
            ],
        }


# ---------------------------------------------------------------------------
# suffix-array machinery


def _suffix_array(a: np.ndarray, budget: Budget) -> np.ndarray:
    """Suffix array by prefix doubling over integer content; the deadline is
    checked after every doubling round."""
    n = a.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    _, rank = np.unique(a, return_inverse=True)
    rank = rank.astype(np.int64)
    k = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        if k < n:
            second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        c1 = rank[order]
        c2 = second[order]
        new = np.empty(n, dtype=np.int64)
        new[0] = 0
        np.cumsum((c1[1:] != c1[:-1]) | (c2[1:] != c2[:-1]), out=new[1:])
        budget.check()
        if new[-1] == n - 1:
            return order
        rank2 = np.empty(n, dtype=np.int64)
        rank2[order] = new
        rank = rank2
        k *= 2


def _lcp_kasai(s: list[int], sa: list[int]) -> list[int]:
    """lcp[i] = longest common prefix of suffixes sa[i] and sa[i+1]."""
    n = len(s)
    if n < 2:
        return []
    rank = [0] * n
    for i, p in enumerate(sa):
        rank[p] = i
    lcp = [0] * (n - 1)
    h = 0
    for p in range(n):
        r = rank[p]
        if r == n - 1:
            h = 0
            continue
        q = sa[r + 1]
        limit = n - max(p, q)
        while h < limit and s[p + h] == s[q + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def _max_matches(words: list[_CyclicWord], budget: Budget):
    """For every position (cyclic word w, offset t < |w|) find the longest
    subword starting there that also occurs at some other position, each
    match capped at the shorter participating word's length.

    Returns (best, partner): position -> match length (only positions with a
    match), and position -> a partner position attaining it.  Positions are
    (word_index, offset) pairs.
    """
    seq: list[int] = []
    meta: list[tuple[int, int] | None] = []  # (word_idx, offset) for first-copy cells
    sep = 10**9
    for wi, w in enumerate(words):
        n = len(w.letters)
        for copy in range(2):
            for t, l in enumerate(w.letters):
                seq.append(l)
                meta.append((wi, t) if copy == 0 else None)
        sep += 1
        seq.append(sep)  # unique separator outside the letter range
        meta.append(None)
    if not seq:
        return {}, {}
    sa = _suffix_array(np.asarray(seq, dtype=np.int64), budget).tolist()
    lcp = _lcp_kasai(seq, sa)
    budget.check()
    lcp.append(0)  # sentinel so lcp[i] is defined for the last SA slot

    # walk the SA keeping first-copy positions; neighbor lcps by running min
    kept_pos: list[tuple[int, int]] = []
    kept_lcp: list[int] = []  # between consecutive kept entries
    run = None
    for i, p in enumerate(sa):
        mp = meta[p]
        if mp is not None:
            kept_pos.append(mp)
            if run is not None:
                kept_lcp.append(run)
            run = lcp[i]
        elif run is not None:
            if lcp[i] < run:
                run = lcp[i]

    lengths = [len(w.letters) for w in words]
    k = len(kept_pos)
    best: dict[tuple[int, int], int] = {}
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(k):
        cap_i = lengths[kept_pos[i][0]]
        b = 0
        arg = None
        run_l = None
        j = i - 1
        while j >= 0:  # leftward: lcp(p_i, p_j) = min kept_lcp over (j, i]
            run_l = kept_lcp[j] if run_l is None else min(run_l, kept_lcp[j])
            if run_l <= b:
                break
            cand = min(run_l, cap_i, lengths[kept_pos[j][0]])
            if cand > b:
                b, arg = cand, kept_pos[j]
            j -= 1
        run_r = None
        j = i
        while j < k - 1:
            run_r = kept_lcp[j] if run_r is None else min(run_r, kept_lcp[j])
            if run_r <= b:
                break
            cand = min(run_r, cap_i, lengths[kept_pos[j + 1][0]])
            if cand > b:
                b, arg = cand, kept_pos[j + 1]
            j += 1
        if b > 0:
            best[kept_pos[i]] = b
            partner[kept_pos[i]] = arg
    budget.check()
    return best, partner


def check_metric(p: Presentation, m: int, budget: Budget | None = None) -> PieceReport:
    """Does every piece satisfy |piece| < |r|/m (strict) in every relator?

    Proper-power relators are flagged with a warning: under the positional
    piece convention the whole relator is a piece of itself, so they fail at
    every m.  The budget's deadline is checked between the stages.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    return _piece_report(p, m, *_cyclic_words(p), budget or Budget.start())


def _piece_report(
    p: Presentation,
    m: int,
    words: list[_CyclicWord],
    classes: list[tuple[int, int]],
    budget: Budget,
) -> PieceReport:
    budget.check()
    best, partner = _max_matches(words, budget)

    proper = tuple(i for i, r in enumerate(p.relators) if proper_power_root(r)[1] > 1)
    if proper:
        warnings.warn(
            f"relators {list(proper)} are proper powers; each is a piece of "
            f"itself under the positional convention and fails C'(1/m)",
            stacklevel=3,
        )

    # aggregate per rotation class, then map back to relators
    word_max = [0] * len(words)
    word_arg: dict[int, tuple[int, int]] = {}
    for (wi, t), b in best.items():
        if b > word_max[wi]:
            word_max[wi] = b
            word_arg[wi] = (wi, t)

    rows: list[RelatorPieces] = []
    failing: list[int] = []
    verdict = True
    for idx, pair in enumerate(classes):
        n = len(words[pair[0]].letters)
        mx = 0
        wit = None
        for wi in pair:
            if word_max[wi] > mx:
                mx = word_max[wi]
                src = word_arg[wi]
                dst = partner[src]
                w_src, w_dst = words[src[0]], words[dst[0]]
                dbl = w_src.letters + w_src.letters
                wit = PieceWitness(
                    piece=dbl[src[1] : src[1] + mx],
                    first=Occurrence(w_src.source, w_src.inverse, src[1]),
                    second=Occurrence(w_dst.source, w_dst.inverse, dst[1]),
                )
        rows.append(RelatorPieces(relator=idx, length=n, max_piece=mx, witness=wit))
        if m * mx >= n:  # violates |piece| < n/m
            verdict = False
            failing.append(idx)
    return PieceReport(m=m, verdict=verdict, rows=tuple(rows), proper_powers=proper,
                       failing=tuple(failing))


# ---------------------------------------------------------------------------
# Dehn's algorithm


@dataclass(frozen=True)
class DehnStep:
    """One replacement: rotate the cyclic word left by `rotation`, match the
    first `matched` letters against a prefix of `relator` (a symmetrized
    element), and substitute the inverted remainder of that relator."""

    before: tuple[int, ...]
    rotation: int
    relator: tuple[int, ...]
    matched: int  # > len(relator) / 2
    after: tuple[int, ...]  # freely and cyclically reduced


@dataclass
class DehnTrace:
    steps: list[DehnStep] = field(default_factory=list)
    final: tuple[int, ...] = ()


def _to_chars(ls) -> str:
    # letters land in the Unicode private use area: C-speed hashing/slicing
    return "".join(chr(0xE000 + l) for l in ls)


_GRAM_CAP = 32  # index grams are at most this long; hits are then extended


class DehnSolver:
    """Word-problem solver for a fixed C'(1/6) presentation.

    The index maps fixed-length grams (min(32, floor(n/2)+1) letters) of each
    rotation class to their positions; a lookup hit is extended greedily and
    accepted when it exceeds half the relator.  Deterministic choice:
    leftmost match position, then longest match, then lowest rotation-class
    index, then lowest offset.  The C'(1/6) certificate shares check_metric's
    rotation classes; it and the word search both read the budget's deadline.
    """

    def __init__(self, p: Presentation, budget: Budget | None = None):
        self.presentation = p
        self.words, classes = _cyclic_words(p)
        report = _piece_report(p, 6, self.words, classes, budget or Budget.start())
        if not report.verdict:
            raise SmallCancellationError(
                f"presentation is not C'(1/6): relators {list(report.failing)} "
                f"carry pieces of at least 1/6 of their length"
            )
        self.doubled: list[str] = []
        self.doubled_letters: list[tuple[int, ...]] = []
        # gram length -> gram -> [(word_idx, offset)]
        self.grams: dict[int, dict[str, list[tuple[int, int]]]] = {}
        for wi, w in enumerate(self.words):
            n = len(w.letters)
            dbl_ls = w.letters + w.letters
            dbl = _to_chars(dbl_ls)
            self.doubled.append(dbl)
            self.doubled_letters.append(dbl_ls)
            g = min(_GRAM_CAP, n // 2 + 1)
            bucket = self.grams.setdefault(g, {})
            for t in range(n):
                bucket.setdefault(dbl[t : t + g], []).append((wi, t))

    def _best_match_at(self, s: str, i: int, max_len: int):
        """Longest >half relator-prefix match starting at position i of s,
        length capped by max_len; (length, word_idx, offset) or None."""
        best = None
        for g, bucket in self.grams.items():
            if g > max_len:
                continue
            hits = bucket.get(s[i : i + g])
            if not hits:
                continue
            for wi, t in hits:
                n = len(self.words[wi].letters)
                half = n // 2 + 1
                cap = min(n, max_len)
                if cap < half:
                    continue
                dbl = self.doubled[wi]
                l = g
                while l < cap and dbl[t + l] == s[i + l]:
                    l += 1
                if l >= half and (
                    best is None or (l, -wi, -t) > (best[0], -best[1], -best[2])
                ):
                    best = (l, wi, t)
        return best

    def is_trivial(self, w: Word, budget: Budget | None = None) -> tuple[bool, DehnTrace]:
        """True iff w = 1 in the presented group.  The trace replays to a
        verified derivation; completeness on C'(1/6) input is Greendlinger's
        lemma (the cyclic word is searched, so wrapped overlaps count).  The
        budget's deadline is checked before each replacement step."""
        if w.alphabet != self.presentation.alphabet:
            raise SmallCancellationError("word is over a different alphabet")
        budget = budget or Budget.start()
        trace = DehnTrace()
        cur, _ = w.cyclic_reduce()
        ls = cur.letters
        while ls:
            budget.check()
            n = len(ls)
            s = _to_chars(ls + ls)
            found = None
            for i in range(n):
                found = self._best_match_at(s, i, n)
                if found:
                    l, wi, t = found
                    before = ls
                    rotated = ls[i:] + ls[:i]
                    rel_n = len(self.words[wi].letters)
                    relator = self.doubled_letters[wi][t : t + rel_n]
                    tail = relator[l:]
                    repl = tuple(-x for x in reversed(tail))
                    nxt = Word(self.presentation.alphabet, repl + rotated[l:])
                    core, _ = nxt.reduce().cyclic_reduce()
                    trace.steps.append(
                        DehnStep(before=before, rotation=i, relator=relator,
                                 matched=l, after=core.letters)
                    )
                    ls = core.letters
                    break
            if not found:
                break
        trace.final = ls
        return (not ls), trace

