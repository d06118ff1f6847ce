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
per-word unique separators.  A match between two positions is capped at the
length of the shorter participating cyclic word: a longer overlap wraps
around that word and is not a subword of any single rotation of it.

The sort, the LCP and the match scan run in numpy.  Prefix doubling sorts
the first-copy suffixes and keeps the rank array of each round; the LCP of
neighbouring first-copy suffixes comes from binary lifting over those
ranks, exactly.  Where neither neighbour's LCP exceeds its cap, the longer
of the two is the position's best match; the few positions where a cap
binds walk outward through the suffix order in Python.

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


def _cyclic_words(
    p: Presentation, budget: Budget
) -> tuple[list[_CyclicWord], list[tuple[int, int]]]:
    """Deduplicated rotation classes of relator cores and their inverses, and
    per relator the class indices of its core and of its core's inverse.  The
    budget's deadline is checked once per relator."""
    out: list[_CyclicWord] = []
    index: dict[tuple[int, ...], int] = {}
    classes: list[tuple[int, int]] = []
    for idx, r in enumerate(p.relators):
        budget.check()
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


def _suffix_array(
    a: np.ndarray, keep: np.ndarray, budget: Budget
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The positions where keep is set, in the order of their suffixes, by
    prefix doubling (Manber & Myers) over integer content, and the int32 rank
    array of every round before the last: levels[j][p] ranks the 2^j-letter
    prefix of suffix p.  The content must end in a letter that occurs nowhere
    else, so equal ranks at two positions mean 2^j equal letters.  Rounds
    stop once the kept suffixes have distinct ranks, so no two kept suffixes
    share 2^len(levels) letters; the deadline is checked after every round."""
    n = a.size
    _, rank = np.unique(a, return_inverse=True)
    rank = rank.astype(np.int32)
    levels = []
    k = 1
    while True:
        levels.append(rank)
        # sort on (rank of the first half, 1 + rank of the second half or 0
        # past the end) as one int64 key; rank < n, so the key cannot overflow
        key = rank.astype(np.int64) * (n + 1)
        key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        key = key[order]
        new = np.empty(n, dtype=np.int32)
        new[0] = 0
        np.cumsum(key[1:] != key[:-1], out=new[1:])
        rank = np.empty(n, dtype=np.int32)
        rank[order] = new
        budget.check()
        kept = order[keep[order]]
        r = rank[kept]
        if (r[1:] != r[:-1]).all():
            return kept, levels
        k *= 2


def _lcp(levels: list[np.ndarray], p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Longest common prefix of the suffixes at p and at q, pairwise, by
    binary lifting over the doubling ranks; each pair must share fewer than
    2^len(levels) letters, as two kept suffixes do, so its lcp is a sum of
    distinct powers of two below that."""
    h = np.zeros(p.size, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        lv = levels[j]
        h[lv[p + h] == lv[q + h]] += 1 << j
    return h


def _max_matches(words: list[_CyclicWord], budget: Budget) -> list[tuple[int, int, int, int]]:
    """For every rotation class w, the longest subword starting at a position
    (w, t), t < |w|, that also occurs at some other position, each match
    capped at the shorter participating word's length.

    Returns per class (length, t, partner class, partner offset), length 0
    when w has no piece.  Among the positions of w attaining the length, t
    comes first in suffix order; its partner is the first position attaining
    it on a walk outward from t through the suffix order, left side first.
    """
    if not words:
        return []
    lengths = np.array([len(w.letters) for w in words], dtype=np.int64)
    parts = []
    for wi, w in enumerate(words):
        ls = np.asarray(w.letters, dtype=np.int64)
        parts += [ls, ls, [10**9 + 1 + wi]]  # a unique separator past the letters
    seq = np.concatenate(parts)
    block = 2 * lengths + 1
    word_of = np.repeat(np.arange(len(words)), block)
    offset = np.arange(seq.size) - np.repeat(np.cumsum(block) - block, block)
    # first-copy positions in suffix order and the lcp of each adjacent pair
    kept, levels = _suffix_array(seq, offset < lengths[word_of], budget)
    lcp = _lcp(levels, kept[:-1], kept[1:])
    del levels
    budget.check()

    # where no cap binds, matches only shrink away from a position, so the
    # nearer neighbour on each side attains its best match
    cap = lengths[word_of[kept]]
    left = np.concatenate(([0], lcp))
    right = np.concatenate((lcp, [0]))
    cap_l = np.concatenate(([0], cap[:-1]))
    cap_r = np.concatenate((cap[1:], [0]))
    best = np.maximum(left, right)
    idx = np.arange(kept.size)
    partner = np.where(left >= right, idx - 1, idx + 1)
    walk = np.flatnonzero(
        (left > np.minimum(cap, cap_l)) | (right > np.minimum(cap, cap_r))
    )
    if walk.size:
        best[walk], partner[walk] = _walk(walk.tolist(), lcp.tolist(), cap.tolist())
    budget.check()

    # group by class (stable, so suffix order holds within a class); the
    # first maximum of each group is the class's representative
    by_word = np.argsort(word_of[kept], kind="stable")
    out = []
    for group in np.split(by_word, np.cumsum(lengths)[:-1]):
        i = group[np.argmax(best[group])]
        if not best[i]:
            out.append((0, 0, 0, 0))
            continue
        j = kept[partner[i]]
        out.append((int(best[i]), int(offset[kept[i]]), int(word_of[j]), int(offset[j])))
    return out


def _walk(positions: list[int], lcp: list[int], cap: list[int]) -> tuple[list[int], list[int]]:
    """The best capped match and its partner at each given position of the
    kept suffix order, by walking outward: left first, then right, each side
    stopping once the running lcp cannot beat the best so far."""
    k = len(cap)
    best, partner = [], []
    for i in positions:
        b = 0
        arg = i
        run = None
        j = i - 1
        while j >= 0:  # lcp of kept j and kept i is min(lcp[j:i])
            run = lcp[j] if run is None else min(run, lcp[j])
            if run <= b:
                break
            cand = min(run, cap[i], cap[j])
            if cand > b:
                b, arg = cand, j
            j -= 1
        run = None
        j = i
        while j < k - 1:
            run = lcp[j] if run is None else min(run, lcp[j])
            if run <= b:
                break
            cand = min(run, cap[i], cap[j + 1])
            if cand > b:
                b, arg = cand, j + 1
            j += 1
        best.append(b)
        partner.append(arg)
    return best, partner


def check_metric(p: Presentation, m: int, budget: Budget | None = None) -> PieceReport:
    """Does every piece satisfy |piece| < |r|/m (strict) in every relator?

    Proper-power relators are flagged with a warning: under the positional
    piece convention the whole relator is a piece of itself, so they fail at
    every m.  The budget's deadline is checked between the stages.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    budget = budget or Budget.start()
    return _piece_report(p, m, *_cyclic_words(p, budget), budget)


def _piece_report(
    p: Presentation,
    m: int,
    words: list[_CyclicWord],
    classes: list[tuple[int, int]],
    budget: Budget,
) -> PieceReport:
    budget.check()
    matches = _max_matches(words, budget)

    proper = tuple(i for i, r in enumerate(p.relators) if proper_power_root(r)[1] > 1)
    if proper:
        warnings.warn(
            f"relators {list(proper)} are proper powers; each is a piece of "
            f"itself under the positional convention and fails C'(1/m)",
            stacklevel=3,
        )

    rows: list[RelatorPieces] = []
    failing: list[int] = []
    verdict = True
    for idx, pair in enumerate(classes):
        n = len(words[pair[0]].letters)
        mx = 0
        wit = None
        for wi in pair:
            b, t, pw, pt = matches[wi]
            if b > mx:
                mx = b
                w_src, w_dst = words[wi], words[pw]
                dbl = w_src.letters + w_src.letters
                wit = PieceWitness(
                    piece=dbl[t : t + mx],
                    first=Occurrence(w_src.source, w_src.inverse, t),
                    second=Occurrence(w_dst.source, w_dst.inverse, pt),
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
        budget = budget or Budget.start()
        self.words, classes = _cyclic_words(p, budget)
        report = _piece_report(p, 6, self.words, classes, budget)
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

