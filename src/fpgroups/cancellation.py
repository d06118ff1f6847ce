"""Metric small cancellation: pieces, C'(1/m) checking, and Dehn's algorithm.

A piece is a common subword occurring at two distinct positions of the
symmetrized relator set, where a position is (cyclic word, offset) — distinct
cyclic words, or the same cyclic word at two different offsets.  The metric
condition C'(1/m) demands |piece| < |r|/m strictly for every piece inside
every symmetrized relator r.

Every relator core and its inverse is one word of a single generalized
suffix array: the word written twice (so every rotation's subwords are
visible), then a separator of its own.  The rotation classes are read off
that sort: a word's least first-copy suffix starts its least rotation, so
words of one length whose least suffixes share that many letters are one
class, and a word whose two least suffixes do is a proper power.  The
checker and the Dehn solver share the classes.  The piece search runs on
the same sort with every word but each class's first left out.  A match
between two positions is capped at the length of the shorter participating
cyclic word: a longer overlap wraps around that word and is not a subword
of any single rotation of it.

The sort, the LCP and the match scan run in numpy.  The first round sorts
q letters packed into one int64 (qsufsort's transform); prefix doubling
then keeps the rank array of each round, so level j ranks q·2^j letters.
The LCP of two first-copy suffixes comes from binary lifting over those
ranks and a direct comparison of the last fewer than q letters, exactly.
Where neither neighbour's LCP exceeds its cap, the longer of the two is the
position's best match; the few positions where a cap binds walk outward
through the suffix order in Python.

Words of the presented group can be tested for triviality by Dehn's
algorithm once the presentation is verified C'(1/6): Greendlinger's lemma
guarantees every nonempty cyclically reduced word representing the identity
contains more than half of some symmetrized relator.  The word under test
is one str of shifted code points from start to end: it is encoded once,
each step splices the inverted relator remainder (a slice of a precomputed
string) in place of the match, and free and cyclic cancellation can then
happen only at the splice and at the wrap.  Steps are recorded as
references (rotation, rotation class, offset, matched length), and the
choice among matches is fixed: leftmost position, then longest match, then
lowest class, then lowest offset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .budget import Budget
from .presentations import Presentation
from .words import Word


class SmallCancellationError(ValueError):
    """Raised when an operation requires a C' bound the presentation lacks."""


# ---------------------------------------------------------------------------
# rotation classes of the symmetrized set


@dataclass(frozen=True)
class _CyclicWord:
    """One rotation class of the symmetrized set."""

    letters: tuple[int, ...]  # a fixed representative rotation
    source: int  # index of the first relator producing it
    inverse: bool  # representative is the inverse of that relator's core
    period: int  # the length of its primitive root: a proper power's is less


def _cyclic_words(p: Presentation, budget: Budget) -> tuple[
    list[_CyclicWord], list[tuple[int, int]], tuple[int, ...], tuple[np.ndarray, ...]
]:
    """Deduplicated rotation classes of relator cores and their inverses,
    each with its period, per relator the class indices of its core and of
    its core's inverse, the relators whose cores are proper powers, and the
    suffix order the match scan reads, all from one suffix sort.

    Each core and each inverse is a word of the sort: the word written
    twice, then a separator of its own, so the suffix at first-copy offset
    t starts with the rotation at t.  A word's least first-copy suffix
    starts its least rotation, so two words of length n are one class
    exactly when their least suffixes share n letters, and a word is a
    proper power exactly when its two least suffixes do.  Those two then
    start one period apart: the rotation at t + p equals the one at t but
    meets the separator p letters sooner, so it sorts right after it.  A
    class is numbered and represented by its first word in relator order,
    core before inverse.

    The suffix order is (class, offset, position, sort): the first-copy
    suffixes of the classes' first words in suffix order, as class, offset
    and position in the sorted content, and the sort (content, levels, q)
    that _lcp reads them with.  Separators rise with the word order, so
    leaving the other words out keeps the order the classes' words alone
    would sort to."""
    cores = []
    for r in p.relators:  # freely reduced: peel inverse pairs off both ends
        ls = r.letters
        i, j = 0, len(ls)
        while j - i >= 2 and ls[i] == -ls[j - 1]:
            i += 1
            j -= 1
        cores.append(ls[i:j])
    if not cores:
        empty = np.zeros(0, dtype=np.int64)
        return [], [], (), (empty, empty, empty, None)
    lengths = np.repeat([len(c) for c in cores], 2)  # core, inverse, core, ...
    g = len(p.alphabet)
    parts = []
    for i, c in enumerate(cores):
        a = np.asarray(c, dtype=np.int64)
        parts += [a, a, [g + 1 + 2 * i], -a[::-1], -a[::-1], [g + 2 + 2 * i]]
    # letters -g..g, then one separator per word, as dense ranks
    seq = np.concatenate(parts) + g
    present = np.zeros(seq.max() + 1, dtype=bool)
    present[seq] = True
    seq = (np.cumsum(present) - 1)[seq]
    block = 2 * lengths + 1
    word_of = np.repeat(np.arange(lengths.size), block)
    offset = np.arange(seq.size) - (np.cumsum(block) - block)[word_of]
    first_copy = offset < lengths[word_of]
    kept, levels, q = _suffix_array(seq, first_copy, budget)

    # the kept rank of every first-copy suffix, word by word, and each
    # word's least and second least
    at = np.empty(seq.size, dtype=np.int64)
    at[kept] = np.arange(kept.size)
    at = at[first_copy]
    starts = np.cumsum(lengths) - lengths
    least = np.minimum.reduceat(at, starts)
    at[at == np.repeat(least, lengths)] = kept.size
    second = np.minimum.reduceat(at, starts)
    # a core's period is its inverse's; a power's shows as the offset gap
    core = 2 * np.flatnonzero(lengths[::2] > 1)
    a, b = kept[least[core]], kept[second[core]]
    period = lengths.copy()
    period[core] = np.where(
        _lcp(seq, levels, q, a, b) >= lengths[core], offset[b] - offset[a], lengths[core]
    )
    period[1::2] = period[::2]
    proper = tuple(np.flatnonzero(period[::2] < lengths[::2]).tolist())

    # words by (length, least suffix); a class is a run of words whose
    # neighbours' least suffixes share the whole length
    by = np.lexsort((least, lengths))
    pos, n = kept[least[by]], lengths[by]
    joined = (n[1:] == n[:-1]) & (_lcp(seq, levels, q, pos[:-1], pos[1:]) >= n[1:])
    run = np.concatenate(([0], np.cumsum(~joined)))
    first = np.full(run[-1] + 1, lengths.size)
    np.minimum.at(first, run, by)
    rep = np.empty_like(by)
    rep[by] = first[run]  # each word's class's first word
    is_first = rep == np.arange(lengths.size)
    cls = (np.cumsum(is_first) - 1)[rep]

    words = []
    for wi in np.flatnonzero(is_first).tolist():
        i, inverse = divmod(wi, 2)
        c = cores[i]
        letters = tuple((-np.asarray(c)[::-1]).tolist()) if inverse else c
        words.append(_CyclicWord(letters, i, bool(inverse), int(period[wi])))
    classes = [tuple(pair) for pair in cls.reshape(-1, 2).tolist()]

    kept = kept[is_first[word_of[kept]]]
    budget.check()
    return words, classes, proper, (cls[word_of[kept]], offset[kept], kept, (seq, levels, q))


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
            "piece": Word._trusted(alphabet, self.piece, True).text(),
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
) -> tuple[np.ndarray, list[np.ndarray], int]:
    """The positions where keep is set, in the order of their suffixes, the
    int32 rank array of every round before the last, and q, the letters of
    the first round: levels[j][p] ranks the q·2^j-letter prefix of suffix p.

    The content a holds letter ranks, 0 up to a.max(), which takes b bits;
    dense ranks take the fewest.  The first round sorts packed keys,
    qsufsort's transform (Larsson & Sadakane, Faster suffix sorting, 2007):
    the q = 62 // b letters from each position in one int64, 0 past the
    end.  Each later round doubles the prefix (Manber & Myers).  The
    content must end in a letter that occurs nowhere else, so equal ranks
    at two positions mean q·2^j equal letters, and a key reaching past the
    end equals no other.  Rounds stop once the kept suffixes have distinct
    ranks, so no two kept suffixes share q·2^len(levels) letters; the
    deadline is checked after every round, the packed first round
    included."""
    n = a.size
    bits = max(1, int(a.max()).bit_length())
    q = 62 // bits
    padded = np.concatenate((a, np.zeros(q - 1, dtype=np.int64)))
    key = np.zeros(n, dtype=np.int64)
    for i in range(q):
        key <<= bits
        key |= padded[i : i + n]
    del padded
    levels = []
    k = q
    while True:
        order = np.argsort(key)
        key = key[order]
        new = np.empty(n, dtype=np.int32)
        new[0] = 0
        np.cumsum(key[1:] != key[:-1], out=new[1:])
        budget.check()
        sorted_keep = keep[order]
        r = new[sorted_keep]
        if (r[1:] != r[:-1]).all():
            return order[sorted_keep], levels, q
        rank = np.empty(n, dtype=np.int32)
        rank[order] = new
        levels.append(rank)
        # sort on (rank of the first half, 1 + rank of the second half or 0
        # past the end) as one int64 key; rank < n, so the key cannot overflow
        key = rank.astype(np.int64) * (n + 1)
        key[: n - k] += rank[k:] + 1
        k *= 2


def _lcp(
    a: np.ndarray, levels: list[np.ndarray], q: int, p: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Longest common prefix of the suffixes of a at p and at r, pairwise:
    binary lifting over the doubling ranks in steps of q·2^j letters, then
    a direct comparison of the fewer than q letters left.  Each pair must
    share fewer than q·2^len(levels) letters, as two kept suffixes do.  The
    content's last letter occurs once, so no equal run reaches it and no
    index passes the end."""
    h = np.zeros(p.size, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        lv = levels[j]
        h[lv[p + h] == lv[r + h]] += q << j
    run = np.ones(p.size, dtype=bool)
    for _ in range(q - 1):
        run &= a[p + h] == a[r + h]
        h += run
    return h


def _max_matches(
    words: list[_CyclicWord], order: tuple[np.ndarray, ...], budget: Budget
) -> list[tuple[int, int, int, int]]:
    """For every rotation class w, the longest subword starting at a position
    (w, t), t < |w|, that also occurs at some other position, each match
    capped at the shorter participating word's length.  order is the
    suffix order of _cyclic_words, whose adjacent lcps are read here, so a
    caller that needs only the classes never computes them; the sort's
    rank arrays are cleared once read.

    Returns per class (length, t, partner class, partner offset), length 0
    when w has no piece.  Among the positions of w attaining the length, t
    comes first in suffix order; its partner is the first position attaining
    it on a walk outward from t through the suffix order, left side first.
    """
    if not words:
        return []
    lengths = np.array([len(w.letters) for w in words], dtype=np.int64)
    word, offset, kept, (seq, levels, q) = order
    lcp = _lcp(seq, levels, q, kept[:-1], kept[1:])
    levels.clear()  # the scan is the sort's last reader: free its ranks first

    # where no cap binds, matches only shrink away from a position, so the
    # nearer neighbour on each side attains its best match
    cap = lengths[word]
    left = np.concatenate(([0], lcp))
    right = np.concatenate((lcp, [0]))
    cap_l = np.concatenate(([0], cap[:-1]))
    cap_r = np.concatenate((cap[1:], [0]))
    best = np.maximum(left, right)
    idx = np.arange(word.size)
    partner = np.where(left >= right, idx - 1, idx + 1)
    walk = np.flatnonzero(
        (left > np.minimum(cap, cap_l)) | (right > np.minimum(cap, cap_r))
    )
    if walk.size:
        best[walk], partner[walk] = _walk(walk.tolist(), lcp.tolist(), cap.tolist())
    budget.check()

    # group by class (stable, so suffix order holds within a class); the
    # first maximum of each group is the class's representative
    by_word = np.argsort(word, kind="stable")
    out = []
    for group in np.split(by_word, np.cumsum(lengths)[:-1]):
        i = group[np.argmax(best[group])]
        if not best[i]:
            out.append((0, 0, 0, 0))
            continue
        j = partner[i]
        out.append((int(best[i]), int(offset[i]), int(word[j]), int(offset[j])))
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
    return _piece_report(m, *_cyclic_words(p, budget), budget)


def _piece_report(
    m: int,
    words: list[_CyclicWord],
    classes: list[tuple[int, int]],
    proper: tuple[int, ...],
    order: tuple[np.ndarray, ...],
    budget: Budget,
) -> PieceReport:
    budget.check()
    matches = _max_matches(words, order, budget)

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
    """One replacement, by reference: rotate the cyclic word left by
    `rotation`, match its first `matched` letters against the rotation of
    rotation class `relator` that starts at `offset`, and substitute the
    inverse of that rotation's unmatched remainder."""

    rotation: int
    relator: int  # index into DehnSolver.words
    offset: int
    matched: int  # > len(relator's class) / 2


@dataclass
class DehnTrace:
    steps: list[DehnStep] = field(default_factory=list)
    final: tuple[int, ...] = ()


_GRAM_CAP = 32  # index grams are at most this long; hits are then extended
_MAX_GENERATORS = 0x10FFFF // 2  # letters -n..n become code points 1..2n+1


def _code_string(codes: np.ndarray) -> str:
    """The str of the given code points, made in one numpy pass; slicing,
    hashing and comparing it then run at C speed."""
    if not codes.size:
        return ""
    codes = np.ascontiguousarray(codes, dtype="<u4")
    return str(codes.view(f"<U{codes.size}")[0])


class DehnSolver:
    """Word-problem solver for a fixed C'(1/6) presentation.

    Over n generators, letter x is code point x + n + 1, so letters -n..n
    are 1..2n+1 and at most 0x10FFFF // 2 generators fit; the word under
    test stays one str from start to end.  The index maps fixed-length grams
    (min(32, floor(k/2)+1) letters) of each rotation class's doubled string
    to their positions; a lookup hit is extended by binary search over slice
    equality, as far as it goes, and accepted when it exceeds half the
    relator.  Deterministic choice: leftmost match position, then longest
    match, then lowest rotation-class index, then lowest offset.  A step
    splices the inverted remainder of the relator, one slice of the class's
    inverted doubled string, in place of the match.  Free and cyclic
    cancellation can then happen only at the splice and at the wrap, and
    the splice has none, as every match runs as far as it goes.  Steps are
    recorded as references into the rotation classes.  The C'(1/6)
    certificate shares check_metric's rotation classes; it and the word
    search both read the budget's deadline.
    """

    def __init__(self, p: Presentation, budget: Budget | None = None):
        if len(p.alphabet) > _MAX_GENERATORS:
            raise SmallCancellationError(
                f"Dehn's algorithm handles at most {_MAX_GENERATORS} generators, "
                f"one code point per letter; the presentation has {len(p.alphabet)}"
            )
        self.presentation = p
        budget = budget or Budget.start()
        self.words, classes, proper, order = _cyclic_words(p, budget)
        report = _piece_report(6, self.words, classes, proper, order, budget)
        if not report.verdict:
            raise SmallCancellationError(
                f"presentation is not C'(1/6): relators {list(report.failing)} "
                f"carry pieces of at least 1/6 of their length"
            )
        self.shift = len(p.alphabet) + 1
        self.doubled: list[str] = []
        self.inverted: list[str] = []  # the inverse of each doubled string
        # gram length -> gram -> [(word_idx, offset)]
        self.grams: dict[int, dict[str, list[tuple[int, int]]]] = {}
        # no shorter cyclic word holds more than half of a relator
        self.shortest_match = min((len(w.letters) // 2 + 1 for w in self.words), default=1)
        for wi, w in enumerate(self.words):
            n = len(w.letters)
            codes = np.asarray(w.letters * 2, dtype=np.int64) + self.shift
            dbl = _code_string(codes)
            self.doubled.append(dbl)
            self.inverted.append(_code_string(2 * self.shift - codes[::-1]))
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
                if dbl[t + g : t + half] != s[i + g : i + half]:
                    continue  # half the relator or less
                # prefix equality is monotone in the length, so the longest
                # equal prefix is found by bisection, a memcmp per probe
                lo, hi = half, cap
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if dbl[t + lo : t + mid] == s[i + lo : i + mid]:
                        lo = mid
                    else:
                        hi = mid - 1
                if best is None or (lo, -wi, -t) > (best[0], -best[1], -best[2]):
                    best = (lo, wi, t)
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
        s = _code_string(np.asarray(w.reduce().letters, dtype=np.int64) + self.shift)
        inverse_pair = 2 * self.shift  # code-point sum of a letter and its inverse
        while True:
            # s is freely reduced, so it cancels cyclically only at the wrap
            a, b = 0, len(s)
            while b - a >= 2 and ord(s[a]) + ord(s[b - 1]) == inverse_pair:
                a += 1
                b -= 1
            s = s[a:b]
            n = len(s)
            if n < self.shortest_match:
                break
            budget.check()
            d = s + s
            for i in range(n):
                found = self._best_match_at(d, i, n)
                if found:
                    break
            else:
                break
            l, wi, t = found
            trace.steps.append(DehnStep(rotation=i, relator=wi, offset=t, matched=l))
            # the match is as long as it goes, so the letters either side of
            # the splice never cancel: either they differ, or one side is empty
            k = len(self.words[wi].letters)
            s = self.inverted[wi][k - t : 2 * k - t - l] + d[i + l : i + n]
        trace.final = tuple(ord(c) - self.shift for c in s)
        return (not s), trace
