import json
import random
import warnings
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpgroups import cancellation
from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.cancellation import (
    DehnSolver,
    SmallCancellationError,
    check_metric,
)
from fpgroups.construct import rips
from fpgroups.presentations import Presentation, parse_presentation
from fpgroups.words import Alphabet, Word

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.pres"))


def cyclic_core(w: Word) -> Word:
    """The cyclically reduced core of w: its free reduction with the inverse
    pairs at both ends peeled off."""
    ls = w.reduce().letters
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == -ls[j - 1]:
        i += 1
        j -= 1
    return Word(w.alphabet, ls[i:j])


def proper_power_root(w: Word) -> tuple[Word, int]:
    """(root, k) with the cyclic core of w equal to root^k, k maximal."""
    ls = cyclic_core(w).letters
    n = len(ls)
    for d in range(1, n + 1):
        if n % d == 0 and ls == ls[:d] * (n // d):
            return Word(w.alphabet, ls[:d]), n // d
    return Word(w.alphabet), 1  # empty core only


def test_proper_power_root():
    ab = Alphabet(["a", "b"])
    a, b = ab.gen("a"), ab.gen("b")
    assert proper_power_root(a**6) == (a, 6)
    assert proper_power_root((a * b) ** 3) == (a * b, 3)
    root, k = proper_power_root(a * b)
    assert k == 1 and root == a * b
    # conjugates are unwrapped before the period check
    root, k = proper_power_root(b * a**4 * ~b)
    assert (root, k) == (a, 4)


# --- exhaustive piece oracle (positional convention, wrap-capped) ----------


def brute_max_pieces(p: Presentation) -> dict[int, int]:
    words: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}

    def canon(ls):
        return min(ls[k:] + ls[:k] for k in range(len(ls)))

    for r in p.relators:
        core = cyclic_core(r)
        for ls in (core.letters, tuple(-x for x in reversed(core.letters))):
            c = canon(ls)
            if c not in seen:
                seen[c] = len(words)
                words.append(ls)
    occ = defaultdict(set)
    for wi, ls in enumerate(words):
        n = len(ls)
        dbl = ls + ls
        for t in range(n):
            for L in range(1, n + 1):
                occ[dbl[t : t + L]].add((wi, t))
    wmax = [0] * len(words)
    for wi, ls in enumerate(words):
        n = len(ls)
        dbl = ls + ls
        for t in range(n):
            for L in range(wmax[wi] + 1, n + 1):
                if len(occ[dbl[t : t + L]]) >= 2:
                    wmax[wi] = L
    out = {}
    for idx, r in enumerate(p.relators):
        core = cyclic_core(r)
        mx = 0
        for ls in (core.letters, tuple(-x for x in reversed(core.letters))):
            mx = max(mx, wmax[seen[canon(ls)]])
        out[idx] = mx
    return out


def quiet_presentation_text(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_presentation(text)


def quiet_presentation(names, relator_letters):
    ab = Alphabet(names)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Presentation(ab, [Word(ab, ls) for ls in relator_letters])


# --- oracles: Booth's rotation classes, unpacked doubling, a plain sort --


def least_rotation_start(s: tuple[int, ...]) -> int:
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


def booth_cyclic_words(p: Presentation):
    """(words, classes, proper powers): every core and inverse canonicalised
    by Booth's least rotation and deduplicated in relator order, core before
    inverse; periods and proper powers by proper_power_root."""
    words: list[cancellation._CyclicWord] = []
    index: dict[tuple[int, ...], int] = {}
    classes = []
    for idx, r in enumerate(p.relators):
        core = cyclic_core(r)
        root, _ = proper_power_root(r)
        pair = []
        for inv, ls in ((False, core.letters), (True, tuple(-x for x in reversed(core.letters)))):
            k = least_rotation_start(ls)
            wi = index.setdefault(ls[k:] + ls[:k], len(words))
            if wi == len(words):
                words.append(cancellation._CyclicWord(ls, idx, inv, len(root)))
            pair.append(wi)
        classes.append(tuple(pair))
    proper = tuple(i for i, r in enumerate(p.relators) if proper_power_root(r)[1] > 1)
    return words, classes, proper


def doubling_suffix_array(a: np.ndarray, keep: np.ndarray):
    """Prefix doubling from single letters (Manber & Myers): the positions
    where keep is set in suffix order, and the rank array of every round
    before the last, level j ranking 2^j letters."""
    n = a.size
    _, rank = np.unique(a, return_inverse=True)
    rank = rank.astype(np.int32)
    levels = []
    k = 1
    while True:
        levels.append(rank)
        key = rank.astype(np.int64) * (n + 1)
        key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        key = key[order]
        new = np.empty(n, dtype=np.int32)
        new[0] = 0
        np.cumsum(key[1:] != key[:-1], out=new[1:])
        rank = np.empty(n, dtype=np.int32)
        rank[order] = new
        kept = order[keep[order]]
        r = rank[kept]
        if (r[1:] != r[:-1]).all():
            return kept, levels
        k *= 2


def doubling_lcp(levels, p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Binary lifting over the doubling ranks in steps of 2^j letters."""
    h = np.zeros(p.size, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        lv = levels[j]
        h[lv[p + h] == lv[r + h]] += 1 << j
    return h


def class_sequence(words):
    """Only the classes' words, each doubled and followed by a separator
    10^9 + 1 + class: the sequence, and each cell's class and offset."""
    parts = []
    for wi, w in enumerate(words):
        ls = np.asarray(w.letters, dtype=np.int64)
        parts += [ls, ls, [10**9 + 1 + wi]]
    seq = np.concatenate(parts)
    lengths = np.array([len(w.letters) for w in words], dtype=np.int64)
    block = 2 * lengths + 1
    word_of = np.repeat(np.arange(len(words)), block)
    offset = np.arange(seq.size) - np.repeat(np.cumsum(block) - block, block)
    return seq, word_of, offset, offset < lengths[word_of]


def doubling_suffix_order(words):
    """The classes' first-copy suffixes in suffix order as (class, offset,
    lcp), sorted by unpacked doubling over the classes' words alone."""
    seq, word_of, offset, first_copy = class_sequence(words)
    kept, levels = doubling_suffix_array(seq, first_copy)
    return word_of[kept], offset[kept], doubling_lcp(levels, kept[:-1], kept[1:])


def plain_suffix_order(seq: list[int], positions: list[int]):
    """The positions in the order of their suffixes, by Python's sort on
    strings, and the lcp of each adjacent pair.  Suffixes are cut to a length
    that leaves them distinct, doubled until it does: cut suffixes that differ
    sort as the whole ones do, and share fewer letters than the cut."""
    code = {v: chr(i) for i, v in enumerate(sorted(set(seq)))}
    s = "".join(code[v] for v in seq)
    cut = 64
    while len({s[i : i + cut] for i in positions}) < len(positions):
        cut *= 2
    order = sorted(positions, key=lambda i: s[i : i + cut])
    lcp = []
    for i, j in zip(order, order[1:]):
        lo, hi = 0, cut  # the longest equal prefix, by bisection
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if s[i : i + mid] == s[j : j + mid]:
                lo = mid
            else:
                hi = mid - 1
        lcp.append(lo)
    return order, lcp


def oracle_max_matches(words, order, budget):
    """A plain sort of the classes' suffixes and a per-position walk over
    it, with the per-class aggregation of the report: the same contract as
    cancellation._max_matches, with none of its suffix order."""
    if not words:
        return []
    seq, word_of, offset, first_copy = class_sequence(words)
    sa, kept_lcp = plain_suffix_order(seq.tolist(), np.flatnonzero(first_copy).tolist())
    kept_pos = [(int(word_of[i]), int(offset[i])) for i in sa]

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
        while j >= 0:
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

    out = [(0, 0, 0, 0)] * len(words)
    for (wi, t), b in best.items():
        if b > out[wi][0]:
            out[wi] = (b, t, *partner[(wi, t)])
    return out


def oracle_cyclic_words(p, budget):
    return (*booth_cyclic_words(p), None)


def assert_matches_oracle(p: Presentation, m: int) -> None:
    """check_metric's report is byte-identical to the one the oracles make:
    Booth's classes and the plain sort's piece scan."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = json.dumps(check_metric(p, m).to_json(p.alphabet))
        with mock.patch.object(cancellation, "_cyclic_words", oracle_cyclic_words), \
                mock.patch.object(cancellation, "_max_matches", oracle_max_matches):
            want = json.dumps(check_metric(p, m).to_json(p.alphabet))
    assert got == want, p.to_text()[:200]


def assert_sort_matches_oracles(p: Presentation) -> None:
    """The rotation classes are Booth's, and the suffix order is the one
    unpacked doubling gives over the classes' words alone."""
    words, classes, proper, (word, offset, kept, sort) = cancellation._cyclic_words(
        p, Budget.start()
    )
    assert (words, classes, proper) == booth_cyclic_words(p), p.to_text()[:200]
    if not words:
        return
    lcp = cancellation._lcp(*sort, kept[:-1], kept[1:])
    want = doubling_suffix_order(words)
    for got, exp in zip((word, offset, lcp), want):
        assert got.tolist() == exp.tolist(), p.to_text()[:200]


# --- check_metric -----------------------------------------------------------


def test_commutator_bounds():
    p = parse_presentation("< a, b | [a, b] >")
    rep3 = check_metric(p, 3)
    assert rep3.verdict is True
    rep4 = check_metric(p, 4)
    assert rep4.verdict is False
    row = rep4.rows[0]
    assert row.length == 4 and row.max_piece == 1
    assert rep4.failing == (0,)
    w = row.witness
    assert w is not None and len(w.piece) == 1
    assert w.first != w.second


def test_witness_occurrences_check_out():
    p = parse_presentation("< a, b | a b a^-1 b, a^2 b^2 >")
    rep = check_metric(p, 2)
    for row in rep.rows:
        if row.witness is None:
            assert row.max_piece == 0
            continue
        for occ in (row.witness.first, row.witness.second):
            core = cyclic_core(p.relators[occ.relator])
            ls = core.letters
            if occ.inverse:
                ls = tuple(-x for x in reversed(ls))
            dbl = ls + ls
            assert dbl[occ.offset : occ.offset + len(row.witness.piece)] == row.witness.piece


def test_vacuous_no_pieces():
    p = parse_presentation("< a, b | a b >")
    for m in (2, 3, 6, 100):
        rep = check_metric(p, m)
        assert rep.verdict is True
        assert rep.rows[0].max_piece == 0
        assert rep.rows[0].witness is None


def test_free_presentation_vacuous():
    rep = check_metric(Presentation.free(["a", "b"]), 6)
    assert rep.verdict is True and rep.rows == ()


def test_proper_power_flagged_and_fails():
    p = parse_presentation("< a | a^3 >")
    with pytest.warns(UserWarning, match="proper powers"):
        rep = check_metric(p, 6)
    assert rep.proper_powers == (0,)
    assert rep.verdict is False
    assert rep.rows[0].max_piece == 3  # the whole relator


def test_monotone_in_m():
    p = parse_presentation("< a, b, c, d | [a, b] [c, d] >")
    assert check_metric(p, 6).verdict is True
    for m in (2, 3, 4, 5):
        assert check_metric(p, m).verdict is True
    assert check_metric(p, 8).verdict is False  # piece 1, 1 < 8/8 fails


def test_invariant_under_inversion_and_rotation():
    base = parse_presentation("< a, b | a b a b^2, b a^2 b a >")
    rot = quiet_presentation(["a", "b"], [(2, 1, 2, 2, 1), (-1, -2, -1, -1, -2)])
    r1 = check_metric(base, 2)
    r2 = check_metric(rot, 2)
    assert r1.verdict == r2.verdict
    assert [(x.length, x.max_piece) for x in r1.rows] == [
        (x.length, x.max_piece) for x in r2.rows
    ]


def test_wrap_cap_against_short_relator():
    # "a b a b b" self-overlaps with period 3 wrap (piece b a b); matches
    # against the length-2 relator "a b" must cap at 2, not run to 4
    p = quiet_presentation(["a", "b"], [(1, 2, 1, 2, 2), (1, 2)])
    rep = check_metric(p, 2)
    brute = brute_max_pieces(p)
    for row in rep.rows:
        assert row.max_piece == brute[row.relator]
    assert rep.rows[0].max_piece == 3
    assert rep.rows[1].max_piece == 2


def test_brute_cross_check_random():
    rng = random.Random(20260816)
    for trial in range(60):
        n_gen = rng.choice([2, 2, 3])
        names = ["a", "b", "c"][:n_gen]
        rels = []
        for _ in range(rng.randrange(1, 4)):
            length = rng.randrange(1, 9)
            ls = []
            while len(ls) < length:
                l = rng.choice([1, -1]) * rng.randrange(1, n_gen + 1)
                if ls and ls[-1] == -l:
                    continue
                ls.append(l)
            rels.append(tuple(ls))
        # relators sharing a rotation class: a rotation, the inverse or a
        # conjugate g r g^-1 (not cyclically reduced) of a drawn relator, and
        # [a, b] next to its inverse [b, a]
        r = rng.choice(rels)
        kind = trial % 4
        if kind == 0:
            k = rng.randrange(len(r))
            rels.append(r[k:] + r[:k])
        elif kind == 1:
            rels.append(tuple(-x for x in reversed(r)))
        elif kind == 2:
            g = rng.choice([1, -1]) * rng.randrange(1, n_gen + 1)
            rels.append((g,) + r + (-g,))
        else:
            rels += [(1, 2, -1, -2), (2, 1, -2, -1)]
        rng.shuffle(rels)
        p = quiet_presentation(names, rels)
        if not p.relators:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = check_metric(p, 6)
        brute = brute_max_pieces(p)
        for row, rel in zip(rep.rows, p.relators):
            assert row.max_piece == brute[row.relator], (trial, p.to_text())
            assert row.length == len(cyclic_core(rel)), (trial, p.to_text())


@pytest.mark.parametrize("path", FIXTURES, ids=lambda f: f.stem)
def test_piece_reports_match_the_oracle_on_fixtures(path):
    q = quiet_presentation_text(path.read_text())
    assert_matches_oracle(q, 6)
    assert_sort_matches_oracles(q)
    for m, zero in ((6, True), (7, True), (12, True), (12, False)):
        gamma = rips(q, m, zero_exponent=zero).gamma
        assert_matches_oracle(gamma, m)
        assert_sort_matches_oracles(gamma)


def test_capped_positions_take_the_exact_walk():
    # "a b a b b" matches its neighbour "a b" past the shorter word's
    # length, so the cap binds and the walk decides
    p = quiet_presentation(["a", "b"], [(1, 2, 1, 2, 2), (1, 2)])
    with mock.patch.object(cancellation, "_walk", wraps=cancellation._walk) as walk:
        assert_matches_oracle(p, 2)
    assert walk.called


@st.composite
def small_presentations(draw):
    """Up to four relators over one to three generators: short words,
    proper powers of them and one-letter relators.  Beside them, as drawn:
    every relator's inverse, rotations and duplicates of drawn relators,
    and [a, b] with [b, a], its inverse up to rotation.  With no relator
    drawn the presentation is free."""
    n_gen = draw(st.integers(1, 3))
    letter = st.integers(1, n_gen).flatmap(lambda g: st.sampled_from((g, -g)))
    drawn = draw(st.lists(
        st.tuples(st.lists(letter, min_size=1, max_size=6), st.integers(1, 3)),
        max_size=4,
    ))
    rels = [tuple(ls) * k for ls, k in drawn]
    if draw(st.booleans()):
        rels += [tuple(-x for x in reversed(r)) for r in rels]
    if rels:
        for r in draw(st.lists(st.sampled_from(rels), max_size=2)):
            k = draw(st.integers(0, len(r) - 1))  # k = 0 duplicates r
            rels.append(r[k:] + r[:k])
    if n_gen > 1 and draw(st.booleans()):
        rels += [(1, 2, -1, -2), (2, 1, -2, -1)]
    return quiet_presentation(["a", "b", "c"][:n_gen], draw(st.permutations(rels)))


@settings(max_examples=400, deadline=None)
@given(small_presentations(), st.integers(2, 7))
def test_piece_reports_match_the_oracle_on_small_presentations(p, m):
    assert_matches_oracle(p, m)


@settings(max_examples=400, deadline=None)
@given(small_presentations())
# periods 1, 2, 1 and 4 (the power a^4 under a conjugate)
@example(parse_presentation("< a, b | a^6, (a b)^3, b a^4 b^-1, [a, b] >"))
def test_classes_and_suffix_order_match_the_oracles_on_small_presentations(p):
    assert_sort_matches_oracles(p)


@st.composite
def sort_inputs(draw):
    """Content for the sort: letters below `top` with long repeats, then
    `top` once at the end; `top` runs from 1 to past 2^61, so q, the letters
    per packed key, runs from 62 down to 1.  Any cell may be kept."""
    top = draw(st.one_of(st.integers(1, 4), st.integers(0, 61).map(lambda e: 4 + 2**e)))
    unit = draw(st.lists(st.integers(0, min(top, 4) - 1), min_size=1, max_size=4))
    body = draw(st.lists(
        st.one_of(st.lists(st.integers(0, min(top, 4) - 1), max_size=5), st.just(unit * 7)),
        max_size=8,
    ))
    a = np.array([x for part in body for x in part] + [top], dtype=np.int64)
    keep = np.array(draw(st.lists(st.booleans(), min_size=a.size, max_size=a.size)))
    return a, keep


@settings(max_examples=400, deadline=None)
@given(sort_inputs())
def test_packed_sort_and_lcp_match_the_unpacked_doubling(data):
    a, keep = data
    kept, levels, q = cancellation._suffix_array(a, keep, Budget.start())
    assert q == 62 // int(a.max()).bit_length()
    want, old_levels = doubling_suffix_array(a, keep)
    assert kept.tolist() == want.tolist()
    # every pair of kept suffixes, adjacent or not
    p, r = np.triu_indices(kept.size, 1)
    p, r = kept[p], kept[r]
    assert (cancellation._lcp(a, levels, q, p, r) == doubling_lcp(old_levels, p, r)).all()


def test_packed_sort_at_two_letters_per_key():
    # over a million distinct letters take 21 bits, so two fit in a key;
    # a stretch over three letters gives the suffixes common prefixes
    rng = np.random.default_rng(21)
    a = np.concatenate((rng.permutation(1 << 20), rng.integers(0, 3, 20_000), [1 << 20]))
    keep = rng.random(a.size) < 0.5
    kept, levels, q = cancellation._suffix_array(a, keep, Budget.start())
    want, old_levels = doubling_suffix_array(a, keep)
    assert q == 2 and kept.tolist() == want.tolist()
    p, r = kept[:-1], kept[1:]
    assert (cancellation._lcp(a, levels, q, p, r) == doubling_lcp(old_levels, p, r)).all()


def test_large_alphabet_packs_three_letters_per_key():
    # 12,000 one-letter relators and their inverses: 24,000 letters and
    # 24,006 separators take 16 bits, so three fit in a key
    n = 12_000
    rels = [(g,) for g in range(1, n + 1)]
    rels += [(1, 2, -1, -2), (2, 1, -2, -1), tuple(range(3, 40)) * 2]
    p = quiet_presentation([f"g{i}" for i in range(1, n + 1)], rels)
    real, widths = cancellation._suffix_array, []

    def sort(*args):
        kept, levels, q = real(*args)
        widths.append(q)
        return kept, levels, q

    with mock.patch.object(cancellation, "_suffix_array", sort):
        assert_sort_matches_oracles(p)
    assert widths == [3]
    assert_matches_oracle(p, 6)


# --- Dehn's algorithm -------------------------------------------------------

SURFACE = parse_presentation("< a, b, c, d | [a, b] [c, d] >")


def step_relator(solver: DehnSolver, step) -> tuple[int, ...]:
    """The letters of the symmetrized relator a step refers to."""
    ls = solver.words[step.relator].letters
    return (ls + ls)[step.offset : step.offset + len(ls)]


def verify_trace(solver: DehnSolver, w: Word, trace, result: bool):
    """Replay the trace: each step's word is rebuilt from the one before, the
    match is checked against a relator of the symmetrized set, and the word
    must shrink at every step."""
    p = solver.presentation
    # a rotation of a relator core or its inverse is a subword of it doubled
    doubled = []
    for r in p.relators:
        core = cyclic_core(r)
        for ls in (core.letters, tuple(-x for x in reversed(core.letters))):
            doubled.append((len(ls), ReferenceDehn.chars(ls + ls)))
    cur = cyclic_core(w)
    cur = cur.letters
    for step in trace.steps:
        assert 0 <= step.rotation < len(cur)
        rotated = cur[step.rotation :] + cur[: step.rotation]
        relator = step_relator(solver, step)
        n = len(relator)
        key = ReferenceDehn.chars(relator)
        assert any(k == n and key in dbl for k, dbl in doubled)
        assert 2 * step.matched > n
        assert rotated[: step.matched] == relator[: step.matched]
        tail = relator[step.matched :]
        repl = tuple(-x for x in reversed(tail))
        nxt = Word(p.alphabet, repl + rotated[step.matched :])
        core = cyclic_core(nxt)
        assert len(core) < len(cur)
        cur = core.letters
    assert trace.final == cur
    assert result == (len(cur) == 0)


class ReferenceDehn:
    """The Dehn search as it ran on letter tuples: each step re-encodes the
    doubled word, extends gram hits letter by letter and reduces the spliced
    word as a Word.  Kept as the oracle for DehnSolver.is_trivial; it shares
    the solver's rotation classes and nothing else."""

    def __init__(self, solver: DehnSolver):
        self.alphabet = solver.presentation.alphabet
        self.words = [w.letters for w in solver.words]
        self.doubled = [self.chars(ls + ls) for ls in self.words]
        self.doubled_letters = [ls + ls for ls in self.words]
        self.grams = {}
        for wi, ls in enumerate(self.words):
            n = len(ls)
            g = min(32, n // 2 + 1)
            bucket = self.grams.setdefault(g, {})
            for t in range(n):
                bucket.setdefault(self.doubled[wi][t : t + g], []).append((wi, t))

    @staticmethod
    def chars(ls) -> str:
        return "".join(chr(0xE000 + l) for l in ls)

    def best_match_at(self, s, i, max_len):
        best = None
        for g, bucket in self.grams.items():
            if g > max_len:
                continue
            for wi, t in bucket.get(s[i : i + g], ()):
                n = len(self.words[wi])
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

    def is_trivial(self, w: Word):
        """(trivial, [(rotation, relator letters, matched)], residue)."""
        steps = []
        cur = cyclic_core(w)
        ls = cur.letters
        while ls:
            n = len(ls)
            s = self.chars(ls + ls)
            found = None
            for i in range(n):
                found = self.best_match_at(s, i, n)
                if found:
                    break
            if not found:
                break
            l, wi, t = found
            rotated = ls[i:] + ls[:i]
            relator = self.doubled_letters[wi][t : t + len(self.words[wi])]
            repl = tuple(-x for x in reversed(relator[l:]))
            core = cyclic_core(Word(self.alphabet, repl + rotated[l:]))
            steps.append((i, relator, l))
            ls = core.letters
        return not ls, steps, ls


def assert_matches_reference(solver: DehnSolver, reference: ReferenceDehn, w: Word) -> bool:
    """The solver and the reference take the same steps to the same residue;
    the solver's trace also replays.  Returns the verdict."""
    trivial, trace = solver.is_trivial(w)
    ref_trivial, ref_steps, ref_final = reference.is_trivial(w)
    got = [(step.rotation, step_relator(solver, step), step.matched) for step in trace.steps]
    assert got == ref_steps
    assert trace.final == ref_final
    assert trivial == ref_trivial
    verify_trace(solver, w, trace, trivial)
    return trivial


def test_dehn_refuses_without_c16():
    p = parse_presentation("< a, b | [a, b] >")  # C'(1/3) but not C'(1/6)
    with pytest.raises(SmallCancellationError):
        DehnSolver(p)


def test_dehn_kills_relators():
    solver = DehnSolver(SURFACE)
    for r in SURFACE.relators:
        ok, trace = solver.is_trivial(r)
        assert ok
        verify_trace(solver, r, trace, ok)
    # rotations and inverses of relators die too
    r = SURFACE.relators[0]
    ls = r.letters
    for k in range(len(ls)):
        ok, _ = solver.is_trivial(Word(SURFACE.alphabet, ls[k:] + ls[:k]))
        assert ok
    ok, _ = solver.is_trivial(~r)
    assert ok


def test_dehn_identity_and_conjugates():
    solver = DehnSolver(SURFACE)
    ok, trace = solver.is_trivial(Word.identity(SURFACE.alphabet))
    assert ok and trace.steps == []
    x = SURFACE.word("a b^-1 c")
    r = SURFACE.relators[0]
    ok, trace = solver.is_trivial(x * r * ~x)
    assert ok
    verify_trace(solver, x * r * ~x, trace, ok)


def rand_word_over(rng, ab, n):
    g = len(ab)
    ls = []
    while len(ls) < n:
        l = rng.choice([1, -1]) * rng.randrange(1, g + 1)
        if ls and ls[-1] == -l:
            continue
        ls.append(l)
    return Word(ab, ls)


def test_dehn_conjugate_products_complete():
    # products of <= 5 conjugates of relators must come back trivial
    rng = random.Random(4057)
    solver = DehnSolver(SURFACE)
    r = SURFACE.relators[0]
    for _ in range(50):
        w = Word.identity(SURFACE.alphabet)
        for _ in range(rng.randrange(1, 6)):
            x = rand_word_over(rng, SURFACE.alphabet, rng.randrange(0, 5))
            e = rng.choice([1, -1])
            w = w * (x * (r if e > 0 else ~r) * ~x)
        ok, trace = solver.is_trivial(w)
        assert ok, w.text()
        verify_trace(solver, w, trace, ok)


def test_dehn_nontrivial_words():
    solver = DehnSolver(SURFACE)
    for text in ["a", "a b", "[a, b]", "c d c^-1 d^-1", "a^3"]:
        w = SURFACE.word(text)
        ok, trace = solver.is_trivial(w)
        assert not ok
        verify_trace(solver, w, trace, ok)
        assert trace.final  # a nonempty irreducible residue


def test_dehn_wrapped_match_found():
    # a cyclic conjugate splits the >half subword across the word's ends;
    # the doubled-word search must still find it
    solver = DehnSolver(SURFACE)
    r = SURFACE.relators[0]
    ls = r.letters
    w = Word(SURFACE.alphabet, ls[5:] + ls[:5])
    ok, _ = solver.is_trivial(w)
    assert ok


def test_dehn_word_search_reads_the_deadline():
    solver = DehnSolver(SURFACE)
    with pytest.raises(BudgetExhausted):
        solver.is_trivial(SURFACE.relators[0], Budget.start(time_limit_s=0.0))


def test_piece_check_reads_the_deadline_before_the_match_scan():
    # the suffix sort is the first stage; a spent deadline must stop the
    # check there, before the match scan runs
    with pytest.raises(BudgetExhausted) as info:
        check_metric(SURFACE, 6, Budget.start(time_limit_s=0.0))
    names = [entry.name for entry in info.traceback]
    assert "_suffix_array" in names and "_max_matches" not in names


def test_packed_first_round_reads_the_deadline():
    # the surface relator's first-copy suffixes differ within one packed
    # key, so its sort ends with the packed first round and never doubles;
    # a spent deadline still stops the sort in that round
    real, levels = cancellation._suffix_array, []

    def sort(*args):
        out = real(*args)
        levels.append(out[1])
        return out

    with mock.patch.object(cancellation, "_suffix_array", sort):
        check_metric(SURFACE, 6)
        assert levels == [[]]
        with pytest.raises(BudgetExhausted) as info:
            check_metric(SURFACE, 6, Budget.start(time_limit_s=0.0))
    assert info.traceback[-2].name == "_suffix_array"


def test_dehn_alphabet_guard():
    solver = DehnSolver(SURFACE)
    with pytest.raises(SmallCancellationError):
        solver.is_trivial(Word(Alphabet(["x"]), (1,)))


def test_dehn_large_alphabet_letters():
    # letters are shifted by the alphabet size, so every one has a code point
    n = 60000
    ab = Alphabet([f"g{i}" for i in range(1, n + 1)])
    solver = DehnSolver(Presentation(ab, ()))
    ok, trace = solver.is_trivial(Word(ab, (-n, 1, n, 1)))
    assert not ok and trace.final == (-n, 1, n, 1)


# --- the splice loop against the reference -----------------------------------

SURFACE_SOLVER = DehnSolver(SURFACE)
SURFACE_REFERENCE = ReferenceDehn(SURFACE_SOLVER)
SURFACE_LETTER = st.integers(1, 4).flatmap(lambda g: st.sampled_from((g, -g)))


@st.composite
def surface_conjugate_products(draw):
    """Products of one to five conjugates of the surface relator or its
    inverse, each by a word of up to six letters, not reduced."""
    r = SURFACE.relators[0]
    w = Word.identity(SURFACE.alphabet)
    for _ in range(draw(st.integers(1, 5))):
        x = Word(SURFACE.alphabet, draw(st.lists(SURFACE_LETTER, max_size=6)))
        w = w * x * (r if draw(st.booleans()) else ~r) * ~x
    return w


@settings(max_examples=300, deadline=None)
@given(st.lists(SURFACE_LETTER, max_size=40))
def test_dehn_matches_reference_on_surface_words(ls):
    assert_matches_reference(SURFACE_SOLVER, SURFACE_REFERENCE, Word(SURFACE.alphabet, ls))


@settings(max_examples=200, deadline=None)
@given(surface_conjugate_products())
def test_dehn_matches_reference_on_surface_conjugate_products(w):
    assert assert_matches_reference(SURFACE_SOLVER, SURFACE_REFERENCE, w)


@pytest.fixture(scope="module")
def rips_a5_12():
    a5 = parse_presentation((Path(__file__).parent / "fixtures" / "a5.pres").read_text())
    gamma = rips(a5, 12).gamma
    solver = DehnSolver(gamma)
    return solver, ReferenceDehn(solver)


def test_dehn_matches_reference_on_rips_relator_products(rips_a5_12):
    # acceptance criterion 8's trivial words: products of conjugated relators
    solver, reference = rips_a5_12
    gamma = solver.presentation
    rng = random.Random(0xD2)
    for _ in range(100):
        w = Word.identity(gamma.alphabet)
        for _ in range(rng.randint(1, 5)):
            r = rng.choice(gamma.relators)
            r = r.inverse() if rng.random() < 0.5 else r
            g = rand_word_over(rng, gamma.alphabet, rng.randint(0, 8))
            w = w * g * r * g.inverse()
        assert assert_matches_reference(solver, reference, w.reduce())


def test_dehn_matches_reference_on_rips_random_words(rips_a5_12):
    # random words and relator halves spliced into them, so that some steps
    # are taken and some words die only part of the way
    solver, reference = rips_a5_12
    gamma = solver.presentation
    rng = random.Random(0xD3)
    for _ in range(150):
        w = rand_word_over(rng, gamma.alphabet, rng.randint(1, 30))
        r = rng.choice(gamma.relators).letters
        k = rng.randint(len(r) // 2, len(r))
        w = w * Word(gamma.alphabet, r[:k]) * rand_word_over(rng, gamma.alphabet, rng.randint(0, 10))
        assert_matches_reference(solver, reference, w)
