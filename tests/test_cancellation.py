import random
import warnings
from collections import defaultdict

import pytest

from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.cancellation import (
    DehnSolver,
    SmallCancellationError,
    check_metric,
)
from fpgroups.presentations import Presentation, parse_presentation
from fpgroups.words import Alphabet, Word


# --- exhaustive piece oracle (positional convention, wrap-capped) ----------


def brute_max_pieces(p: Presentation) -> dict[int, int]:
    words: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}

    def canon(ls):
        return min(ls[k:] + ls[:k] for k in range(len(ls)))

    for r in p.relators:
        core, _ = r.cyclic_reduce()
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
        core, _ = r.cyclic_reduce()
        mx = 0
        for ls in (core.letters, tuple(-x for x in reversed(core.letters))):
            mx = max(mx, wmax[seen[canon(ls)]])
        out[idx] = mx
    return out


def quiet_presentation(names, relator_letters):
    ab = Alphabet(names)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Presentation(ab, [Word(ab, ls) for ls in relator_letters])


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
            core, _ = p.relators[occ.relator].cyclic_reduce()
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
            assert row.length == len(rel.cyclic_reduce()[0]), (trial, p.to_text())


# --- Dehn's algorithm -------------------------------------------------------

SURFACE = parse_presentation("< a, b, c, d | [a, b] [c, d] >")


def verify_trace(p: Presentation, w: Word, trace, result: bool):
    sym = set()
    for r in p.relators:
        core, _ = r.cyclic_reduce()
        for ls in (core.letters, tuple(-x for x in reversed(core.letters))):
            for k in range(len(ls)):
                sym.add(ls[k:] + ls[:k])
    cur, _ = w.cyclic_reduce()
    cur = cur.letters
    for step in trace.steps:
        assert step.before == cur
        rotated = cur[step.rotation :] + cur[: step.rotation]
        assert step.relator in sym
        n = len(step.relator)
        assert 2 * step.matched > n
        assert rotated[: step.matched] == step.relator[: step.matched]
        tail = step.relator[step.matched :]
        repl = tuple(-x for x in reversed(tail))
        nxt = Word(p.alphabet, repl + rotated[step.matched :])
        core, _ = nxt.reduce().cyclic_reduce()
        assert core.letters == step.after
        assert len(step.after) < len(step.before)
        cur = step.after
    assert trace.final == cur
    assert result == (len(cur) == 0)


def test_dehn_refuses_without_c16():
    p = parse_presentation("< a, b | [a, b] >")  # C'(1/3) but not C'(1/6)
    with pytest.raises(SmallCancellationError):
        DehnSolver(p)


def test_dehn_kills_relators():
    solver = DehnSolver(SURFACE)
    for r in SURFACE.relators:
        ok, trace = solver.is_trivial(r)
        assert ok
        verify_trace(SURFACE, r, trace, ok)
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
    verify_trace(SURFACE, x * r * ~x, trace, ok)


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
        verify_trace(SURFACE, w, trace, ok)


def test_dehn_nontrivial_words():
    solver = DehnSolver(SURFACE)
    for text in ["a", "a b", "[a, b]", "c d c^-1 d^-1", "a^3"]:
        w = SURFACE.word(text)
        ok, trace = solver.is_trivial(w)
        assert not ok
        verify_trace(SURFACE, w, trace, ok)
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


def test_dehn_alphabet_guard():
    solver = DehnSolver(SURFACE)
    with pytest.raises(SmallCancellationError):
        solver.is_trivial(Word(Alphabet(["x"]), (1,)))
