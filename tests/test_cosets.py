"""Coset enumeration, Reidemeister-Schreier, and low-index search."""

import random
import time
import tracemalloc
import warnings
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fpgroups import cancellation
from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.construct import uce
from fpgroups.cosets import (
    _canonicity,
    _col,
    _compiled_relators,
    _count_indices,
    _cycle_fits,
    _renumbered,
    CosetError,
    CosetTable,
    SchreierRewriter,
    fingerprint_compare,
    low_index,
    reidemeister_schreier,
    todd_coxeter,
)
from fpgroups.homology import _coinvariant_rows
from fpgroups.permrep import hom_search, symmetric_group
from fpgroups.presentations import (
    Presentation,
    catalog,
    direct_product,
    load_presentation,
    parse_presentation,
    parse_word,
)
from fpgroups.zlattice import abelianization, exponent_matrix, smith_normal_form
from fpgroups.words import Alphabet, Word

FIXTURES = Path(__file__).parent / "fixtures"


def quiet(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_presentation(text)


Z5 = parse_presentation("< a | a^5 >")
A5 = catalog("A5").presentation
F2 = parse_presentation("< a, b | >")
_AB = Alphabet(["a", "b"])


def _renumbered_rows(rows: list[list[int]], base: int, n: int) -> list[list[int]]:
    """_renumbered on a row-per-coset table, as it stood before HLT moved to
    column arrays: the oracle of _renumbered, and the renumbering of the
    row-based oracles below."""
    newidx = [-1] * len(rows)
    newidx[base] = 0
    order = [base]
    for c in order:  # grows while it is walked
        for d in rows[c]:
            if newidx[d] < 0:
                newidx[d] = len(order)
                order.append(d)
    if len(order) != n:
        raise CosetError("table is not transitive")
    return [[newidx[rows[c][col]] for c in order] for col in range(len(rows[base]))]


def _is_standardized(t):
    return _renumbered(t.action, 0, t.n) == t.action


def _trace(t, c, w):
    """The coset that w leads c to in t."""
    for l in w.letters:
        c = t.action[2 * (abs(l) - 1) + (l < 0)][c]
    return c


# -- Todd-Coxeter -----------------------------------------------------------


def test_tc_cyclic_five():
    t = todd_coxeter(Z5)
    assert isinstance(t, CosetTable)
    assert t.n == 5
    assert _is_standardized(t)
    assert t.verify(Z5)
    # a acts as a 5-cycle; numbering follows BFS over (a, a^-1) columns
    perm = tuple(t.action[0])  # column 2i holds generator i's images
    assert perm == (1, 3, 0, 4, 2)
    seen, c = {0}, 0
    for _ in range(4):
        c = perm[c]
        seen.add(c)
    assert seen == {0, 1, 2, 3, 4}


def test_tc_a5_order():
    t = todd_coxeter(A5)
    assert isinstance(t, CosetTable)
    assert t.n == 60
    assert t.verify(A5)


def test_tc_subgroup_index():
    # <a> in A5 has order 2, index 30
    a = A5.word("a")
    t = todd_coxeter(A5, (a,))
    assert t.n == 30
    assert _trace(t, 0, a) == 0
    # <b> has order 3, index 20; <ab> order 5, index 12
    assert todd_coxeter(A5, (A5.word("b"),)).n == 20
    assert todd_coxeter(A5, (A5.word("a b"),)).n == 12


def test_tc_whole_group_subgroup():
    t = todd_coxeter(A5, (A5.word("a"), A5.word("b")))
    assert t.n == 1


def test_tc_deterministic():
    t1 = todd_coxeter(A5)
    t2 = todd_coxeter(A5)
    assert t1.action == t2.action


def test_tc_exhaustion_is_a_value():
    # F2 is infinite: the cap is raised as BudgetExhausted, with what it spent
    with pytest.raises(BudgetExhausted) as r:
        todd_coxeter(F2, budget=Budget.start(max_cosets=200))
    assert r.value.cosets_used <= 200
    assert r.value.what == "coset cap"


def test_tc_time_limit():
    with pytest.raises(BudgetExhausted) as r:
        todd_coxeter(F2, budget=Budget.start(time_limit_s=0.0, max_cosets=10**9))
    assert r.value.what == "time limit"
    assert r.value.cosets_used == 1


def test_tc_trivial_quotient():
    p = parse_presentation("< a | a >")
    t = todd_coxeter(p)
    assert t.n == 1


def test_tc_klein_bottle_quotient():
    # <a,b | a^2, b^2, (ab)^2> = V4
    p = parse_presentation("< a, b | a^2, b^2, (a b)^2 >")
    assert todd_coxeter(p).n == 4


def test_table_permutations():
    t = todd_coxeter(Z5)
    assert t.n == 5
    i = t.alphabet.index("a")
    assert 2 * i == 0  # generator a's images are column 0, 0-based
    assert sorted(t.action[2 * i]) == [0, 1, 2, 3, 4]
    assert _is_standardized(t)


def test_verify_catches_broken_table():
    t = todd_coxeter(Z5)
    bad = CosetTable(t.alphabet, [list(t.action[0]), list(t.action[1])], t.subgroup_gens)
    bad.action[0][0] = 0  # a no longer a bijection consistent with a^-1
    with pytest.raises(CosetError):
        bad.verify(Z5)


def test_verify_checks_subgroup_generators():
    a = A5.word("a")
    t = todd_coxeter(A5, (a,))
    lying = CosetTable(t.alphabet, t.action, (A5.word("b"),))
    with pytest.raises(CosetError, match="moves coset 1"):
        lying.verify(A5)


def test_verify_walks_every_relator_from_every_coset():
    # a fixes coset 1 and swaps 2 and 3: a^2 closes everywhere, a^3 first
    # fails at coset 2
    swap = CosetTable(Z5.alphabet, [[0, 2, 1], [0, 2, 1]])
    assert swap.verify(parse_presentation("< a | a^2 >"))
    with pytest.raises(CosetError, match="'a\\^3' does not close at coset 2"):
        swap.verify(parse_presentation("< a | a^2, a^3 >"))
    # coset 1 reaches no other coset, so the walk renumbers no table
    with pytest.raises(CosetError, match="not transitive"):
        _renumbered(swap.action, 0, 3)


def test_standardize_idempotent():
    t = todd_coxeter(A5, (A5.word("a b"),))
    assert _is_standardized(t)


def test_tc_cap_counts_cosets_defined():
    # (2,3,7) is infinite and its enumeration merges cosets on the way, so
    # fewer are live than defined when the cap runs out
    with pytest.raises(BudgetExhausted) as r:
        todd_coxeter(
            parse_presentation("< a, b | a^2, b^3, (a b)^7 >"), budget=Budget.start(max_cosets=2000)
        )
    assert r.value.what == "coset cap"
    assert r.value.cosets_used == 2000


_A5XPSL27 = parse_presentation(
    "< a, b, c, d | a^2, b^3, (a b)^5, c^2, d^3, (c d)^7, (c d c d^-1)^4, "
    "[a, c], [a, d], [b, c], [b, d] >"
)


@pytest.mark.parametrize(
    "p, cap, index",
    [(_A5XPSL27, 32_725, 60 * 168), (uce(A5).tilde, 15_230, 120)],
    ids=["a5xpsl27", "uce_a5"],
)
def test_tc_defines_its_cosets_in_a_fixed_order(p, cap, index):
    # the enumeration closes having defined exactly cap cosets, so one fewer
    # runs out at the last definition
    assert todd_coxeter(p, budget=Budget.start(max_cosets=cap)).n == index
    with pytest.raises(BudgetExhausted) as r:
        todd_coxeter(p, budget=Budget.start(max_cosets=cap - 1))
    assert (r.value.what, r.value.cosets_used) == ("coset cap", cap - 1)


def test_tc_table_memory_is_linear_in_the_cosets():
    # 20,000 cosets on four columns: one id object per coset and one
    # pointer per slot, columns doubled as they fill
    p = parse_presentation("< a, b | a^2, b^3, (a b)^7 >")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted) as r:
            todd_coxeter(p, budget=Budget.start(max_cosets=20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.value.cosets_used == 20_000
    assert peak < 2.3e6


# -- HLT oracle ---------------------------------------------------------------


class _ReferenceEnumerator:
    """HLT as it stood before the one-pass rewrite: entries read through a
    union-find, coincidences merged lazily."""

    def __init__(self, ncols, max_cosets):
        self.tab = [[None] * ncols]
        self.parent = [0]
        self.ncols = ncols
        self.max_cosets = max_cosets

    def find(self, c):
        p = self.parent
        while p[c] != c:
            p[c] = p[p[c]]
            c = p[c]
        return c

    def new_coset(self):
        if len(self.tab) >= self.max_cosets:
            raise BudgetExhausted("coset cap")
        self.tab.append([None] * self.ncols)
        self.parent.append(len(self.tab) - 1)
        return len(self.tab) - 1

    def get(self, c, col):
        d = self.tab[c][col]
        if d is None:
            return None
        d2 = self.find(d)
        self.tab[c][col] = d2
        return d2

    def set_edge(self, c, col, d):
        pend = [(c, col, d)]
        while pend:
            c, col, d = pend.pop()
            c, d = self.find(c), self.find(d)
            e = self.get(c, col)
            if e is not None:
                if e != d:
                    self.coincide(e, d)
                continue
            self.tab[c][col] = d
            back = self.get(d, col ^ 1)
            if back is None:
                self.tab[d][col ^ 1] = c
            elif back != c:
                self.coincide(back, c)

    def coincide(self, a, b):
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            self.parent[y] = x
            for col in range(self.ncols):
                d = self.tab[y][col]
                if d is None:
                    continue
                d = self.find(d)
                e = self.get(x, col)
                if e is None:
                    self.tab[x][col] = d
                    back = self.get(d, col ^ 1)
                    if back is None:
                        self.tab[d][col ^ 1] = x
                    elif back != x:
                        queue.append((back, x))
                elif e != d:
                    queue.append((e, d))

    def scan_and_fill(self, start, cols):
        i, j = 0, len(cols) - 1
        f = b = self.find(start)
        while True:
            while i <= j and (d := self.get(f, cols[i])) is not None:
                f, i = d, i + 1
            if i > j:
                break
            while j >= i and (d := self.get(b, cols[j] ^ 1)) is not None:
                b, j = d, j - 1
            if j < i:
                break
            if i == j:
                self.set_edge(f, cols[i], b)
                return
            self.set_edge(f, cols[i], self.new_coset())
            f = self.get(f, cols[i])
            i += 1
        if f != b:
            self.coincide(f, b)


def _reference_todd_coxeter(p, subgroup=(), max_cosets=100_000):
    """The standardized action, or (reason, cosets defined) when the cap runs
    out, from full HLT passes repeated until a pass changes nothing."""
    ncols = 2 * len(p.alphabet)
    e = _ReferenceEnumerator(ncols, max_cosets)
    to_cols = lambda w: tuple(2 * (abs(l) - 1) + (l < 0) for l in w.letters)
    rels = [to_cols(r) for r in p.relators]
    subs = [to_cols(w.reduce()) for w in subgroup]
    try:
        for cols in subs:
            e.scan_and_fill(0, cols)
        while True:
            snapshot = (len(e.tab), sum(e.find(c) == c for c in range(len(e.tab))))
            for cols in subs:
                e.scan_and_fill(e.find(0), cols)
            c = 0
            while c < len(e.tab):
                if e.find(c) == c:
                    for cols in rels:
                        e.scan_and_fill(c, cols)
                        if e.find(c) != c:
                            break
                    if e.find(c) == c:
                        for col in range(ncols):
                            if e.get(c, col) is None:
                                e.set_edge(c, col, e.new_coset())
                c += 1
            if (len(e.tab), sum(e.find(c) == c for c in range(len(e.tab)))) == snapshot:
                break
    except BudgetExhausted as ex:
        return ex.what, len(e.tab)
    live = [c for c in range(len(e.tab)) if e.find(c) == c]
    idx = {c: i for i, c in enumerate(live)}
    rows = [[idx[e.get(c, col)] for col in range(ncols)] for c in live]
    return _renumbered_rows(rows, 0, len(rows))


def _assert_matches_reference_tc(p, subgroup=(), max_cosets=100_000):
    want = _reference_todd_coxeter(p, subgroup, max_cosets)
    try:
        got = todd_coxeter(p, subgroup, Budget.start(max_cosets=max_cosets))
    except BudgetExhausted as ex:
        assert (ex.what, ex.cosets_used) == want
    else:
        assert got.action == want


_FIXTURE_NAMES = sorted(f.stem for f in FIXTURES.glob("*.pres"))


def _fixture(name):
    return load_presentation((FIXTURES / f"{name}.pres").read_text())


@pytest.mark.parametrize("cap", [50, 3000])
@pytest.mark.parametrize("name", _FIXTURE_NAMES)
def test_tc_matches_reference_on_fixtures(name, cap):
    p = _fixture(name)
    _assert_matches_reference_tc(p, (), cap)
    _assert_matches_reference_tc(p, (p.word(p.alphabet.names[0]),), cap)


@pytest.mark.parametrize(
    "left, right",
    [(a, b) for i, a in enumerate(_FIXTURE_NAMES) for b in _FIXTURE_NAMES[i:]],
)
def test_tc_matches_reference_on_direct_products(left, right):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = direct_product(_fixture(left), _fixture(right))
    _assert_matches_reference_tc(p, (), 10_000)


def test_tc_matches_reference_on_larger_groups():
    a5xpsl27 = parse_presentation(
        "< a, b, c, d | a^2, b^3, (a b)^5, c^2, d^3, (c d)^7, (c d c d^-1)^4, "
        "[a, c], [a, d], [b, c], [b, d] >"
    )
    _assert_matches_reference_tc(a5xpsl27)
    _assert_matches_reference_tc(uce(A5).tilde)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8),
             min_size=1, max_size=4),
    st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4),
             max_size=2),
    st.sampled_from([30, 300, 3000]),
)
def test_tc_matches_reference_random(relators, subgroup, cap):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # relators that reduce away, duplicates
        p = Presentation(_AB, [Word(_AB, r) for r in relators])
    _assert_matches_reference_tc(p, tuple(Word(_AB, w) for w in subgroup), cap)


# -- Reidemeister-Schreier --------------------------------------------------


def test_rs_integers_squared():
    # Z, subgroup <a^2>: index 2, rank 2*1 - 2 + 1 = 1, no relators
    z = parse_presentation("< a | >")
    t = todd_coxeter(z, (z.word("a^2"),), Budget.start(max_cosets=100))
    assert isinstance(t, CosetTable)
    assert t.n == 2
    sub = reidemeister_schreier(z, t)
    assert len(sub.generators) == 1
    assert len(sub.relators) == 0


def test_rs_free_group_index_two():
    # index-2 subgroups of F2 are free of rank 3
    t = todd_coxeter(
        F2, (F2.word("a"), F2.word("b^2"), F2.word("b a b^-1")), Budget.start(max_cosets=100)
    )
    assert t.n == 2
    sub = reidemeister_schreier(F2, t)
    assert len(sub.generators) == 2 * 2 - 2 + 1 == 3
    assert len(sub.relators) == 0


def test_rs_cyclic_six_cube():
    # <a | a^6>, subgroup <a^3>: index 3, subgroup is Z/2
    p = parse_presentation("< a | a^6 >")
    t = todd_coxeter(p, (p.word("a^3"),))
    assert t.n == 3
    sub = reidemeister_schreier(p, t)
    assert len(sub.generators) == 3 * 1 - 3 + 1 == 1
    inv = abelianization(sub)
    assert inv.free_rank == 0 and inv.torsion == (2,)


def test_rs_generator_count_formula():
    # spot-check the rank formula at several indices
    for sub_words, index in [
        (("a",), 30),
        (("b",), 20),
        (("a b",), 12),
    ]:
        t = todd_coxeter(A5, tuple(A5.word(w) for w in sub_words))
        assert t.n == index
        s = reidemeister_schreier(A5, t)
        assert len(s.generators) == index * 2 - index + 1


def test_rs_schreier_generators_lie_in_subgroup():
    # every Schreier generator must trace coset 1 to itself, freely reduced
    t = todd_coxeter(A5, (A5.word("a b"),))
    rw = SchreierRewriter(A5, t)
    for letters in rw.generators:
        w = Word(A5.alphabet, letters)
        assert w.is_reduced and _trace(t, 0, w) == 0


def test_rs_rewrite_is_homomorphism_on_subgroup_words():
    p = parse_presentation("< a | a^6 >")
    t = todd_coxeter(p, (p.word("a^3"),))
    rw = SchreierRewriter(p, t)
    u = p.word("a^3")
    ru = rw.rewrite(u)
    r2 = rw.rewrite((u * u).reduce())
    assert (ru * ru).reduce().letters == r2.letters


def test_rs_subgroup_order_agrees():
    # index 12 subgroup <ab> of A5 is Z/5; RS presentation must agree
    t = todd_coxeter(A5, (A5.word("a b"),))
    sub = reidemeister_schreier(A5, t)
    inv = abelianization(sub)
    assert inv.free_rank == 0 and inv.torsion == (5,)
    # and its own enumeration closes at order 5
    tt = todd_coxeter(sub)
    assert tt.n == 5


def test_rs_reads_the_deadline():
    t = todd_coxeter(Z5)
    with pytest.raises(BudgetExhausted):
        reidemeister_schreier(Z5, t, Budget.start(time_limit_s=0.0))


def _swapped(t, i, j):
    """t with cosets i and j (0-based) exchanged."""
    pi = list(range(t.n))
    pi[i], pi[j] = j, i
    action = [[0] * t.n for _ in t.action]
    for new, old in zip(action, t.action):
        for c in range(t.n):
            new[pi[c]] = pi[old[c]]
    return CosetTable(t.alphabet, action, t.subgroup_gens)


@pytest.mark.parametrize("i, j", [(1, 2), (0, 1), (5, 59), (30, 31), (57, 58)])
def test_rs_refuses_a_table_misflagged_standardized(i, j):
    # swapping 57 and 58 still reaches every coset in order of id; only an
    # edge to an unseen coset that is not the next id gives it away
    t = todd_coxeter(A5)
    bad = _swapped(t, i, j)
    assert bad.verify(A5) and not _is_standardized(bad)
    with pytest.raises(CosetError, match="not standardized"):
        SchreierRewriter(A5, bad)


# -- Reidemeister-Schreier oracle ---------------------------------------------


class _ReferenceRewriter:
    """SchreierRewriter as it stood before the tree was read off the
    standardized numbering: its own breadth-first search, the tree edges as
    a set of (coset, generator) pairs and a dict from pair to generator."""

    def __init__(self, p, t):
        self.p, self.t = p, t
        apply = self.apply = lambda c, l: t.action[2 * (abs(l) - 1) + (l < 0)][c]
        g = len(p.alphabet)
        tree = {}
        seen = [False] * t.n
        seen[0] = True
        order = [0]
        qi = 0
        while qi < len(order):
            c = order[qi]
            qi += 1
            for i in range(g):
                for l in (i + 1, -(i + 1)):
                    d = apply(c, l)
                    if not seen[d]:
                        seen[d] = True
                        tree[d] = (c, l)
                        order.append(d)
        tree_edges = {(c, abs(l)) if l > 0 else (apply(c, l), abs(l))
                      for d, (c, l) in tree.items()}
        self.pairs = [(c, x) for c in range(t.n) for x in range(1, g + 1)
                      if (c, x) not in tree_edges]
        self.pair_index = {pr: i for i, pr in enumerate(self.pairs)}
        self.sub_alphabet = Alphabet([f"s{i + 1}" for i in range(len(self.pairs))])
        rep_letters = [()] * t.n
        for d in order[1:]:
            c, l = tree[d]
            rep_letters[d] = rep_letters[c] + (l,)
        self.representatives = [Word(p.alphabet, ls) for ls in rep_letters]

    @property
    def rank(self):
        return len(self.pairs)

    def generator_word(self, i):
        c, x = self.pairs[i]
        rep_d = self.representatives[self.apply(c, x)]
        return (self.representatives[c] * Word(self.p.alphabet, (x,)) * rep_d.inverse()).reduce()

    def rewrite(self, w, start=0):
        out = []
        c = start
        for l in w.letters:
            c2 = self.apply(c, l)
            pair, sign = ((c, l), 1) if l > 0 else ((c2, -l), -1)
            si = self.pair_index.get(pair)
            if si is not None:
                out.append(sign * (si + 1))
            c = c2
        return Word(self.sub_alphabet, out).reduce()


def _reference_coinvariant_rows(p, t):
    """The rows g·s_i·g^-1 - s_i, each from the rewrite of the conjugate."""
    rw = _ReferenceRewriter(p, t)
    sgens = [rw.generator_word(i) for i in range(rw.rank)]
    rows = []
    for gi in range(len(p.alphabet)):
        g = Word(p.alphabet, (gi + 1,))
        for i, s in enumerate(sgens):
            row = rw.rewrite((g * s * g.inverse()).reduce(), 0).exponent_vector()
            row[i] -= 1
            rows.append(row)
    return rows


def _assert_rewriter_matches_reference(p, t, regular):
    got, want = SchreierRewriter(p, t), _ReferenceRewriter(p, t)
    assert got.rank == want.rank
    assert got.generators == [want.generator_word(i).letters for i in range(want.rank)]
    for w in (*p.relators, *t.subgroup_gens):
        for c in range(t.n):
            assert got.rewrite(w, c).letters == want.rewrite(w, c).letters, (w.text(), c)
    if regular:
        want = [{j: x for j, x in enumerate(row) if x} for row in _reference_coinvariant_rows(p, t)]
        assert list(_coinvariant_rows(p, t, Budget.start())[1]) == want


# finite-index subgroups of each fixture (bp2 has no proper one of index <= 5)
_RS_SUBGROUPS = {
    "a5": [(), ("a",), ("b",), ("a b",)],
    "baumslag25_1": [("t",), ("a^2", "t^2")],
    "baumslag25_2": [("t",), ("a^2", "t^2")],
    "bp2": [("a", "b", "alpha", "beta")],
    "free2": [("x1 x2^-1", "x2 x1", "x2^2"), ("x1", "x2 x1 x2^-1", "x2^2 x1 x2^-2", "x2^3")],
    "klein": [(), ("a",)],
    "q8": [(), ("a",)],
    "trivial": [()],
    "z5": [(), ("a^2",)],
}


@pytest.mark.parametrize("name", _FIXTURE_NAMES)
def test_rewriter_matches_reference_on_fixtures(name):
    p = _fixture(name)
    for sub in _RS_SUBGROUPS[name]:
        t = todd_coxeter(p, tuple(p.word(w) for w in sub), Budget.start(max_cosets=5000))
        assert isinstance(t, CosetTable), (name, sub)
        _assert_rewriter_matches_reference(p, t, regular=not sub)


def test_rewriter_matches_reference_on_larger_groups():
    psl27 = parse_presentation("< a, b | a^2, b^3, (a b)^7, (a b a b^-1)^4 >")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a5xz3 = direct_product(A5, catalog("cyclic", (3,)).presentation)
    for p in (psl27, uce(A5).tilde, a5xz3):
        _assert_rewriter_matches_reference(p, todd_coxeter(p), regular=True)
    _assert_rewriter_matches_reference(psl27, todd_coxeter(psl27, (psl27.word("a b"),)), False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8),
             min_size=1, max_size=4),
    st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4),
             max_size=2),
)
def test_rewriter_matches_reference_random(relators, subgroup):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # relators that reduce away, duplicates
        p = Presentation(_AB, [Word(_AB, r) for r in relators])
    sub = tuple(Word(_AB, w) for w in subgroup)
    try:
        t = todd_coxeter(p, sub, Budget.start(max_cosets=300))
    except BudgetExhausted:
        assume(False)
    _assert_rewriter_matches_reference(p, t, regular=not subgroup)


# -- low-index search -------------------------------------------------------


def test_low_index_integers():
    # Z has exactly one subgroup of each finite index
    z = parse_presentation("< a | >")
    f = low_index(z, 5)
    assert f.complete
    assert f.totals == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
    assert f.classes == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


def test_low_index_free_two_small():
    # index 2 in F2: 3 subgroups (kernels of the three epis onto C2)
    f = low_index(F2, 3)
    assert f.totals[1] == 1
    assert f.totals[2] == 3
    # Hall's recursion: N_{F2}(3) = 13
    assert f.totals[3] == 13
    assert f.classes[2] == 3  # index 2 means normal: classes = totals


def test_low_index_totals_at_least_classes():
    f = low_index(A5, 5)
    for k in f.totals:
        assert f.totals[k] >= f.classes[k]
        assert f.totals[k] >= 0


def test_low_index_a5():
    f = low_index(A5, 5)
    assert f.complete
    # A5 is simple of order 60: no subgroups of index 2,3,4; five copies of A4
    assert f.totals == {1: 1, 2: 0, 3: 0, 4: 0, 5: 5}
    assert f.classes == {1: 1, 2: 0, 3: 0, 4: 0, 5: 1}


def test_low_index_index_two_count_matches_mod_two_homology():
    # subgroups of index 2 = 2^s - 1 with s the mod-2 rank of H1
    cases = [
        "< a | a^2 >",
        "< a, b | >",
        "< a, b | a^2, b^2 >",
        "< a | a^6 >",
        "< a, b | a^2, b^3, (a b)^5 >",
        "< a, b, c | a^4, b^2 >",
    ]
    for text in cases:
        p = quiet(text)
        diag = smith_normal_form(exponent_matrix(p)).diagonal()
        cols = len(p.generators)
        rank_mod2 = cols - sum(1 for d in diag if d % 2 == 1 and d != 0)
        f = low_index(p, 2)
        assert f.totals[2] == 2 ** rank_mod2 - 1, text


def test_low_index_symmetric_three():
    s3 = parse_presentation("< a, b | a^2, b^3, (a b)^2 >")
    f = low_index(s3, 6)
    # S3: subgroups 1, <(12)>x3, <(123)>, S3 -> indices 6,3,2,1
    assert f.totals == {1: 1, 2: 1, 3: 3, 4: 0, 5: 0, 6: 1}
    assert f.classes == {1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 1}


def _class_key(rows: list[list[int]]) -> tuple:
    """Least serialization over all basepoints of the complete table whose
    row c lists the images of coset c."""
    k = len(rows)
    return min(tuple(map(tuple, _renumbered_rows(rows, b, k))) for b in range(k))


def _rotations(p: Presentation, budget: Budget) -> list[tuple]:
    """Per column, every distinct rotation of every relator and of its
    inverse that starts with that column, as a pair: its columns and their
    inverse columns.  Each rotation is its own tuple, so the memory is
    quadratic in relator length; the oracle of _compiled_relators's
    rotations and the form _unpruned_count_index reads."""
    by_col: list[dict[tuple[int, ...], None]] = [{} for _ in range(2 * len(p.alphabet))]
    for r in p.relators:
        for ls in (r.letters, tuple(-l for l in reversed(r.letters))):
            cols = tuple(_col(l) for l in ls)
            for i in range(len(cols)):
                w = cols[i:] + cols[:i]
                by_col[w[0]][w] = None
        budget.check()
    return [tuple((w, tuple(x ^ 1 for x in w)) for w in d) for d in by_col]


def _cyclic_cores(p: Presentation) -> Presentation:
    """The presentation of p's relators' cyclic cores."""
    cores = []
    for r in p.relators:
        ls = r.letters
        i, j = 0, len(ls)
        while j - i >= 2 and ls[i] == -ls[j - 1]:
            i += 1
            j -= 1
        cores.append(Word(p.alphabet, ls[i:j]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cores that coincide
        return Presentation(p.alphabet, cores)


def _branched(p: Presentation) -> list[bool]:
    """The columns the low-index search branches on."""
    return _compiled_relators(p, Budget.start())[2]


def _unpruned_count_index(
    rots: list[tuple], orders: list[int], branched: list[bool], k: int, budget: Budget
) -> tuple[int, int]:
    """(total, classes) of index exactly k by Sims' search to index k alone,
    without the canonicity prune or levels, the oracle of _count_indices's
    counts: it visits every subgroup's table and counts classes by the least
    serialization over all basepoints of each complete table (_class_key)."""
    if k > budget.max_cosets:
        raise BudgetExhausted("coset cap")
    ncols = len(rots)
    # lims[col] is D for the generator of col, 0 when it has no power relator
    lims = [max(d for d in range(1, min(n, k) + 1) if n % d == 0) if n else 0 for n in orders]
    # A coset is held as its row offset c·ncols, so a trace step is one
    # index: tab[c·ncols + col] is the offset of c's image under col, or -1
    # while undefined.
    tab = [-1] * (k * ncols)
    log: list[int] = []  # slots defined along the current branch, in order
    total = 0
    class_keys: set[tuple] = set()

    def deduce(c: int, col: int) -> bool:
        """Close the table under deductions through the defined edge
        c --col-->.  Returns False on a dead end; defined slots are logged."""
        queue = [(c, col)]
        while queue:
            c, col = queue.pop()
            first = tab[c + col]
            lim = lims[col]
            if lim and not _cycle_fits(tab, c, col, lim, orders[col]):
                return False
            for w, winv in rots[col]:
                L = len(w)
                f = first
                i = 1
                while i < L:
                    d = tab[f + w[i]]
                    if d < 0:
                        break
                    f = d
                    i += 1
                else:
                    if f != c:
                        return False
                    continue
                b = c
                j = L - 1
                while j > i:
                    d = tab[b + winv[j]]
                    if d < 0:
                        break
                    b = d
                    j -= 1
                if j == i:  # single gap: forced edge f --w[i]--> b
                    back = b + winv[i]
                    if tab[back] >= 0:
                        return False
                    fwd = f + w[i]
                    tab[fwd] = b
                    tab[back] = f
                    log.append(fwd)
                    log.append(back)
                    queue.append((f, w[i]))
        return True

    def rec(n: int, slot: int) -> None:
        nonlocal total
        budget.check()
        end = n * ncols
        try:
            slot = tab.index(-1, slot, end)
            while not branched[slot % ncols]:
                slot = tab.index(-1, slot + 1, end)
        except ValueError:  # no undefined branched slot: a complete table on n cosets
            if n == k:
                if -1 in tab:
                    raise CosetError("internal: deduction left a defined generator's slot open")
                total += 1
                rows = [[d // ncols for d in tab[c : c + ncols]] for c in range(0, end, ncols)]
                class_keys.add(_class_key(rows))
            return
        col = slot % ncols
        c = slot - col
        inv = col ^ 1
        targets = [d for d in range(0, end, ncols) if tab[d + inv] < 0]
        if n < k:
            targets.append(end)
        for d in targets:
            mark = len(log)
            tab[slot] = d
            tab[d + inv] = c
            log.append(slot)
            log.append(d + inv)
            if deduce(c, col):
                rec(n + (d == end), slot + 1)
            for s in log[mark:]:
                tab[s] = -1
            del log[mark:]

    try:
        rec(1, 0)
    finally:
        # rec holds itself through its closure cell; emptying the cell frees
        # the search state now, not at the next cyclic collection
        del rec
    return total, len(class_keys)


def _reference_count(p, k: int) -> tuple[int, int]:
    """(total, classes) at index exactly k by a plain reference search: the
    same branching as low_index, but the table is copied on every branch and
    closed by rescanning every relator at every coset until nothing
    changes."""
    ncols = 2 * len(p.alphabet)
    rels = [[2 * (abs(l) - 1) + (l < 0) for l in r.letters] for r in p.relators]
    keys = set()
    total = 0

    def closed(tab) -> bool:
        changed = True
        while changed:
            changed = False
            for w in rels:
                for c in range(len(tab)):
                    f, i = c, 0
                    while i < len(w) and tab[f][w[i]] is not None:
                        f, i = tab[f][w[i]], i + 1
                    if i == len(w):
                        if f != c:
                            return False
                        continue
                    b, j = c, len(w) - 1
                    while j > i and tab[b][w[j] ^ 1] is not None:
                        b, j = tab[b][w[j] ^ 1], j - 1
                    if j == i:
                        if tab[b][w[i] ^ 1] is not None:
                            return False
                        tab[f][w[i]], tab[b][w[i] ^ 1] = b, f
                        changed = True
        return True

    def rec(tab):
        nonlocal total
        slot = next(((c, col) for c, row in enumerate(tab) for col in range(ncols)
                     if row[col] is None), None)
        if slot is None:
            if len(tab) == k:
                total += 1
                keys.add(_class_key(tab))
            return
        c, col = slot
        for d in [d for d in range(len(tab)) if tab[d][col ^ 1] is None] + (
            [len(tab)] if len(tab) < k else []
        ):
            t2 = [row[:] for row in tab] + ([[None] * ncols] if d == len(tab) else [])
            t2[c][col], t2[d][col ^ 1] = d, c
            if closed(t2):
                rec(t2)

    rec([[None] * ncols])
    return total, len(keys)


def _assert_matches_reference(p, bound: int) -> None:
    f = low_index(p, bound)
    assert f.complete
    for k in range(1, bound + 1):
        assert (f.totals[k], f.classes[k]) == _reference_count(p, k), k


@pytest.mark.parametrize(
    "name, bound",
    [("a5", 5), ("q8", 5), ("klein", 5), ("z5", 5), ("baumslag25_1", 5),
     ("baumslag25_2", 5), ("trivial", 5), ("free2", 5), ("bp2", 5)],
)
def test_low_index_matches_reference_search(name, bound):
    _assert_matches_reference(load_presentation((FIXTURES / f"{name}.pres").read_text()), bound)


_TWO_GENERATOR_RELATORS = st.lists(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6), min_size=1, max_size=3
)


def _presentation(alphabet: Alphabet, relators) -> Presentation:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # relators that reduce away, duplicates
        return Presentation(alphabet, [Word(alphabet, r) for r in relators])


@settings(max_examples=200, deadline=None)
@given(_TWO_GENERATOR_RELATORS)
# b is alone in the core b of a b a^-1, so nothing defines it
@example([[1, 2, -1]])
def test_low_index_matches_reference_search_random(relators):
    _assert_matches_reference(_presentation(_AB, relators), 4)


_ABC = Alphabet(["a", "b", "c"])

# a generator g, the sign it has in its defining relator, the letters u of the
# other two generators around it, where it stands in u, whether the defining
# relator comes first, and the other relators
_DEFINED_GENERATOR_ARGS = (
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, -1]),
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5),
    st.integers(0, 5),
    st.booleans(),
    st.lists(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=5),
             max_size=2),
)


def _defined_generator_relators(g, sign, u, at, first, relators) -> list[list[int]]:
    """relators with one more that holds g once, between the letters u of the
    other two generators, so the search may leave g's columns to deduction."""
    others = [h for h in (1, 2, 3) if h != g]
    u = [others[abs(l) - 1] * (1 if l > 0 else -1) for l in u]
    at %= len(u) + 1
    defining = u[:at] + [sign * g] + u[at:]
    return [defining] + relators if first else relators + [defining]


@settings(max_examples=200, deadline=None)
@given(*_DEFINED_GENERATOR_ARGS)
# a defined with its own power relator: _cycle_fits runs on forced a-edges
@example(1, 1, [1, 2, 1], 0, True, [[1, 1, 1]])
@example(3, -1, [1, 2, -1, -2], 0, True, [])  # c^-1 a b a^-1 b^-1
@example(3, -1, [1, 2, -1, -2], 4, False, [])  # a b a^-1 b^-1 c^-1
def test_low_index_defined_generator_matches_reference_random(g, sign, u, at, first, relators):
    # the reference search branches on every column and rescans every relator
    p = _presentation(_ABC, _defined_generator_relators(g, sign, u, at, first, relators))
    assume(not all(_branched(p)))  # u may reduce away
    _assert_matches_reference(p, 4)


def _assert_matches_unpruned(p, bound: int) -> None:
    budget = Budget.start()
    rots, orders, branched = _compiled_relators(p, budget)
    levels = list(_count_indices(rots, orders, branched, bound, budget))
    assert len(levels) == bound
    oracle = _rotations(_cyclic_cores(p), budget)
    for k, counts in enumerate(levels, 1):
        assert counts == _unpruned_count_index(oracle, orders, branched, k, budget), k


@settings(max_examples=200, deadline=None)
@given(_TWO_GENERATOR_RELATORS)
@example([[1, 2, -1]])  # the core b
@example([[1, 2, 1, 2], [-2, -1, -2, -1]])  # a proper power and its inverse
@example([[1, 2, -1, -2]])  # a commutator, whose inverse is another class
def test_compiled_rotations_match_the_oracle_random(relators):
    # per column, the rotations w[o:e] listed are distinct, start with that
    # column, and are the oracle's rotations of the cyclic cores
    p = _presentation(_AB, relators)
    rots = _compiled_relators(p, Budget.start())[0]
    oracle = _rotations(_cyclic_cores(p), Budget.start())
    assert len(rots) == len(oracle)
    for col, (listed, want) in enumerate(zip(rots, oracle)):
        got = [w[o:e] for w, _, o, e in listed]
        assert len(set(got)) == len(got) and all(r[0] == col for r in got)
        assert all(winv[o:e] == tuple(x ^ 1 for x in w[o:e]) for w, winv, o, e in listed)
        assert set(got) == {w for w, _ in want}, col


def test_compiled_relators_memory_is_linear():
    # one random 3,000-letter relator: the compiled rotations share their
    # class's doubled tuples, about 1.1 MB traced; a tuple per rotation held
    # 289 MB
    rng = random.Random(0)
    letters = [1]
    while len(letters) < 3000:
        l = rng.choice([1, -1, 2, -2])
        if l != -letters[-1] and (len(letters) < 2999 or l != -letters[0]):
            letters.append(l)
    p = Presentation(_AB, [Word(_AB, letters)])
    tracemalloc.start()
    try:
        rots = _compiled_relators(p, Budget.start())[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, rots)) == 2 * 3000
    assert peak < 4e6


@settings(max_examples=200, deadline=None)
@given(_TWO_GENERATOR_RELATORS, st.sampled_from([1, -1, 2, -2]), st.integers(0, 8))
@example([[1, 2, -1, -2]], 1, 0)  # Z^2: every subgroup is normal
@example([[1, 1], [2, 2, 2], [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]], 1, 0)  # A5
def test_count_index_matches_the_unpruned_search_random(relators, x, n):
    # from n = 2 on, the power relator x^n also prunes by cycle type
    p = _presentation(_AB, relators + ([[x] * n] if n > 1 else []))
    _assert_matches_unpruned(p, 5)


@settings(max_examples=150, deadline=None)
@given(*_DEFINED_GENERATOR_ARGS, st.integers(0, 6))
@example(3, -1, [1, 2, -1, -2], 4, False, [], 0)  # c = [a, b]: F_2
@example(1, 1, [1, 2, 1], 0, True, [], 3)  # a = b^-1 c^-1 b^-1 and a^3
def test_count_index_matches_the_unpruned_search_defined_random(
    g, sign, u, at, first, relators, n
):
    # from n = 2 on, a^n also prunes by cycle type, a defined generator's too
    rels = _defined_generator_relators(g, sign, u, at, first, relators)
    p = _presentation(_ABC, rels + ([[1] * n] if n > 1 else []))
    assume(not all(_branched(p)))
    _assert_matches_unpruned(p, 5)


def _permutation_rows(perms: list[list[int]]) -> list[list[int]]:
    """Row c lists the images of point c under each generator and its
    inverse, for generators given as 0-based image lists."""
    invs = []
    for g in perms:
        inv = [0] * len(g)
        for c, d in enumerate(g):
            inv[d] = c
        invs.append(inv)
    return [[h[c] for g, inv in zip(perms, invs) for h in (g, inv)] for c in range(len(perms[0]))]


@pytest.mark.parametrize(
    "text, perms, answer, s",
    [
        # Klein: the kernel of a is one of three normal subgroups of index 2
        ("< a, b | a^2, b^2, a b a^-1 b^-1 >", [[0, 1], [1, 0]], (3, 3), 2),
        # Z5: the trivial subgroup is normal, the one subgroup of index 5
        ("< a | a^5 >", [[1, 2, 3, 4, 0]], (1, 1), 5),
        # A5 on five points: the stabilizer A4 is its own normalizer, and its
        # five conjugates are one class
        (
            "< a, b | a^2, b^3, (a b)^5 >",
            [[1, 0, 3, 2, 4], [2, 1, 4, 3, 0]],
            (5, 1),
            1,
        ),
    ],
)
def test_canonicity_reads_the_normalizer_index(text, perms, answer, s):
    p = parse_presentation(text)
    rows = _permutation_rows(perms)
    k, ncols = len(rows), 2 * len(perms)
    CosetTable(p.alphabet, _renumbered_rows(rows, 0, k)).verify(p)
    f = low_index(p, k)
    assert (f.totals[k], f.classes[k]) == answer
    # the table rebased at every coset, flat and row-major, offsets for cosets
    rebased = []
    for b in range(k):
        cols = _renumbered_rows(rows, b, k)
        rebased.append([cols[col][c] * ncols for c in range(k) for col in range(ncols)])
    least = min(rebased)
    newidx, order = [-1] * (k * ncols), [0] * (k * ncols)
    for tab in rebased:
        got = _canonicity(tab, k * ncols, ncols, list(range(ncols)), newidx, order)
        assert got == (s if tab == least else 0)
        assert newidx == [-1] * (k * ncols)  # each basepoint resets what it set
    assert sum(t == least for t in rebased) == s


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.integers(1, 3), st.randoms(use_true_random=False), st.integers(0, 9))
def test_renumbered_matches_the_row_form(k, g, rng, pad):
    # random permutations, transitive or not, and columns longer than the
    # table, padded with None as the HLT table's doubled columns are
    rows = _permutation_rows([rng.sample(range(k), k) for _ in range(g)])
    cols = [list(col) + [None] * pad for col in zip(*rows)]
    for b in range(k):
        try:
            want = _renumbered_rows(rows, b, k)
        except CosetError:
            with pytest.raises(CosetError, match="not transitive"):
                _renumbered(cols, b, k)
        else:
            assert _renumbered(cols, b, k) == want


def test_canonicity_decides_nothing_past_an_undefined_slot():
    # one generator on cosets 1, 2, 3 with only 1 -> 2 -> 3 defined: rebased
    # at 2 the first slot is equal (2 -> 3, a new coset) and the table's
    # second, 1's image under a^-1, is undefined; rebased at 3 the first slot
    # is undefined
    tab = [2, -1, 4, 0, -1, 2]
    assert _canonicity(tab, 6, 2, [0, 1], [-1] * 6, [0] * 6) == 1
    # closing the path into the 3-cycle 1 -> 2 -> 3 -> 1 makes every rebasing equal
    tab = [2, 4, 4, 0, 0, 2]
    assert _canonicity(tab, 6, 2, [0, 1], [-1] * 6, [0] * 6) == 3
    # a fixed point at 3 beside 1 -> 2 is smaller rebased at 3 (a 1-cycle
    # first) and decided there, though 2's image is undefined
    tab = [2, -1, -1, 0, 4, 4]
    assert _canonicity(tab, 6, 2, [0, 1], [-1] * 6, [0] * 6) == 0


def test_low_index_defined_commutator():
    # c is defined as [a, b], so the group is free on a and b: F_2 has 71
    # subgroups of index 4
    p = parse_presentation("< a, b, c | a b a^-1 b^-1 c^-1 >")
    assert _branched(p) == [True] * 4 + [False] * 2
    totals = low_index(p, 4).totals
    assert totals == low_index(F2, 4).totals
    assert totals[4] == 71


def test_branched_columns():
    assert _branched(parse_presentation("< a | a >")) == [True, True]  # no other letter
    # a is defined by b, so b stays branched and c is defined by b
    assert _branched(parse_presentation("< a, b, c | a b, b c >")) == [
        False, False, True, True, False, False
    ]
    # the cyclic cores are read: b a b^-1 is a conjugate of a alone
    assert _branched(parse_presentation("< a, b | b a b^-1 >")) == [True] * 4
    bp2 = load_presentation((FIXTURES / "bp2.pres").read_text())
    assert bp2.generators[3] == "beta"
    assert _branched(bp2) == [True] * 6 + [False] * 2
    for name in ("baumslag25_1", "baumslag25_2", "a5"):
        p = load_presentation((FIXTURES / f"{name}.pres").read_text())
        assert all(_branched(p)), name
    assert all(_branched(quiet("< a, b | a^2, b^3, (a b)^7 >")))


def _cycle_limit(n: int, k: int) -> int:
    """The largest divisor of n that is at most k."""
    return max(d for d in range(1, k + 1) if n % d == 0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(2, 12),
    st.sampled_from(["power", "inverse", "conjugated", "two powers"]),
    st.integers(2, 12),
    st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5), max_size=2),
)
@example(1, 6, "conjugated", 2, [])
@example(2, 9, "inverse", 2, [[1, 2, -1, -2]])
@example(1, 4, "two powers", 6, [[2, 2]])
@example(1, 12, "two powers", 8, [[1, 2, 1, -2]])
def test_low_index_power_prune_matches_reference_random(x, n, form, m, relators):
    # every relator set holds a power of x, so the search prunes x-paths at
    # D = the largest divisor of the power order that is at most k; the
    # reference search closes tables by rescanning and never prunes that way
    y = 3 - x
    powers = {
        "power": [[x] * n],
        "inverse": [[-x] * n],
        "conjugated": [[y] + [x] * n + [-y]],  # not cyclically reduced
        "two powers": [[x] * n, [-x] * m],  # the gcd counts
    }[form]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = Presentation(_AB, [Word(_AB, r) for r in powers + relators])
    # the extra relators may be powers too
    order = _compiled_relators(p, Budget.start())[1][2 * (x - 1)]
    assert order and (gcd(n, m) if form == "two powers" else n) % order == 0
    bound = 5
    assert any(_cycle_limit(order, k) < k for k in range(1, bound + 1))
    _assert_matches_reference(p, bound)


def test_power_orders():
    p = parse_presentation("< a, b, c | b a^6 b^-1, a^-4, (a b)^3, c >")
    assert _compiled_relators(p, Budget.start())[1] == [2, 2, 0, 0, 1, 1]
    assert _compiled_relators(F2, Budget.start())[1] == [0, 0, 0, 0]


def test_cycle_fits():
    # one generator, flat rows of two slots (x, x^-1) at offsets 0, 2, 4
    cycle = [2, 4, 4, 0, 0, 2]  # the 3-cycle 1 -> 2 -> 3 -> 1
    path = [2, -1, 4, 0, -1, 2]  # the open path 1 -> 2 -> 3
    assert _cycle_fits(cycle, 0, 0, 3, 6)
    assert not _cycle_fits(cycle, 0, 0, 3, 4)  # 3 does not divide 4
    assert not _cycle_fits(cycle, 0, 0, 2, 6)  # walked to 3 cosets, over 2
    for c, col in [(0, 0), (2, 0), (2, 1), (4, 1)]:  # each edge, either way
        assert _cycle_fits(path, c, col, 3, 3)
        assert not _cycle_fits(path, c, col, 2, 2)


def _count_checks(monkeypatch) -> list[int]:
    """Counts Budget.check calls from now on, in the one-item list returned."""
    calls = [0]
    check = Budget.check

    def counted(self, what="time limit"):
        calls[0] += 1
        check(self, what)

    monkeypatch.setattr(Budget, "check", counted)
    return calls


def _search_nodes(monkeypatch, name: str, k: int) -> tuple[tuple[int, int], int]:
    """_count_indices's answer for a fixture at index k, and the node count of
    its search to k: Budget.check runs once per search node."""
    p = load_presentation((FIXTURES / f"{name}.pres").read_text())
    compiled = _compiled_relators(p, Budget.start())
    nodes = _count_checks(monkeypatch)
    *_, answer = _count_indices(*compiled, k, Budget.start())
    return answer, nodes[0]


def test_low_index_cycle_prune_node_count(monkeypatch):
    # the prune cut baumslag25_2 at index 8 from 38,723 nodes to 7,319, and
    # dropping non-canonical tables to 1,733
    answer, nodes = _search_nodes(monkeypatch, "baumslag25_2", 8)
    assert answer == (1, 1)
    assert 0 < nodes <= 1733


def test_low_index_defined_column_node_count(monkeypatch):
    # branching only on a, b and alpha cut bp2 at index 5 from 46,533 nodes
    # to 5,957, and dropping non-canonical tables to 3,998
    answer, nodes = _search_nodes(monkeypatch, "bp2", 5)
    assert answer == (0, 0)
    assert 0 < nodes <= 3998


def test_low_index_searches_every_index_once(monkeypatch):
    # one search serves indices 1-8: its 1,733 nodes, after compiling the
    # relators, which reads the deadline once per suffix-sort round and once
    # after the sort (4 reads here); a search per index read it 3,190 times
    p = load_presentation((FIXTURES / "baumslag25_2.pres").read_text())
    checks = _count_checks(monkeypatch)
    _compiled_relators(p, Budget.start())
    compiling = checks[0]
    assert 0 < compiling <= 4
    f = low_index(p, 8)
    assert f.complete and f.totals[8] == 1
    assert 0 < checks[0] - 2 * compiling <= 1733


def test_low_index_skips_the_match_scan_lcp(monkeypatch):
    # the rotation classes need two lcp passes over the suffix sort, one for
    # the periods and one for the classes; the match scan's third is the
    # piece checker's alone
    calls = []
    real = cancellation._lcp

    def lcp(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cancellation, "_lcp", lcp)
    p = load_presentation((FIXTURES / "baumslag25_2.pres").read_text())
    assert low_index(p, 1).totals == {1: 1}
    assert len(calls) == 2


def test_low_index_sizes_its_table_by_the_cap():
    # a bound far above the cap: the search stops at the cap's 50 cosets
    started = time.perf_counter()
    f = low_index(Z5, 10**9, Budget.start(max_cosets=50))
    assert time.perf_counter() - started < 1.0
    assert f.exhausted_at == 51 and not f.complete
    assert f.totals == {k: int(k in (1, 5)) for k in range(1, 51)}


def test_low_index_level_roots_memory():
    # the roots of the next level are the search's only store that grows:
    # about 1.3 MB at their peak here, against 0.02 MB for one search per index
    bp2 = load_presentation((FIXTURES / "bp2.pres").read_text())
    tracemalloc.start()
    try:
        f = low_index(bp2, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.complete
    assert peak < 4e6


def test_low_index_bp2_index_six():
    # B(2) has no proper subgroup of index at most 6; branching on every
    # column, this search took 11-14 s on a 2-core Xeon, and about 0.7 s
    # branching on a, b and alpha
    f = low_index(load_presentation((FIXTURES / "bp2.pres").read_text()), 6)
    assert f.complete
    assert f.totals == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}


def _hall_totals(h: dict[int, int], bound: int) -> dict[int, int]:
    """Subgroup counts a_n from h_n = |Hom(G, S_n)| by M. Hall's 1949 formula
    a_n = h_n/(n-1)! - sum_{k<n} h_{n-k} a_k/(n-k)!."""
    a: dict[int, int] = {}
    for n in range(1, bound + 1):
        x = Fraction(h[n], factorial(n - 1)) - sum(
            Fraction(h[n - k] * a[k], factorial(n - k)) for k in range(1, n)
        )
        assert x.denominator == 1
        a[n] = int(x)
    return a


@pytest.mark.parametrize(
    "name",
    ["a5", "q8", "klein", "z5", "baumslag25_1", "baumslag25_2", "trivial", "free2", "bp2"],
)
def test_low_index_totals_match_hall_formula(name):
    p = load_presentation((FIXTURES / f"{name}.pres").read_text())
    if name == "free2":  # a hom from F_2 is any pair of images
        h = {n: factorial(n) ** 2 for n in range(1, 6)}
    else:
        h = {}
        for n in range(1, 6):
            res = hom_search(p, symmetric_group(n))
            assert res.complete
            h[n] = len(res.homs)
    assert low_index(p, 5).totals == _hall_totals(h, 5)


def test_low_index_budget_flags_partial():
    f = low_index(F2, 6, Budget.start(time_limit_s=0.0))
    assert not f.complete
    assert f.exhausted_at == 1
    assert f.totals == {}


def test_low_index_deadline_covers_compiling_the_rotations():
    # ten syllable relators of about 6,400 letters: compiling them takes
    # about 0.19 s, and the suffix sort reads the deadline after each round
    # (a tuple per rotation took 0.8 s at a tenth of this length before the
    # deadline was first read)
    rng = random.Random(0)
    gens = [f"x{i}" for i in range(10)]
    relators = []
    for _ in range(10):
        syllables, prev = [], None
        for _ in range(6):
            prev = rng.choice([g for g in gens if g != prev])
            syllables.append(f"{prev}^{rng.choice([e for e in range(-2000, 2001) if e])}")
        relators.append(" ".join(syllables))
    p = parse_presentation(f"< {', '.join(gens)} | {', '.join(relators)} >")
    assert p.total_relator_length() > 50000
    t0 = time.monotonic()
    f = low_index(p, 1, Budget.start(time_limit_s=0.1))
    assert time.monotonic() - t0 < 0.3
    assert not f.complete and f.exhausted_at == 1 and f.totals == {}


def test_low_index_partial_keeps_early_indices():
    # indices 1-4 of F2 take milliseconds; index 7 alone has 29,093 subgroups
    fast = low_index(F2, 3)
    assert fast.complete  # sanity: the full search is quick

    f = low_index(F2, 8, Budget.start(time_limit_s=0.15))
    assert not f.complete
    assert f.exhausted_at >= 2
    for k in f.totals:
        assert k < f.exhausted_at
        assert f.totals[k] == low_index(F2, k).totals[k]


# -- fingerprints -----------------------------------------------------------


def test_fingerprint_compare_identical():
    r = fingerprint_compare(A5, A5, 5)
    assert r.equal is True
    assert r.first_discrepancy is None
    assert r.complete


def test_fingerprint_compare_differs():
    p2 = parse_presentation("< a | a^2 >")
    p3 = parse_presentation("< a | a^3 >")
    r = fingerprint_compare(p2, p3, 3)
    assert r.equal is False
    assert r.first_discrepancy == 2
    row = dict((k, (a, b, eq)) for k, a, b, eq in r.per_index)
    assert row[2] == (1, 0, False)


def test_fingerprint_compare_exhaustion_leaves_open():
    r = fingerprint_compare(F2, F2, 6, Budget.start(time_limit_s=0.0))
    assert r.equal is None
    assert not r.complete


def test_fingerprint_json_shape():
    f = low_index(Z5, 5)
    j = f.to_json()
    assert j["bound"] == 5
    assert j["complete"] is True
    assert j["totals"]["5"] == 1
    assert j["totals"]["2"] == 0
    r = fingerprint_compare(Z5, Z5, 2)
    assert r.to_json()["equal"] is True


def test_low_index_presentation_invariance():
    # two presentations of Z/6 must carry identical fingerprints
    p1 = parse_presentation("< a | a^6 >")
    p2 = parse_presentation("< a, b | a^2, b^3, a b a^-1 b^-1 >")
    r = fingerprint_compare(p1, p2, 6)
    assert r.equal is True
