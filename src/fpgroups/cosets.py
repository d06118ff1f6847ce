"""Coset enumeration and everything built on it.

todd_coxeter is one HLT pass (scan-and-fill of every relator at every coset
in definition order, under the run budget's coset cap and deadline) over
symmetric tables on relators compiled to columns once.  Coincidences are
processed eagerly: a dead coset's edges move to its survivor at once, so no
live row ever holds a dead coset.  The coset cap counts cosets defined, dead
ones included.  A completed table is read off the rows in one breadth-first
walk from coset 1, which drops the dead cosets and standardizes the
numbering (Sims 1994), so the output is independent of enumeration order.
Like every engine, todd_coxeter raises BudgetExhausted when the budget runs
out (the word problem behind this is undecidable in general), carrying the
cosets it defined; low_index records the first unfinished index instead.

reidemeister_schreier rewrites relator conjugates on Schreier generators of
a complete standardized table.  Its spanning tree is read off the scan order
(a standardized table numbers cosets as breadth-first search discovers
them), and each column keeps one list of edge labels, so a rewrite costs one
label and one action lookup per letter.

low_index enumerates standardized coset tables directly by Sims' search:
first-undefined-slot branching on one flat table with an undo log, closed
after each branch by deductions through the edges just defined, against
relator rotations compiled once per presentation.  It visits every subgroup
of each index exactly once; conjugacy classes are counted by rebasing each
table at every coset (one breadth-first renumbering each, the one
todd_coxeter uses) and keeping the least serialization.  Power relators
prune the search by cycle type (Sims 1994, ch. 5): when relators whose
cyclic core is x^±n exist, with n's gcd g, every x-cycle of a complete table
on k cosets has a length dividing g and at most k, so at most D, the largest
divisor of g that is at most k.  An edge that puts more than D cosets on an
open x-path, or closes an x-cycle whose length does not divide g, has no
complete table below it and is refused when it is defined.  The search
never starts an index above the budget's coset cap, since a table of index
k has k cosets.

Cosets are numbered 1..n in messages; internal arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .budget import Budget, BudgetExhausted
from .presentations import Presentation, proper_power_root
from .words import Alphabet, Word, WordError


class CosetError(ValueError):
    pass


def _col(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


class CosetTable:
    """A complete right action of the generators on cosets 1..n, numbered
    in breadth-first discovery order from coset 1.

    `action[col][c]` is the image of coset c (0-based) under column col,
    where columns alternate generator and inverse: 2i is generator i, 2i+1
    its inverse.
    """

    __slots__ = ("alphabet", "n", "action", "subgroup_gens")

    def __init__(
        self, alphabet: Alphabet, action: list[list[int]], subgroup_gens: tuple[Word, ...] = ()
    ):
        self.alphabet = alphabet
        self.action = action
        self.n = len(action[0]) if action else 0
        self.subgroup_gens = subgroup_gens

    def verify(self, p: Presentation) -> bool:
        """Re-check the full certificate: mutually inverse total columns,
        every relator closing at every coset, subgroup generators fixing
        coset 1.  Raises CosetError on any failure."""
        if p.alphabet != self.alphabet:
            raise CosetError("table alphabet does not match the presentation")
        n, action = self.n, self.action
        for i in range(len(self.alphabet)):
            fwd, bwd = action[2 * i], action[2 * i + 1]
            for c in range(n):
                d = fwd[c]
                if not (0 <= d < n) or bwd[d] != c:
                    raise CosetError(f"columns for generator {i} are not inverse at {c + 1}")

        def images(w: Word, cosets: list[int]) -> list[int]:
            # w compiled to its column arrays once, walked from every coset
            for colarr in [action[_col(l)] for l in w.letters]:
                cosets = list(map(colarr.__getitem__, cosets))
            return cosets

        every = list(range(n))
        for r in p.relators:
            ends = images(r, every)
            if ends != every:
                c = next(c for c in every if ends[c] != c)
                raise CosetError(f"relator {r.text()!r} does not close at coset {c + 1}")
        for w in self.subgroup_gens:
            if images(w, [0]) != [0]:
                raise CosetError(f"subgroup generator {w.text()!r} moves coset 1")
        return True

    def __repr__(self) -> str:
        return f"<coset table on {self.n} cosets over {self.alphabet!r}>"


def _renumbered(rows: list[list[int]], base: int, n: int) -> list[list[int]]:
    """The action, column by column, of the n cosets that rows[c][col]
    reaches from base, renumbered in breadth-first discovery order from base
    (columns scanned generator, inverse, generator, ...).  Rows the walk
    never reaches are left out."""
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


# ---------------------------------------------------------------------------
# HLT enumeration


class _Enumerator:
    """The HLT table: rows of column entries, None while undefined.  Every
    edge is stored with its inverse, and after each coincidence no live row
    holds a dead coset, so entries are read directly."""

    def __init__(self, ncols: int, max_cosets: int):
        self.tab: list[list[int | None]] = [[None] * ncols]
        self.parent = [0]  # union-find over coset ids; a live coset is its own root
        self.ncols = ncols
        self.max_cosets = max_cosets

    def find(self, c: int) -> int:
        p = self.parent
        while p[c] != c:
            p[c] = p[p[c]]
            c = p[c]
        return c

    def new_coset(self) -> int:
        n = len(self.tab)
        if n >= self.max_cosets:
            raise BudgetExhausted("coset cap")
        self.tab.append([None] * self.ncols)
        self.parent.append(n)
        return n

    def coincide(self, a: int, b: int) -> None:
        """Merge a and b and every pair that merge forces, keeping the smaller
        id (Holt's COINCIDENCE): each dead row's edges move to its survivor,
        and the back edges that pointed at the dead coset are cleared."""
        tab, parent, find = self.tab, self.parent, self.find
        dead: list[int] = []

        def merge(x: int, y: int) -> None:
            x, y = find(x), find(y)
            if x != y:
                if y < x:
                    x, y = y, x
                parent[y] = x
                dead.append(y)

        merge(a, b)
        for y in dead:  # grows while it is walked
            row = tab[y]
            for col in range(self.ncols):
                d = row[col]
                if d is None:
                    continue
                inv = col ^ 1
                tab[d][inv] = None
                x, d = find(y), find(d)
                e = tab[x][col]
                if e is not None:
                    merge(d, e)
                elif (e := tab[d][inv]) is not None:
                    merge(x, e)
                else:
                    tab[x][col] = d
                    tab[d][inv] = x

    def scan_and_fill(self, c: int, cols: tuple[int, ...]) -> None:
        """Trace cols from live coset c at both ends, defining new cosets
        until the trace closes; merge its ends if they differ."""
        tab = self.tab
        i, j = 0, len(cols) - 1
        f = b = c
        while True:
            while i <= j and (d := tab[f][cols[i]]) is not None:
                f = d
                i += 1
            if i > j:
                break
            while j >= i and (d := tab[b][cols[j] ^ 1]) is not None:
                b = d
                j -= 1
            if j < i:
                break
            if i == j:  # one gap left: the trace closes by a deduction
                tab[f][cols[i]] = b
                tab[b][cols[i] ^ 1] = f
                return
            d = self.new_coset()
            tab[f][cols[i]] = d
            tab[d][cols[i] ^ 1] = f
            f = d
            i += 1
        if f != b:
            self.coincide(f, b)


def todd_coxeter(
    p: Presentation,
    subgroup: tuple[Word, ...] | list[Word] = (),
    budget: Budget | None = None,
) -> CosetTable:
    """Enumerate cosets of ⟨subgroup⟩ ≤ the presented group.

    Returns a complete, verified, standardized CosetTable whose size is the
    exact index.  Raises BudgetExhausted, with the cosets defined as its
    cosets_used, when the budget's coset cap or deadline is hit.
    """
    budget = budget or Budget.start()
    if budget.max_cosets < 1:
        raise CosetError("max_cosets must be at least 1")
    for w in subgroup:
        if w.alphabet != p.alphabet:
            raise WordError("subgroup generator over a different alphabet")
    ncols = 2 * len(p.alphabet)
    e = _Enumerator(ncols, budget.max_cosets)
    tab, parent = e.tab, e.parent
    rel_cols = [tuple(map(_col, r.letters)) for r in p.relators]
    try:
        for w in subgroup:
            e.scan_and_fill(0, tuple(map(_col, w.reduce().letters)))
        # One pass: a relator closed at a processed coset stays closed, and a
        # merge keeps the smaller id, which the pointer has already passed.
        c = 0
        while c < len(tab):
            if c % 64 == 0:
                budget.check()
            for cols in rel_cols:
                if parent[c] != c:
                    break  # this coset died; move on
                e.scan_and_fill(c, cols)
            if parent[c] == c:
                row = tab[c]
                for col in range(ncols):
                    if row[col] is None:
                        d = e.new_coset()
                        row[col] = d
                        tab[d][col ^ 1] = c
            c += 1
    except BudgetExhausted as ex:
        raise BudgetExhausted(ex.what, len(tab)) from None

    # no live row holds a dead coset: the walk from coset 1 reaches the live ones
    live = sum(parent[c] == c for c in range(len(tab)))
    action = _renumbered(tab, 0, live)
    table = CosetTable(p.alphabet, action, tuple(w.reduce() for w in subgroup))
    table.verify(p)
    return table


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


class SchreierRewriter:
    """Rewrites words of the ambient group, started at any coset, into words
    over the Schreier generators of the subgroup at coset 1.

    A standardized table numbers cosets in breadth-first discovery order, so
    its spanning tree is read off in one scan over (coset, column): the edge
    that first reaches the next unseen id is that coset's tree edge.
    Schreier generators are indexed by the (coset, generator) pairs that are
    not tree edges, in lex order; their count is
    index·(#generators) − index + 1.  `generators[i]` holds the ambient
    letters of the i-th, and `label[col][c]` is the signed 1-based Schreier
    generator on the edge c --col-->, 0 on tree edges.
    """

    def __init__(self, p: Presentation, t: CosetTable):
        if t.alphabet != p.alphabet:
            raise CosetError("table alphabet does not match the presentation")
        self.t = t
        action = t.action
        g = len(p.alphabet)
        # fwd[i] becomes label[2i]: None until the pair (c, i+1) is met
        fwd: list[list[int | None]] = [[None] * t.n for _ in range(g)]
        pairs: list[tuple[int, int]] = []
        # the letters of each coset's tree representative and of its inverse
        rep: list[tuple[int, ...]] = [()] * t.n
        rep_inv: list[tuple[int, ...]] = [()] * t.n
        nxt = 1  # the next unseen coset
        for c in range(t.n):
            if c == nxt:  # no edge so far reached c
                raise CosetError("table is not standardized")
            for col in range(2 * g):
                d = action[col][c]
                i, inverse = divmod(col, 2)
                if d == nxt:  # tree edge: the pair (c, x), or (d, x) for x^-1
                    fwd[i][d if inverse else c] = 0
                    letter = -(i + 1) if inverse else i + 1
                    rep[d] = rep[c] + (letter,)
                    rep_inv[d] = (-letter,) + rep_inv[c]
                    nxt += 1
                elif d > nxt:
                    raise CosetError("table is not standardized")
                elif not inverse and fwd[i][c] is None:
                    pairs.append((c, i + 1))
                    fwd[i][c] = len(pairs)
        self.label: list[list[int]] = []
        for i, lab in enumerate(fwd):
            self.label += [lab, [-lab[d] for d in action[2 * i + 1]]]
        self.sub_alphabet = Alphabet([f"s{i + 1}" for i in range(len(pairs))])
        # the letters of rep(c) x rep(c·x)^-1, freely reduced as they stand:
        # (c, x) is not a tree edge, so neither junction cancels
        self.generators = [rep[c] + (x,) + rep_inv[action[2 * x - 2][c]] for c, x in pairs]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def rewrite(self, w: Word, start: int = 0) -> Word:
        """The subgroup word for rep(start) · w · rep(start·w)⁻¹.

        When w traces start back to itself (relators, subgroup elements) this
        is the rewriting of the conjugate of w by the start representative.
        """
        label, action = self.label, self.t.action
        out: list[int] = []
        c = start
        for col in map(_col, w.letters):
            s = label[col][c]
            if s:
                out.append(s)
            c = action[col][c]
        return Word(self.sub_alphabet, out).reduce()

    def exponent_sums(self, letters: Sequence[int], start: int = 0) -> dict[int, int]:
        """The nonzero exponent sums of the rewrite of the ambient word with
        these letters, started at coset start, keyed by 0-based Schreier
        generator: the signed count of the labels along the walk, as free
        reduction leaves exponent sums unchanged."""
        label, action = self.label, self.t.action
        sums: dict[int, int] = {}
        c = start
        for col in map(_col, letters):
            if s := label[col][c]:
                i = abs(s) - 1
                sums[i] = sums.get(i, 0) + (1 if s > 0 else -1)
            c = action[col][c]
        return {i: e for i, e in sums.items() if e}


def reidemeister_schreier(
    p: Presentation, t: CosetTable, budget: Budget | None = None
) -> Presentation:
    """Presentation of the subgroup behind a complete standardized table, on
    its Schreier generators.  Relators are the rewrites of every relator
    conjugate (one per coset); empty and repeated rewrites are dropped.  The
    budget's deadline is checked before each rewrite."""
    budget = budget or Budget.start()
    rw = SchreierRewriter(p, t)
    relators: list[Word] = []
    seen: set[tuple[int, ...]] = set()
    for r in p.relators:
        for c in range(t.n):
            budget.check()
            s = rw.rewrite(r, c)
            if s.letters and s.letters not in seen:
                seen.add(s.letters)
                relators.append(s)
    return Presentation(rw.sub_alphabet, relators)


# ---------------------------------------------------------------------------
# low-index subgroup enumeration


@dataclass(frozen=True)
class Fingerprint:
    """Subgroup counts by index: totals and conjugacy classes, per index
    1..bound.  Indices from exhausted_at onward (if set) were not finished
    within budget and are absent from the maps."""

    bound: int
    totals: dict[int, int]
    classes: dict[int, int]
    complete: bool
    exhausted_at: int | None = None

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "totals": {str(k): v for k, v in sorted(self.totals.items())},
            "classes": {str(k): v for k, v in sorted(self.classes.items())},
            "complete": self.complete,
            "exhausted_at": self.exhausted_at,
        }


def _class_key(rows: list[list[int]]) -> tuple:
    """Least serialization over all basepoints of the complete table whose
    row c lists the images of coset c."""
    k = len(rows)
    return min(tuple(map(tuple, _renumbered(rows, b, k))) for b in range(k))


def _rotations(p: Presentation, budget: Budget) -> list[tuple]:
    """Per column, every distinct rotation of every relator and of its
    inverse that starts with that column, as a pair: its columns and their
    inverse columns.  The work is quadratic in relator length, so the
    deadline is read after each relator."""
    by_col: list[dict[tuple[int, ...], None]] = [{} for _ in range(2 * len(p.alphabet))]
    for r in p.relators:
        for ls in (r.letters, tuple(-l for l in reversed(r.letters))):
            cols = tuple(_col(l) for l in ls)
            for i in range(len(cols)):
                w = cols[i:] + cols[:i]
                by_col[w[0]][w] = None
        budget.check()
    return [tuple((w, tuple(x ^ 1 for x in w)) for w in d) for d in by_col]


def _power_orders(p: Presentation) -> list[int]:
    """Per column, the gcd of the n over the relators whose cyclic core is
    x^±n for that column's generator x; 0 when there is none."""
    orders = [0] * len(p.alphabet)
    for r in p.relators:
        root, n = proper_power_root(r)
        if len(root.letters) == 1:
            i = abs(root.letters[0]) - 1
            orders[i] = gcd(orders[i], n)
    return [n for n in orders for _ in (0, 1)]


def _cycle_fits(tab: list[int], c: int, col: int, lim: int, n: int) -> bool:
    """Whether the defined edge c --col--> (a row offset, col of generator x
    or its inverse) lies on an open x-path through at most lim cosets or on
    a closed x-cycle whose length divides n.  Takes at most lim + 1 steps."""
    x = col & -2
    s, e = (tab[c + col], c) if col & 1 else (c, tab[c + col])  # s --x--> e
    m = 1  # edges on the path walked so far
    f = e
    while f != s:
        if m >= lim:  # m + 1 distinct cosets on an open path
            return False
        f = tab[f + x]
        if f < 0:
            break
        m += 1
    else:
        return n % m == 0
    b = s
    while (b := tab[b + x + 1]) >= 0:
        m += 1
        if m >= lim:
            return False
    return True


def _count_index(rots: list[tuple], orders: list[int], k: int, budget: Budget) -> tuple[int, int]:
    """(total subgroups, conjugacy classes) of index exactly k, for the
    relator rotations `_rotations` compiled and the power orders
    `_power_orders` read.

    Sims' search: branch on the first undefined slot in row-major order,
    trying each coset whose inverse slot is free in increasing order and then
    a new coset, so each standardized table appears once.  The table is one
    flat list of k rows with an undo log; after each branch, a deduction queue
    scans only the relator rotations through each newly defined edge, fills
    single gaps and prunes on a trace that closes off its start or a clash.
    The last edge defined on any trace triggers its scan, so a complete table
    has every relator closing at every coset.

    Every edge popped from the queue, branch or forced, of a generator x
    whose power order g is nonzero also has its x-path walked (_cycle_fits):
    a complete table on at most k cosets has only x-cycles of lengths that
    divide g, so none longer than D, the largest divisor of g that is at
    most k.  A node with a longer open x-path, or a closed x-cycle of a
    length not dividing g, has no complete table below it and is dropped.
    Raises BudgetExhausted("coset cap") when k exceeds the budget's cap.
    """
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
        except ValueError:  # no undefined slot: a complete table on n cosets
            if n == k:
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


def low_index(p: Presentation, bound: int, budget: Budget | None = None) -> Fingerprint:
    """Count all subgroups of index ≤ bound, exactly, by enumerating
    standardized coset tables: one search per index, smallest first (see
    _count_index).  Budget exhaustion flags the first index left unfinished,
    the deadline's or the first index above the coset cap; earlier indices
    stay exact."""
    if bound < 1:
        raise CosetError("bound must be at least 1")
    budget = budget or Budget.start()
    orders = _power_orders(p)
    totals: dict[int, int] = {}
    classes: dict[int, int] = {}
    exhausted_at, k = None, 1  # compiling the rotations counts towards index 1
    try:
        rots = _rotations(p, budget)
        for k in range(1, bound + 1):
            totals[k], classes[k] = _count_index(rots, orders, k, budget)
    except BudgetExhausted:
        exhausted_at = k
    return Fingerprint(
        bound=bound,
        totals=totals,
        classes=classes,
        complete=exhausted_at is None,
        exhausted_at=exhausted_at,
    )


@dataclass(frozen=True)
class FingerprintComparison:
    bound: int
    equal: bool | None  # None when exhaustion left the question open
    per_index: tuple[tuple[int, int | None, int | None, bool | None], ...]
    first_discrepancy: int | None
    complete: bool

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "equal": self.equal,
            "per_index": [
                {"index": k, "left": a, "right": b, "equal": eq}
                for k, a, b, eq in self.per_index
            ],
            "first_discrepancy": self.first_discrepancy,
            "complete": self.complete,
        }


def fingerprint_compare(
    p1: Presentation, p2: Presentation, bound: int, budget: Budget | None = None
) -> FingerprintComparison:
    """Compare subgroup-count fingerprints of two presentations up to the
    bound.  Groups with isomorphic profinite completions must agree."""
    budget = budget or Budget.start()
    f1 = low_index(p1, bound, budget)
    f2 = low_index(p2, bound, budget)
    rows = []
    first = None
    all_known = True
    for k in range(1, bound + 1):
        a = f1.totals.get(k)
        b = f2.totals.get(k)
        eq = (a == b) if (a is not None and b is not None) else None
        if eq is None:
            all_known = False
        elif not eq and first is None:
            first = k
        rows.append((k, a, b, eq))
    complete = f1.complete and f2.complete
    equal: bool | None
    if first is not None:
        equal = False
    elif all_known:
        equal = True
    else:
        equal = None
    return FingerprintComparison(
        bound=bound,
        equal=equal,
        per_index=tuple(rows),
        first_discrepancy=first,
        complete=complete,
    )
