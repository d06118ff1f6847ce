"""Coset enumeration and everything built on it.

todd_coxeter is one HLT pass (scan-and-fill of every relator at every coset
in definition order, under the run budget's coset cap and deadline) on
CosetTable's column arrays, None while undefined and doubled in place as
cosets are defined.  A relator is compiled once to its column arrays, so a
trace step is one index; a trace is walked plainly first, and only one left
open is scanned from both ends and filled.  Coincidences are processed
eagerly: a dead coset's edges move to its survivor at once, so no live
coset holds a dead one.  The coset cap counts cosets defined, dead ones
included.  A completed table is read off the columns in one breadth-first
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

low_index enumerates coset tables directly by Sims' search:
first-undefined-slot branching on one flat table with an undo log, closed
after each branch by deductions through the edges just defined, against
relator rotations compiled once per presentation.  One search serves every
index up to the bound, level by level: level n holds the tables on n
cosets, each new coset's branch is kept as a root of level n + 1, and the
counts of index n are final, even under a later deadline, once level n ends.

The search branches only on the columns of a generating set.  A generator g
is defined by a relator r when g occurs in r exactly once (as g or g^-1), r
has another letter, and every other letter of r is of a branched generator.
The relators are walked in order, the generators of one relator in alphabet
order, and g is marked only if no earlier definition reads g; so
definitions are one level deep and the branched generators generate the
group.  Deduction alone fills the columns of defined generators (in B(2),
beta is defined by a and b).  A table is standardized over the branched
columns, and those columns fix its subgroup.

The search visits one table per conjugacy class (Sims 1994, ch. 5).  The
rebasings of a complete table at its k cosets, each renumbered breadth-first
from its basepoint over the branched columns, are the tables of the
subgroup's conjugates, and the class is counted at the least of them.  After
each deduction the partial table is compared with its rebasing at every
other coset, slot by slot in row-major order over the branched columns, up
to the first slot undefined on either side; a rebasing smaller there is
smaller in every completion, and the node is dropped.  A complete table that
survives counts one class of k/s subgroups, where s, the number of
basepoints whose rebasing equals the table, is the index of the subgroup in
its normalizer.

Power relators prune the search by cycle type (Sims 1994, ch. 5): when
relators whose cyclic core is x^±n exist, with n's gcd g, every x-cycle of a
complete table on at most k cosets, k the largest index searched, has a
length dividing g and at most k, so at most D, the largest divisor of g that
is at most k.  An edge that puts more than D cosets on an open x-path, or
closes an x-cycle whose length does not divide g, has no complete table
below it and is refused when it is defined.  The search stops at the
budget's coset cap, since a table of index k has k cosets.

Cosets are numbered 1..n in messages; internal arrays are 0-based.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

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
            for a in _compiled(action, w):
                cosets = list(map(a.__getitem__, cosets))
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


def _compiled(action: list[list], w: Word) -> tuple[list, ...]:
    """w as the tuple of its column arrays, so a trace step is one index:
    the walk of w from coset c is `for a in _compiled(action, w): c = a[c]`."""
    return tuple(action[_col(l)] for l in w.letters)


def _renumbered(action: list[list[int]], base: int, n: int) -> list[list[int]]:
    """The action, column by column, of the n cosets that action[col][c]
    reaches from base, renumbered in breadth-first discovery order from base
    (columns scanned generator, inverse, generator, ...).  Cosets the walk
    never reaches are left out, and so are entries past the last coset."""
    newidx = [-1] * (len(action[0]) if action else 1)
    newidx[base] = 0
    order = [base]
    for c in order:  # grows while it is walked
        for a in action:
            d = a[c]
            if newidx[d] < 0:
                newidx[d] = len(order)
                order.append(d)
    if len(order) != n:
        raise CosetError("table is not transitive")
    return [list(map(newidx.__getitem__, map(a.__getitem__, order))) for a in action]


# ---------------------------------------------------------------------------
# HLT enumeration


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
    act: list[list[int | None]] = [[None] for _ in range(2 * len(p.alphabet))]
    pairs = [(a, act[col ^ 1]) for col, a in enumerate(act)]  # (column, inverse)
    parent = [0]  # union-find over the cosets defined; a live coset is its own root

    def new_coset() -> int:
        d = len(parent)
        if d >= budget.max_cosets:
            raise BudgetExhausted("coset cap")
        if d == len(act[0]):
            for a in act:
                a += [None] * d
        parent.append(d)
        return d

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def coincide(a: int, b: int) -> None:
        """Merge a and b and every pair that forces, keeping the smaller id
        (Holt's COINCIDENCE): a dead coset's edges move to its survivor."""
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
            for fwd, inv in pairs:
                d = fwd[y]
                if d is None:
                    continue
                inv[d] = None
                x, d = find(y), find(d)
                e = fwd[x]
                if e is not None:
                    merge(d, e)
                elif (e := inv[d]) is not None:
                    merge(x, e)
                else:
                    fwd[x] = d
                    inv[d] = x

    def scan_and_fill(c: int, fw: tuple[list, ...], bw: tuple[list, ...]) -> None:
        """Trace fw from live coset c at both ends (bw[i] inverts fw[i]),
        defining new cosets until the trace closes; merge ends that differ."""
        i, j = 0, len(fw) - 1
        f = b = c
        while True:
            while i <= j and (d := fw[i][f]) is not None:
                f = d
                i += 1
            if i > j:
                break
            while j >= i and (d := bw[j][b]) is not None:
                b = d
                j -= 1
            if j < i:
                break
            if i == j:  # one gap left: the trace closes by a deduction
                fw[i][f] = b
                bw[i][b] = f
                return
            d = new_coset()
            fw[i][f] = d
            bw[i][d] = f
            f = d
            i += 1
        if f != b:
            coincide(f, b)

    rels = [(_compiled(act, r), _compiled(act, r.inverse())[::-1]) for r in p.relators]
    try:
        for w in map(Word.reduce, subgroup):
            scan_and_fill(0, _compiled(act, w), _compiled(act, w.inverse())[::-1])
        # One pass: a relator closed at a processed coset stays closed, and a
        # merge keeps the smaller id, which the pointer has already passed.
        c = 0
        while c < len(parent):
            if c % 64 == 0:
                budget.check()
            for fw, bw in rels:
                if parent[c] != c:
                    break  # this coset died; move on
                # most traces close already: walk them plainly first
                f = c
                for a in fw:
                    if (f := a[f]) is None:
                        scan_and_fill(c, fw, bw)
                        break
                else:
                    if f != c:
                        coincide(f, c)
            if parent[c] == c:
                for fwd, inv in pairs:
                    if fwd[c] is None:
                        d = new_coset()
                        fwd[c] = d
                        inv[d] = c
            c += 1
    except BudgetExhausted as ex:
        raise BudgetExhausted(ex.what, len(parent)) from None

    # no live coset holds a dead one: the walk from coset 1 reaches the live ones
    live = sum(c == d for c, d in enumerate(parent))
    table = CosetTable(p.alphabet, _renumbered(act, 0, live), tuple(w.reduce() for w in subgroup))
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
        return Word._trusted(self.sub_alphabet, tuple(out)).reduce()

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
    1..bound, from one search that finishes each index before the next.
    exhausted_at (if set) is the index a deadline cut short or the first
    above the coset cap; it and those after it are absent from the maps, and
    the indices before it are exact."""

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


def _branched_columns(p: Presentation) -> list[bool]:
    """Per column, whether the low-index search branches on it: False for
    both columns of each generator a relator defines (see the module
    docstring).  A definition reads only generators that stay branched, so
    the branched generators generate the group."""
    defined = [False] * len(p.alphabet)
    read = [False] * len(p.alphabet)  # generators some definition reads
    for r in p.relators:
        counts = Counter(abs(l) - 1 for l in r.letters)
        if len(counts) < 2 or any(defined[h] for h in counts):
            continue  # no other letter, or one that is not branched
        g = next((g for g in sorted(counts) if counts[g] == 1 and not read[g]), None)
        if g is not None:
            defined[g] = True
            for h in counts.keys() - {g}:
                read[h] = True
    return [not d for d in defined for _ in (0, 1)]


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


def _canonicity(
    tab: list[int], end: int, ncols: int, bcols: list[int], newidx: list[int], order: list[int]
) -> int:
    """0 when some rebasing of the table (flat rows up to offset end,
    standardized over the branched columns bcols) is smaller; otherwise the
    number of basepoints, coset 1 included, whose rebasing equals the table.

    The rebasing at b renumbers the cosets breadth-first from b over the
    branched columns and is compared with the table slot by slot, in
    row-major order over those columns, up to the first slot undefined on
    either side, which decides nothing.  Both are read along the same prefix
    in every completion, so a rebasing smaller there is smaller in each.
    newidx (by row offset: the rebased offset, -1 while unreached) and order
    (by rebased offset: the row offset) are scratch arrays; each basepoint
    resets only the entries it set."""
    s = 1
    c0 = bcols[0]
    t0 = tab[c0]
    for b in range(ncols, end, ncols):
        # the first slot needs no renumbering: the rebasing reads 0 there
        # when b is fixed and ncols, a new coset, when it is not
        e = tab[b + c0]
        if e < 0:
            continue
        f = 0 if e == b else ncols
        if f != t0:
            if f < t0:
                return 0
            continue
        newidx[b] = 0
        order[0] = b
        m = ncols  # the next rebased offset
        sign = 1  # 1 while equal, 0 once undecided or larger, -1 if smaller
        for r in range(0, end, ncols):
            x = order[r]  # rows before r agree, so the rebasing has reached r
            for col in bcols:
                t = tab[r + col]
                e = tab[x + col]
                if t < 0 or e < 0:
                    sign = 0
                    break
                f = newidx[e]
                if f < 0:
                    newidx[e] = f = m
                    order[m] = e
                    m += ncols
                if f != t:
                    sign = -1 if f < t else 0
                    break
            else:
                continue
            break
        for j in range(0, m, ncols):
            newidx[order[j]] = -1
        if sign < 0:
            return 0
        s += sign
    return s


def _count_indices(
    rots: list[tuple], orders: list[int], branched: list[bool], top: int, budget: Budget
) -> Iterator[tuple[int, int]]:
    """(total subgroups, conjugacy classes) of index n for n = 1..top, each
    yielded when level n ends, for the relator rotations `_rotations`
    compiled, the power orders `_power_orders` read and the columns
    `_branched_columns` marks.

    Sims' search: branch on the first undefined branched slot in row-major
    order, trying each coset whose inverse slot is free in increasing order
    and then a new coset, so each table standardized over the branched
    columns appears at most once; the branched generators generate the group,
    so every subgroup of index n has one such table, and its branched columns
    fix the subgroup.  The table is one flat list with an undo log; after
    each branch, a deduction queue scans only the relator rotations through
    each newly defined edge, fills single gaps and prunes on a trace that
    closes off its start or a clash.  The last edge defined on any trace
    triggers its scan, so a complete table has every relator closing at every
    coset.  The same holds for the trace of a defining relator, whose one gap
    is its defined generator: once every branched slot is set, so is every
    slot, and a table with a slot still undefined raises
    CosetError("internal: ...").

    Level n holds the nodes on exactly n cosets; a complete table on n
    cosets counts towards index n.  A new-coset branch that survives its
    deduction and canonicity test is kept as a root of level n + 1 (table,
    next slot, basepoint count), not recursed into, so the nodes are those
    of a search to index top.

    Every edge popped from the queue, branch or forced, of a generator x
    whose power order g is nonzero also has its x-path walked (_cycle_fits):
    a complete table on at most top cosets has only x-cycles of lengths that
    divide g, so none longer than D, the largest divisor of g that is at
    most top.  A node with a longer open x-path, or a closed x-cycle of a
    length not dividing g, has no complete table below it and is dropped.

    The rebasings of a complete table at its n cosets are the tables of the
    subgroup's conjugates, and the search keeps only the least of them, the
    class's representative: after each deduction, a node with a smaller
    rebasing over the slots defined so far (_canonicity) is dropped.  So each
    complete table reached is one class; its s basepoints with an equal
    rebasing are the index of the subgroup in its normalizer, and the class
    holds n // s subgroups.
    """
    ncols = len(rots)
    bcols = [col for col in range(ncols) if branched[col]]
    # lims[col] is D for the generator of col, 0 when it has no power relator
    lims = [max((d for d in range(1, min(n, top) + 1) if n % d == 0), default=0) for n in orders]
    # A coset is held as its row offset c·ncols, so a trace step is one
    # index: tab[c·ncols + col] is the offset of c's image under col, or -1
    # while undefined.  tab and _canonicity's scratch arrays newidx and order
    # grow by a row per level, so they hold the level's cosets and a new one.
    tab, newidx, order = ([-1] * ncols for _ in range(3))
    log: list[int] = []  # slots defined along the current branch, in order
    roots = [(tab[:], 0, 1)]  # level 1: one coset, nothing defined
    total = classes = 0

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

    def rec(n: int, slot: int, s: int) -> None:
        """Search level n below a node whose table has s basepoints with an
        equal rebasing (meaningful once the table is complete)."""
        nonlocal total, classes
        budget.check()
        end = n * ncols
        try:
            slot = tab.index(-1, slot, end)
            while not branched[slot % ncols]:
                slot = tab.index(-1, slot + 1, end)
        except ValueError:  # no undefined branched slot: a complete table on n cosets
            if -1 in tab[:end]:
                raise CosetError("internal: deduction left a defined generator's slot open")
            classes += 1
            total += n // s
            return
        col = slot % ncols
        c = slot - col
        inv = col ^ 1
        targets = [d for d in range(0, end, ncols) if tab[d + inv] < 0]
        if n < top:
            targets.append(end)
        for d in targets:
            mark = len(log)
            tab[slot] = d
            tab[d + inv] = c
            log.append(slot)
            log.append(d + inv)
            if deduce(c, col):
                if d < end:
                    if eq := _canonicity(tab, end, ncols, bcols, newidx, order):
                        rec(n, slot + 1, eq)
                elif eq := _canonicity(tab, end + ncols, ncols, bcols, newidx, order):
                    roots.append((tab[: end + ncols], slot + 1, eq))  # a root of level n + 1
            for t in log[mark:]:
                tab[t] = -1
            del log[mark:]

    try:
        for n in range(1, top + 1):
            for a in (tab, newidx, order):
                a += [-1] * ncols  # room for a new coset
            level, roots = roots, []
            total = classes = 0
            while level:  # each root is freed once searched
                root, slot, s = level.pop()
                tab[: len(root)] = root
                rec(n, slot, s)
            yield total, classes
    finally:
        # rec holds itself through its closure cell; emptying the cell frees
        # the search state now, not at the next cyclic collection
        del rec


def low_index(p: Presentation, bound: int, budget: Budget | None = None) -> Fingerprint:
    """Count all subgroups of index ≤ bound, exactly, by enumerating one
    standardized coset table per conjugacy class in one search, level by
    level (see _count_indices), to the bound or the budget's coset cap,
    whichever is smaller.  A table of index k has k cosets, so a bound above
    the cap flags the first index above it; a deadline flags the index whose
    level it cut short.  The indices finished before either stay exact."""
    if bound < 1:
        raise CosetError("bound must be at least 1")
    budget = budget or Budget.start()
    orders = _power_orders(p)
    branched = _branched_columns(p)
    totals: dict[int, int] = {}
    classes: dict[int, int] = {}
    top = min(bound, budget.max_cosets)
    try:  # compiling the rotations counts towards index 1
        rots = _rotations(p, budget)
        for n, counts in enumerate(_count_indices(rots, orders, branched, top, budget), 1):
            totals[n], classes[n] = counts
    except BudgetExhausted:
        pass
    exhausted_at = len(totals) + 1 if len(totals) < bound else None
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
