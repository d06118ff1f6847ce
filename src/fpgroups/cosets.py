"""Coset enumeration and everything built on it.

todd_coxeter is HLT-style (scan-and-fill under the run budget's coset cap and
deadline), with coincidence handling through a union-find and symmetric
tables; completed tables are compressed and standardized (breadth-first
renumbering), so the output is independent of enumeration order.  Exhaustion
is a first-class result, never an exception (the word problem behind this is
undecidable in general): todd_coxeter returns a caught BudgetExhausted as an
Exhausted value, low_index as a Fingerprint's first unfinished index.

reidemeister_schreier rewrites relator conjugates on Schreier generators of
a complete table.  low_index enumerates standardized coset tables directly
(first-undefined-slot branching with deduction closure), which visits every
subgroup of each index exactly once; conjugacy classes are counted by
rebasing each table at every coset and keeping the least serialization.

Cosets are numbered 1..n in messages; internal arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget, BudgetExhausted
from .presentations import Presentation
from .words import Alphabet, Word, WordError


class CosetError(ValueError):
    pass


@dataclass(frozen=True)
class Exhausted:
    """Enumeration hit its cap before closing; carries what was spent."""

    reason: str
    cosets_used: int
    max_cosets: int

    def __bool__(self) -> bool:  # lets callers write `if not result:`
        return False


def _col(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def _inv_col(col: int) -> int:
    return col ^ 1


class CosetTable:
    """A complete right action of the generators on cosets 1..n.

    `action[col][c]` is the image of coset c (0-based) under column col,
    where columns alternate generator and inverse: 2i is generator i, 2i+1
    its inverse.
    """

    __slots__ = ("alphabet", "n", "action", "subgroup_gens", "standardized")

    def __init__(
        self,
        alphabet: Alphabet,
        action: list[list[int]],
        subgroup_gens: tuple[Word, ...] = (),
        standardized: bool = False,
    ):
        self.alphabet = alphabet
        self.action = action
        self.n = len(action[0]) if action else 0
        self.subgroup_gens = subgroup_gens
        self.standardized = standardized

    def apply(self, coset: int, letter: int) -> int:
        """Image of 0-based coset under a signed letter."""
        return self.action[_col(letter)][coset]

    def trace(self, coset: int, w: Word) -> int:
        c = coset
        for l in w.letters:
            c = self.action[_col(l)][c]
        return c

    def permutation(self, name: str) -> tuple[int, ...]:
        """The generator's permutation as a tuple of 0-based images."""
        i = self.alphabet.index(name)
        return tuple(self.action[2 * i])

    def verify(self, p: Presentation) -> bool:
        """Re-check the full certificate: mutually inverse total columns,
        every relator closing at every coset, subgroup generators fixing
        coset 1.  Raises CosetError on any failure."""
        if p.alphabet != self.alphabet:
            raise CosetError("table alphabet does not match the presentation")
        n = self.n
        for i in range(len(self.alphabet)):
            fwd, bwd = self.action[2 * i], self.action[2 * i + 1]
            for c in range(n):
                d = fwd[c]
                if not (0 <= d < n) or bwd[d] != c:
                    raise CosetError(f"columns for generator {i} are not inverse at {c + 1}")
        for r in p.relators:
            for c in range(n):
                if self.trace(c, r) != c:
                    raise CosetError(f"relator {r.text()!r} does not close at coset {c + 1}")
        for w in self.subgroup_gens:
            if self.trace(0, w) != 0:
                raise CosetError(f"subgroup generator {w.text()!r} moves coset 1")
        return True

    def standardize(self) -> "CosetTable":
        """Renumber cosets in breadth-first discovery order (columns scanned
        generator, inverse, generator, ...)."""
        order = _bfs_order(self.action, 0)
        newidx = [0] * self.n
        for new, old in enumerate(order):
            newidx[old] = new
        action = [
            [newidx[colarr[old]] for old in order] for colarr in self.action
        ]
        return CosetTable(self.alphabet, action, self.subgroup_gens, standardized=True)

    def __repr__(self) -> str:
        return f"<coset table on {self.n} cosets over {self.alphabet!r}>"


def _bfs_order(action: list[list[int]], start: int) -> list[int]:
    n = len(action[0])
    seen = [False] * n
    order = [start]
    seen[start] = True
    qi = 0
    while qi < len(order):
        c = order[qi]
        qi += 1
        for colarr in action:
            d = colarr[c]
            if not seen[d]:
                seen[d] = True
                order.append(d)
    if len(order) != n:
        raise CosetError("table is not transitive")
    return order


# ---------------------------------------------------------------------------
# HLT enumeration


class _Enumerator:
    def __init__(self, ncols: int, max_cosets: int):
        self.tab: list[list[int | None]] = [[None] * ncols]
        self.parent = [0]  # union-find over coset ids
        self.alive = 1
        self.ncols = ncols
        self.max_cosets = max_cosets

    def find(self, c: int) -> int:
        p = self.parent
        while p[c] != c:
            p[c] = p[p[c]]
            c = p[c]
        return c

    def new_coset(self) -> int:
        if len(self.tab) >= self.max_cosets:
            raise BudgetExhausted("coset cap")
        self.tab.append([None] * self.ncols)
        self.parent.append(len(self.tab) - 1)
        self.alive += 1
        return len(self.tab) - 1

    def get(self, c: int, col: int) -> int | None:
        d = self.tab[c][col]
        if d is None:
            return None
        d2 = self.find(d)
        if d2 != d:
            self.tab[c][col] = d2
        return d2

    def set_edge(self, c: int, col: int, d: int) -> None:
        """Record c --col--> d and the inverse edge, merging on conflict."""
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
            back = self.get(d, _inv_col(col))
            if back is None:
                self.tab[d][_inv_col(col)] = c
            elif back != c:
                self.coincide(back, c)

    def coincide(self, a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            self.parent[y] = x
            self.alive -= 1
            row = self.tab[y]
            for col in range(self.ncols):
                d = row[col]
                if d is None:
                    continue
                d = self.find(d)
                e = self.get(x, col)
                if e is None:
                    self.tab[x][col] = d
                    back = self.get(d, _inv_col(col))
                    if back is None:
                        self.tab[d][_inv_col(col)] = x
                    elif back != x:
                        queue.append((back, x))
                elif e != d:
                    queue.append((e, d))

    def scan_and_fill(self, start: int, letters: tuple[int, ...]) -> None:
        i, j = 0, len(letters) - 1
        f = b = self.find(start)
        while True:
            while i <= j:
                d = self.get(f, _col(letters[i]))
                if d is None:
                    break
                f = d
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return
            while j >= i:
                d = self.get(b, _col(-letters[j]))
                if d is None:
                    break
                b = d
                j -= 1
            if j < i:
                if f != b:
                    self.coincide(f, b)
                return
            if i == j:
                self.set_edge(f, _col(letters[i]), b)
                return
            self.set_edge(f, _col(letters[i]), self.new_coset())
            f = self.get(f, _col(letters[i]))  # type: ignore[assignment]
            i += 1


def todd_coxeter(
    p: Presentation,
    subgroup: tuple[Word, ...] | list[Word] = (),
    budget: Budget | None = None,
) -> CosetTable | Exhausted:
    """Enumerate cosets of ⟨subgroup⟩ ≤ the presented group.

    Returns a complete, verified, standardized CosetTable whose size is the
    exact index, or Exhausted when the budget's coset cap or deadline is hit.
    """
    budget = budget or Budget.start()
    if budget.max_cosets < 1:
        raise CosetError("max_cosets must be at least 1")
    for w in subgroup:
        if w.alphabet != p.alphabet:
            raise WordError("subgroup generator over a different alphabet")
    ncols = 2 * len(p.alphabet)
    e = _Enumerator(ncols, budget.max_cosets)
    rel_letters = [r.letters for r in p.relators]
    sub_letters = [w.reduce().letters for w in subgroup]
    try:
        for ls in sub_letters:
            e.scan_and_fill(0, ls)
        # passes until stable: scan relators at every live coset, fill rows
        while True:
            snapshot = (len(e.tab), e.alive)
            for ls in sub_letters:
                e.scan_and_fill(e.find(0), ls)
            c = 0
            while c < len(e.tab):
                if c % 64 == 0:
                    budget.check()
                if e.find(c) == c:
                    for ls in rel_letters:
                        e.scan_and_fill(c, ls)
                        if e.find(c) != c:
                            break  # this coset just died; move on
                    if e.find(c) == c:
                        for col in range(ncols):
                            if e.get(c, col) is None:
                                e.set_edge(c, col, e.new_coset())
                c += 1
            if (len(e.tab), e.alive) == snapshot:
                break
    except BudgetExhausted as ex:
        return Exhausted(ex.what, e.alive, budget.max_cosets)

    # compress to live cosets
    live = [c for c in range(len(e.tab)) if e.find(c) == c]
    idx = {c: i for i, c in enumerate(live)}
    action: list[list[int]] = []
    for col in range(ncols):
        arr = []
        for c in live:
            d = e.get(c, col)
            assert d is not None
            arr.append(idx[d])
        action.append(arr)
    table = CosetTable(p.alphabet, action, tuple(w.reduce() for w in subgroup))
    table = table.standardize()
    table.verify(p)
    return table


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


class SchreierRewriter:
    """Rewrites words of the ambient group, started at any coset, into words
    over the Schreier generators of the subgroup at coset 1.

    Schreier generators are indexed by (coset, generator) pairs that are not
    edges of the breadth-first spanning tree; their count is
    index·(#generators) − index + 1.
    """

    def __init__(self, p: Presentation, t: CosetTable):
        if not t.standardized:
            raise CosetError("rewriter needs a standardized table")
        if t.alphabet != p.alphabet:
            raise CosetError("table alphabet does not match the presentation")
        self.p = p
        self.t = t
        g = len(p.alphabet)
        # breadth-first spanning tree: tree[c] = (parent, letter) reaching c
        tree: dict[int, tuple[int, int]] = {}
        seen = [False] * t.n
        seen[0] = True
        order = [0]
        qi = 0
        while qi < len(order):
            c = order[qi]
            qi += 1
            for i in range(g):
                for l in (i + 1, -(i + 1)):
                    d = t.apply(c, l)
                    if not seen[d]:
                        seen[d] = True
                        tree[d] = (c, l)
                        order.append(d)
        self.tree_edges = {(c, abs(l)) if l > 0 else (t.apply(c, l), abs(l))
                           for d, (c, l) in tree.items()}
        # fix the generator order: (coset, generator) lex over non-tree pairs
        pairs = [
            (c, x)
            for c in range(t.n)
            for x in range(1, g + 1)
            if (c, x) not in self.tree_edges
        ]
        self.pair_index = {pr: i for i, pr in enumerate(pairs)}
        self.pairs = pairs
        self.sub_alphabet = Alphabet([f"s{i + 1}" for i in range(len(pairs))])
        # coset representatives (as ambient words), via the tree
        rep_letters: list[tuple[int, ...]] = [()] * t.n
        for d in order[1:]:
            c, l = tree[d]
            rep_letters[d] = rep_letters[c] + (l,)
        self.representatives = [Word(p.alphabet, ls) for ls in rep_letters]

    @property
    def rank(self) -> int:
        return len(self.pairs)

    def generator_word(self, i: int) -> Word:
        """The i-th Schreier generator as an ambient word: rep(c) x rep(c·x)⁻¹."""
        c, x = self.pairs[i]
        rep_c = self.representatives[c]
        rep_d = self.representatives[self.t.apply(c, x)]
        return (rep_c * Word(self.p.alphabet, (x,)) * rep_d.inverse()).reduce()

    def rewrite(self, w: Word, start: int = 0) -> Word:
        """The subgroup word for rep(start) · w · rep(start·w)⁻¹.

        When w traces start back to itself (relators, subgroup elements) this
        is the rewriting of the conjugate of w by the start representative.
        """
        out: list[int] = []
        c = start
        for l in w.letters:
            if l > 0:
                pair = (c, l)
                c2 = self.t.apply(c, l)
                sign = 1
            else:
                c2 = self.t.apply(c, l)
                pair = (c2, -l)
                sign = -1
            si = self.pair_index.get(pair)
            if si is not None:
                out.append(sign * (si + 1))
            c = c2
        return Word(self.sub_alphabet, out).reduce()


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


def _deduce(tab: list[list[int | None]], rel_letters, ncols: int) -> bool:
    """Close the partial table under relator-trace deductions.  Returns False
    on contradiction.  Only fills single gaps; never creates cosets."""
    changed = True
    while changed:
        changed = False
        for ls in rel_letters:
            L = len(ls)
            for c in range(len(tab)):
                f = c
                i = 0
                while i < L:
                    d = tab[f][_col(ls[i])]
                    if d is None:
                        break
                    f = d
                    i += 1
                if i == L:
                    if f != c:
                        return False
                    continue
                b = c
                j = L - 1
                while j > i:
                    d = tab[b][_col(-ls[j])]
                    if d is None:
                        break
                    b = d
                    j -= 1
                if j == i:  # single gap: forced edge
                    col = _col(ls[i])
                    if tab[f][col] is None and tab[b][_inv_col(col)] is None:
                        tab[f][col] = b
                        tab[b][_inv_col(col)] = f
                        changed = True
                    elif tab[f][col] != b:
                        return False
    return True


def _class_key(action: list[list[int]]) -> tuple:
    """Least serialization over all basepoints of the standardized table."""
    best = None
    n = len(action[0])
    for base in range(n):
        order = _bfs_order(action, base)
        newidx = [0] * n
        for new, old in enumerate(order):
            newidx[old] = new
        ser = tuple(
            tuple(newidx[colarr[old]] for old in order) for colarr in action
        )
        if best is None or ser < best:
            best = ser
    return best  # type: ignore[return-value]


def _count_index(p: Presentation, k: int, budget: Budget) -> tuple[int, int]:
    """(total subgroups, conjugacy classes) of index exactly k."""
    ncols = 2 * len(p.alphabet)
    rel_letters = [r.letters for r in p.relators]
    total = 0
    class_keys: set[tuple] = set()

    def undef_slot(tab):
        for c in range(len(tab)):
            row = tab[c]
            for col in range(ncols):
                if row[col] is None:
                    return c, col
        return None

    def rec(tab: list[list[int | None]]):
        nonlocal total
        budget.check()
        slot = undef_slot(tab)
        if slot is None:
            if len(tab) == k:
                total += 1
                action = [[row[col] for row in tab] for col in range(ncols)]
                class_keys.add(_class_key(action))  # type: ignore[arg-type]
            return
        c, col = slot
        targets = [d for d in range(len(tab)) if tab[d][_inv_col(col)] is None]
        if len(tab) < k:
            targets.append(len(tab))
        for d in targets:
            t2 = [row[:] for row in tab]
            if d == len(tab):
                t2.append([None] * ncols)
            t2[c][col] = d
            t2[d][_inv_col(col)] = c
            if _deduce(t2, rel_letters, ncols):
                rec(t2)

    rec([[None] * ncols])
    return total, len(class_keys)


def low_index(p: Presentation, bound: int, budget: Budget | None = None) -> Fingerprint:
    """Count all subgroups of index ≤ bound, exactly, by enumerating
    standardized coset tables.  Budget exhaustion flags the first index left
    unfinished; earlier indices stay exact."""
    if bound < 1:
        raise CosetError("bound must be at least 1")
    budget = budget or Budget.start()
    totals: dict[int, int] = {}
    classes: dict[int, int] = {}
    exhausted_at = None
    for k in range(1, bound + 1):
        try:
            t, c = _count_index(p, k, budget)
        except BudgetExhausted:
            exhausted_at = k
            break
        totals[k] = t
        classes[k] = c
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
