"""Exact integer lattice computations.

Everything here runs on arbitrary-precision Python ints; no floating point.
One Smith normal form core reduces the leading block of a list of rows in
place.  smith_normal_form hands it the bordered block [[A, I], [I, 0]],
which it turns into [[S, U], [V, 0]] with U * A * V = S, from which
solvability certificates and left kernels follow.  cokernel_invariants is
the one cokernel function: abelianizations and the Schreier coinvariant rows
behind H2 alike reach it as sparse rows, which never become dense.  It
eliminates their +-1 pivots as Tietze moves and hands only the small dense
residue to the core, charging live nonzeros against a cap.  Every
elimination reads the run budget's deadline: the sparse stage once per
pivot, the core once per round of clearing its pivot's row and column.

Convention: group presentations contribute a relation matrix with one row per
relation and one column per generator; the group presented is the cokernel
Z^cols / rowspace.  Action matrices act on row vectors on the right (row j is
the image of basis vector j).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .budget import Budget, BudgetExhausted

if TYPE_CHECKING:  # pragma: no cover
    from .presentations import Presentation


class LatticeError(ValueError):
    pass


class IntMatrix:
    """A dense integer matrix, stored as a list of rows."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable[int]] | None = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            self.data = [list(r) for r in data]
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise LatticeError(f"shape mismatch building {rows}x{cols} matrix")

    def row_mul(self, v: Sequence[int]) -> list[int]:
        """v * self for a row vector v of length self.rows."""
        if len(v) != self.rows:
            raise LatticeError("row vector length mismatch")
        out = [0] * self.cols
        for a, row in zip(v, self.data):
            if a:
                for j, b in enumerate(row):
                    if b:
                        out[j] += a * b
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant-factor form of a f.g. abelian group: Z^free_rank + sum Z/d_i,
    torsion entries >= 2 with d_1 | d_2 | ... | d_k."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise LatticeError(f"torsion {self.torsion} violates the divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise LatticeError("torsion entries must be >= 2")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass
class SnfResult:
    """U * A * V = S with U, V unimodular and S in Smith normal form."""

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list[int]:
        k = min(self.S.rows, self.S.cols)
        return [self.S.data[i][i] for i in range(k)]


def _snf_core(a: list[list[int]], m: int, n: int, budget: Budget) -> None:
    """Smith normal form of the leading m x n block of a, in place.

    Row operations act on whole rows < m and column operations on whole
    columns < n, so rows and columns bordering the block record them.  The
    budget's deadline is read once per round of clearing the pivot's column
    and row, since nothing bounds the entries and one pivot can take many
    rounds.
    """

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        rd = a[dst]
        for k, x in enumerate(a[src]):
            if x:
                rd[k] += q * x

    def add_col(src, dst, q):
        for r in a:
            if r[src]:
                r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]

    t = 0
    kmax = min(m, n)
    while t < kmax:
        budget.check()
        # pivot: smallest nonzero absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    ax = abs(x)
                    if best is None or ax < best:
                        best, piv = ax, (i, j)
                        if ax == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])

        while True:
            budget.check()
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                x = a[i][t]
                if x:
                    q = x // a[t][t]
                    if q:
                        add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                x = a[t][j]
                if x:
                    q = x // a[t][t]
                    if q:
                        add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            break

        # divisibility: pivot must divide every entry of the trailing block
        d = a[t][t]
        culprit = None
        for i in range(t + 1, m):
            row = a[i]
            for j in range(t + 1, n):
                if row[j] % d:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            add_row(culprit, t, 1)
            continue  # redo this pivot position

        if d < 0:
            negate_row(t)
        t += 1


def smith_normal_form(A: IntMatrix, budget: Budget | None = None) -> SnfResult:
    """Smith normal form with its unimodular certificates U and V, read off
    [[S, U], [V, 0]], the reduction of the bordered block [[A, I_m], [I_n, 0]]."""
    m, n = A.rows, A.cols
    a = [row + [int(i == j) for j in range(m)] for i, row in enumerate(A.data)]
    a += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]
    _snf_core(a, m, n, budget or Budget.start())
    return SnfResult(
        S=IntMatrix(m, n, (row[:n] for row in a[:m])),
        U=IntMatrix(m, m, (row[n:] for row in a[:m])),
        V=IntMatrix(n, n, (row[:n] for row in a[m:])),
    )


def exponent_matrix(p: "Presentation") -> IntMatrix:
    """Relator exponent-sum matrix: one row per relator, one column per generator."""
    return IntMatrix(len(p.relators), len(p.alphabet), (r.exponent_vector() for r in p.relators))


def abelianization(p: "Presentation", budget: Budget | None = None) -> AbelianInvariants:
    rows = (dict(enumerate(r.exponent_vector())) for r in p.relators)
    return cokernel_invariants(rows, len(p.alphabet), budget)


def lattice_solve(
    targets: Iterable[Sequence[int]], basis: IntMatrix, budget: Budget | None = None
) -> tuple[list[list[int] | None], list[list[int]]]:
    """Solve c * basis = t for every target t from one Smith normal form.

    Returns one integer solution per target, None where t lies outside the
    row lattice, and a basis of the left kernel {c : c * basis = 0}: the rows
    of U at zero diagonal entries.  Every solution is re-multiplied exactly
    before it is returned, and the general solution is any one plus the
    kernel lattice."""
    res = smith_normal_form(basis, budget)
    U, V = res.U, res.V
    diag = res.diagonal()
    kernel = [list(U.data[i]) for i in range(basis.rows) if i >= len(diag) or diag[i] == 0]

    def solve(target: Sequence[int]) -> list[int] | None:
        # with y = t * V, solve x * S = y; then c = x * U
        x = [0] * basis.rows
        for i, y in enumerate(V.row_mul(target)):
            d = diag[i] if i < len(diag) else 0
            if d and y % d == 0:
                x[i] = y // d
            elif y:
                return None
        c = U.row_mul(x)
        if basis.row_mul(c) != list(target):  # pragma: no cover - algebra guarantees this
            raise LatticeError("internal: certificate failed re-multiplication")
        return c

    return [solve(t) for t in targets], kernel


def cokernel_invariants(
    rows: Iterable[Mapping[int, int]],
    cols: int,
    budget: Budget | None = None,
    max_entries: int | None = None,
) -> AbelianInvariants:
    """Invariants of Z^cols / span(rows), each row a {column: coefficient} map.

    A row with a +-1 entry in column j solves for generator j, so j and the
    row drop out once the row is subtracted from every other row that
    touches j: a Tietze move on the abelian presentation (Havas, Holt & Rees,
    1993).  Unit pivots go in order of least Markowitz cost (row weight - 1)
    * (column weight - 1): every row with a unit entry keeps a candidate in
    a heap, its unit entry in the lightest column, which is re-checked when
    popped and pushed back if its cost has grown.  The rows left, on the
    columns they touch, are a dense residue, whose Smith diagonal gives the
    rest; the columns no row touches are free.  No transform is carried.
    The deadline is read once per pivot, and the live nonzeros, then the
    residue's rows * cols before it is built, are charged against
    max_entries."""
    budget = budget or Budget.start()

    def charge(n: int) -> None:
        if max_entries is not None and n > max_entries:
            raise BudgetExhausted(f"entry cap ({max_entries} matrix entries)")

    live: list[dict[int, int] | None] = []
    touching: list[set[int]] = [set() for _ in range(cols)]  # rows per column
    entries = 0
    for r in rows:
        row = {j: x for j, x in r.items() if x}
        if not row:
            continue
        for j in row:
            if not 0 <= j < cols:
                raise LatticeError(f"column {j} outside 0..{cols - 1}")
            touching[j].add(len(live))
        entries += len(row)
        live.append(row)
    charge(entries)

    # a row's candidate is its unit entry in the lightest column, keyed by
    # (cost, row) in one int, which the heap compares faster than a tuple
    shift = max(len(live), 1).bit_length()

    def candidate(i: int, row: dict[int, int]) -> tuple[int, int] | None:
        weight = None
        for j, x in row.items():
            if (x == 1 or x == -1) and (weight is None or len(touching[j]) < weight):
                weight, best = len(touching[j]), j
        if weight is None:
            return None
        return ((len(row) - 1) * (weight - 1)) << shift | i, best

    heap = [c[0] for c in map(candidate, range(len(live)), live) if c]
    heapify(heap)
    pivots = 0
    while heap:
        key = heappop(heap)
        i = key & ((1 << shift) - 1)
        row = live[i]
        c = row and candidate(i, row)
        if not c:
            continue  # the row is gone or has no unit entry left
        if c[0] > key:
            heappush(heap, c[0])
            continue
        j = c[1]
        budget.check()
        pivots += 1
        live[i] = None
        for k in row:
            touching[k].discard(i)
        entries -= len(row)
        sign = row[j]
        others, touching[j] = touching[j], set()
        for r in others:
            other = live[r]
            f = other[j] * sign  # other - f * row has no entry at j
            entries -= len(other)
            for k, x in row.items():
                y = other.get(k, 0) - f * x
                if y:
                    if k not in other:
                        touching[k].add(r)
                    other[k] = y
                else:
                    del other[k]
                    touching[k].discard(r)
            entries += len(other)
            if not other:
                live[r] = None
            elif c := candidate(r, other):
                heappush(heap, c[0])
        charge(entries)

    rest = [row for row in live if row]
    used = sorted({j for row in rest for j in row})
    charge(len(rest) * len(used))
    residue = [[row.get(j, 0) for j in used] for row in rest]
    _snf_core(residue, len(rest), len(used), budget)
    diagonal = [residue[i][i] for i in range(min(len(rest), len(used)))]
    rank = sum(1 for d in diagonal if d)
    return AbelianInvariants(cols - pivots - rank, tuple(d for d in diagonal if d >= 2))
