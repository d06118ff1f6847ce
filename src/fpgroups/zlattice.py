"""Exact integer lattice computations.

Everything here runs on arbitrary-precision Python ints; no floating point.
The workhorse is Smith normal form with recorded unimodular transforms
U * A * V = S and the inverse of U, from which abelianizations, solvability
certificates and kernels of induced maps on cokernels follow.

Convention: group presentations contribute a relation matrix with one row per
relation and one column per generator; the group presented is the cokernel
Z^cols / rowspace.  Action matrices act on row vectors on the right (row j is
the image of basis vector j).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise LatticeError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise LatticeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ob = other.data
        out = IntMatrix(self.rows, other.cols)
        for i, row in enumerate(self.data):
            acc = out.data[i]
            for k, a in enumerate(row):
                if a:
                    brow = ob[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
        return out

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

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

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


def determinant(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise LatticeError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    a = [list(r) for r in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    """U * A * V = S with U, V unimodular and S in Smith normal form; U_inv
    is the inverse of U."""

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix

    def diagonal(self) -> list[int]:
        k = min(self.S.rows, self.S.cols)
        return [self.S.data[i][i] for i in range(k)]


def _snf_core(a: list[list[int]], m: int, n: int, track: bool):
    """In-place SNF; returns (U, Uinv, V) as row lists or Nones.

    Row ops on A are mirrored on U (and inversely on Uinv columns, kept as
    rows of the inverse); column ops on V.
    """
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track else None
    Ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track else None
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if track:
            U[i], U[j] = U[j], U[i]
            for r in Ui:  # inverse: swap columns
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        if track:
            for r in V:
                r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        rs, rd = a[src], a[dst]
        for k in range(n):
            if rs[k]:
                rd[k] += q * rs[k]
        if track:
            us, ud = U[src], U[dst]
            for k in range(m):
                if us[k]:
                    ud[k] += q * us[k]
            for r in Ui:  # inverse: col src -= q * col dst
                r[src] -= q * r[dst]

    def add_col(src, dst, q):
        for r in a:
            if r[src]:
                r[dst] += q * r[src]
        if track:
            for r in V:
                if r[src]:
                    r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if track:
            U[i] = [-x for x in U[i]]
            for r in Ui:
                r[i] = -r[i]

    t = 0
    kmax = min(m, n)
    while t < kmax:
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

    return U, Ui, V


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Smith normal form with unimodular certificates and the inverse of U."""
    a = [list(r) for r in A.data]
    m, n = A.rows, A.cols
    U, Ui, V = _snf_core(a, m, n, track=True)
    return SnfResult(
        S=IntMatrix(m, n, a),
        U=IntMatrix(m, m, U),
        V=IntMatrix(n, n, V),
        U_inv=IntMatrix(m, m, Ui),
    )


def smith_diagonal(A: IntMatrix) -> list[int]:
    """Just the diagonal of S (faster: no transform bookkeeping)."""
    a = [list(r) for r in A.data]
    _snf_core(a, A.rows, A.cols, track=False)
    return [a[i][i] for i in range(min(A.rows, A.cols))]


def cokernel_invariants(A: IntMatrix) -> AbelianInvariants:
    """Invariants of Z^cols / rowspace(A)."""
    diag = smith_diagonal(A)
    nonzero = [d for d in diag if d]
    torsion = tuple(d for d in nonzero if d >= 2)
    return AbelianInvariants(free_rank=A.cols - len(nonzero), torsion=torsion)


@dataclass
class FpAbelianGroup:
    """Z^n modulo the row lattice of `relations` (relations has n columns)."""

    n: int
    relations: IntMatrix = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.relations is None:
            self.relations = IntMatrix(0, self.n)
        if self.relations.rows and self.relations.cols != self.n:
            raise LatticeError("relation matrix has wrong number of columns")


def exponent_matrix(p: "Presentation") -> IntMatrix:
    """Relator exponent-sum matrix: one row per relator, one column per generator."""
    return IntMatrix.from_rows(
        [r.exponent_vector() for r in p.relators], cols=len(p.alphabet)
    )


def abelianization(p: "Presentation") -> AbelianInvariants:
    return cokernel_invariants(exponent_matrix(p))


def is_perfect(p: "Presentation") -> bool:
    return abelianization(p).is_trivial


def lattice_solve(target: Sequence[int], basis: IntMatrix) -> list[int] | None:
    """Find integer c with c * basis = target, or None if target is outside
    the row lattice.  The certificate re-multiplies exactly before returning."""
    if len(target) != basis.cols:
        raise LatticeError("target length does not match basis columns")
    res = smith_normal_form(basis)
    S, U, V = res.S, res.U, res.V
    # target * V expressed in the transformed coordinates
    y = [sum(target[i] * V.data[i][j] for i in range(basis.cols)) for j in range(basis.cols)]
    k = min(basis.rows, basis.cols)
    x = [0] * basis.rows
    for i in range(basis.cols):
        d = S.data[i][i] if i < k else 0
        if d:
            if y[i] % d:
                return None
            x[i] = y[i] // d
        elif y[i]:
            return None
    c = [sum(x[i] * U.data[i][j] for i in range(basis.rows)) for j in range(basis.rows)]
    check = [sum(c[i] * basis.data[i][j] for i in range(basis.rows)) for j in range(basis.cols)]
    if check != list(target):  # pragma: no cover - algebra guarantees this
        raise LatticeError("internal: certificate failed re-multiplication")
    return c


def kernel_invariants(domain: FpAbelianGroup, m: IntMatrix) -> AbelianInvariants:
    """Invariants of ker(domain -> Z^k) for the map sending generator i to
    row i of m.  Requires the map to kill the relation lattice."""
    if m.rows != domain.n:
        raise LatticeError("map must have one row per domain generator")
    R = domain.relations
    if not (R * m).is_zero():
        raise LatticeError("map does not kill the relation lattice")
    res = smith_normal_form(m)
    S, Ui = res.S, res.U_inv
    k = min(m.rows, m.cols)
    # rows of U indexed by zero diagonal entries form a basis of the left kernel
    basis_idx = [i for i in range(domain.n) if i >= k or S.data[i][i] == 0]
    keep = set(basis_idx)
    coeff_rows = []
    for row in R.data:
        c = [sum(row[i] * Ui.data[i][j] for i in range(domain.n)) for j in range(domain.n)]
        if any(c[j] for j in range(domain.n) if j not in keep):  # pragma: no cover
            raise LatticeError("internal: relation escapes the kernel lattice")
        coeff_rows.append([c[b] for b in basis_idx])
    return cokernel_invariants(IntMatrix(len(coeff_rows), len(basis_idx), coeff_rows))
