import itertools
import random
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpgroups import homology, zlattice
from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.cosets import todd_coxeter
from fpgroups.presentations import Presentation, parse_presentation
from fpgroups.words import Alphabet, Word
from fpgroups.zlattice import (
    AbelianInvariants,
    IntMatrix,
    LatticeError,
    abelianization,
    cokernel_invariants,
    exponent_matrix,
    lattice_solve,
    smith_normal_form,
)
from test_cosets import _ReferenceRewriter, _reference_coinvariant_rows


# -- oracles: the determinant and the SNF with a track flag, as they were ------
# in src/ before the bordered block and the one cokernel function


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


def _reference_snf_core(a: list[list[int]], m: int, n: int, track: bool, budget: Budget):
    """In-place SNF; returns (U, V) as row lists or Nones.

    Row ops on A are mirrored on U, column ops on V.  The budget's deadline
    is read once per round of clearing the pivot's column and row, since
    nothing bounds the entries and one pivot can take many rounds.
    """
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track else None
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if track:
            U[i], U[j] = U[j], U[i]

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

    return U, V


def reference_snf(A: IntMatrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """S, U and V as rows, from the tracking oracle."""
    a = [list(r) for r in A.data]
    U, V = _reference_snf_core(a, A.rows, A.cols, track=True, budget=Budget.start())
    return a, U, V


def reference_cokernel(A: IntMatrix) -> AbelianInvariants:
    """Invariants of Z^cols / rowspace(A) from the oracle's dense diagonal."""
    a = [list(r) for r in A.data]
    _reference_snf_core(a, A.rows, A.cols, track=False, budget=Budget.start())
    nonzero = [a[i][i] for i in range(min(A.rows, A.cols)) if a[i][i]]
    return AbelianInvariants(A.cols - len(nonzero), tuple(d for d in nonzero if d >= 2))


def rand_matrix(rng, rows, cols, lo=-20, hi=20):
    return IntMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def minors_gcd(A, k):
    """gcd of all k x k minors, brute force (oracle)."""
    g = 0
    for ri in itertools.combinations(range(A.rows), k):
        for ci in itertools.combinations(range(A.cols), k):
            sub = IntMatrix(k, k, [[A.data[i][j] for j in ci] for i in ri])
            g = gcd(g, determinant(sub))
    return abs(g)


def gcd(a, b):
    import math

    return math.gcd(a, b)


def eye(n):
    return IntMatrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)])


def matmul(A, B):
    return IntMatrix(A.rows, B.cols, [B.row_mul(row) for row in A.data])


def assert_valid_snf(A, res):
    S, U, V = res.S, res.U, res.V
    assert matmul(matmul(U, A), V) == S
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    d = res.diagonal()
    # off-diagonal zero
    for i in range(S.rows):
        for j in range(S.cols):
            if i != j:
                assert S.data[i][j] == 0
    # nonneg, divisibility chain, zeros at the end
    for i, x in enumerate(d):
        assert x >= 0
        if i + 1 < len(d):
            if x == 0:
                assert d[i + 1] == 0
            else:
                assert d[i + 1] % x == 0


def test_snf_known_matrix():
    A = IntMatrix(3, 3, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    res = smith_normal_form(A)
    assert_valid_snf(A, res)
    assert res.diagonal() == [2, 2, 156]


def test_snf_rectangular_and_degenerate():
    for data, shape in [
        ([[0, 0], [0, 0]], (2, 2)),
        ([[1, 2, 3]], (1, 3)),
        ([[3], [6], [9]], (3, 1)),
        ([], (0, 4)),
    ]:
        A = IntMatrix(shape[0], shape[1], data)
        assert_valid_snf(A, smith_normal_form(A))


def test_snf_random_small():
    rng = random.Random(20260816)
    for _ in range(300):
        rows = rng.randrange(0, 6)
        cols = rng.randrange(0, 6)
        A = rand_matrix(rng, rows, cols)
        assert_valid_snf(A, smith_normal_form(A))


@st.composite
def matrices(draw):
    """Matrices of up to 7 x 7, empty ones included, with entries up to 10^6
    in size; a row may be a combination of earlier rows, so many are
    rank-deficient."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    data = []
    for _ in range(rows):
        if data and draw(st.booleans()):
            a, b = draw(st.sampled_from(data)), draw(st.sampled_from(data))
            p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            data.append([p * x + q * y for x, y in zip(a, b)])
        else:
            data.append([draw(entry) for _ in range(cols)])
    return IntMatrix(rows, cols, data)


@settings(max_examples=300, deadline=None)
@given(matrices())
@example(IntMatrix(0, 0, []))
@example(IntMatrix(0, 3, []))
@example(IntMatrix(3, 0, [[], [], []]))
@example(IntMatrix(2, 2, [[0, 0], [0, 0]]))
def test_smith_normal_form_matches_the_reference(A):
    given_rows = [list(r) for r in A.data]
    res = smith_normal_form(A)
    assert (res.S.data, res.U.data, res.V.data) == reference_snf(A)
    assert A.data == given_rows


@st.composite
def presentations(draw):
    """Up to 4 generators and 6 relators, each a product of up to 6
    syllables x^e with |e| <= 30."""
    alphabet = Alphabet([f"x{i}" for i in range(draw(st.integers(1, 4)))])
    syllable = st.tuples(st.integers(1, len(alphabet.names)), st.integers(-30, 30))
    relators = []
    for word in draw(st.lists(st.lists(syllable, max_size=6), max_size=6)):
        letters = [x if e > 0 else -x for x, e in word for _ in range(abs(e))]
        relators.append(Word(alphabet, letters))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Presentation(alphabet, relators)


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_abelianization_matches_the_reference_diagonal(p):
    assert abelianization(p) == reference_cokernel(exponent_matrix(p))


def test_snf_diagonal_matches_gcd_of_minors():
    # d_1 * ... * d_k equals the gcd of all k x k minors
    rng = random.Random(99)
    for _ in range(40):
        A = rand_matrix(rng, 4, 4, -9, 9)
        d = smith_normal_form(A).diagonal()
        prod = 1
        for k in range(1, 5):
            if d[k - 1] == 0:
                assert minors_gcd(A, k) == 0
                break
            prod *= d[k - 1]
            assert minors_gcd(A, k) == prod


def test_determinant():
    assert determinant(eye(3)) == 1
    assert determinant(IntMatrix(2, 2, [[0, 1], [1, 0]])) == -1
    assert determinant(IntMatrix(2, 2, [[2, 0], [0, 3]])) == 6
    assert determinant(IntMatrix(0, 0, [])) == 1
    with pytest.raises(LatticeError):
        determinant(IntMatrix(2, 3))
    # cross-check against cofactor expansion on random 4x4
    rng = random.Random(5)

    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum(
            (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
            for j in range(n)
        )

    for _ in range(30):
        A = rand_matrix(rng, 4, 4, -8, 8)
        assert determinant(A) == cofactor_det(A.data)


def test_cokernel_invariants():
    assert cokernel_invariants([{0: 6}], 1) == AbelianInvariants(0, (6,))
    assert cokernel_invariants([{0: 0}], 1) == AbelianInvariants(1)
    assert cokernel_invariants([{0: 1}], 1).is_trivial
    # Z/2 + Z/3 = Z/6 in invariant-factor form
    assert cokernel_invariants([{0: 2}, {1: 3}], 2) == AbelianInvariants(0, (6,))
    assert cokernel_invariants([], 3) == AbelianInvariants(3)
    assert cokernel_invariants([{0: 2}, {1: 4}], 2) == AbelianInvariants(0, (2, 4))


def test_snf_reads_the_deadline_while_clearing_a_pivot():
    # a random 11 x 11 exponent matrix with entries up to 200: one pivot's
    # clearing rounds ran for seconds between two reads of the deadline
    rng = random.Random(4)
    rows = []
    for _ in range(11):
        syllables = (f"x{j+1}^{rng.choice([-1, 1]) * rng.randint(1, 200)}"
                     for j in range(11) if rng.random() < 0.6)
        rows.append(" ".join(syllables))
    gens = ", ".join(f"x{j+1}" for j in range(11))
    p = parse_presentation(f"< {gens} | {', '.join(r for r in rows if r)} >")
    limit = 0.4
    start = time.monotonic()
    with pytest.raises(BudgetExhausted, match="time limit"):
        abelianization(p, Budget.start(time_limit_s=limit))
    assert time.monotonic() - start < 1.5 * limit


def test_abelian_invariants_validation():
    with pytest.raises(LatticeError):
        AbelianInvariants(0, (4, 2))
    with pytest.raises(LatticeError):
        AbelianInvariants(0, (1,))
    inv = AbelianInvariants(1, (2, 6))
    assert str(inv) == "Z + Z/2 + Z/6"
    assert str(AbelianInvariants(0)) == "0"


def solve_one(target, basis):
    (c,), _ = lattice_solve([target], basis)
    return c


def test_lattice_solve_certificate():
    basis = IntMatrix(2, 1, [[2], [3]])
    c = solve_one((1,), basis)
    assert c is not None and 2 * c[0] + 3 * c[1] == 1


def test_lattice_solve_none():
    assert solve_one((1,), IntMatrix(1, 1, [[2]])) is None
    assert solve_one((0, 1), IntMatrix(1, 2, [[2, 0]])) is None
    assert solve_one((3,), IntMatrix(0, 1, [])) is None
    assert solve_one((0,), IntMatrix(0, 1, [])) == []


def test_lattice_solve_many_targets_and_kernel():
    # one SNF answers every target and spans the left kernel
    basis = IntMatrix(3, 2, [[2, 0], [0, 3], [4, 6]])
    sols, kernel = lattice_solve([(2, 3), (1, 0), (6, 9)], basis)
    assert sols[1] is None
    for t, c in ((2, 3), sols[0]), ((6, 9), sols[2]):
        assert basis.row_mul(c) == list(t)
    assert kernel in ([[-2, -2, 1]], [[2, 2, -1]])
    assert lattice_solve([], IntMatrix(0, 2, [])) == ([], [])


def test_lattice_solve_random():
    rng = random.Random(31)
    for _ in range(200):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        B = rand_matrix(rng, rows, cols, -6, 6)
        # membership: random combination must solve
        c0 = [rng.randint(-4, 4) for _ in range(rows)]
        target = [sum(c0[i] * B.data[i][j] for i in range(rows)) for j in range(cols)]
        c = solve_one(target, B)
        assert c is not None
        assert [sum(c[i] * B.data[i][j] for i in range(rows)) for j in range(cols)] == target
        # a random vector either solves exactly or is declared outside
        t2 = [rng.randint(-30, 30) for _ in range(cols)]
        c2 = solve_one(t2, B)
        if c2 is not None:
            assert [sum(c2[i] * B.data[i][j] for i in range(rows)) for j in range(cols)] == t2


def test_matrix_ops():
    A = IntMatrix(2, 2, [[1, 2], [3, 4]])
    B = IntMatrix(2, 2, [[0, 1], [1, 0]])
    assert matmul(A, B).data == [[2, 1], [4, 3]]
    assert A.row_mul([1, 1]) == [4, 6]
    with pytest.raises(LatticeError):
        A.row_mul([1, 1, 1])


# -- the transform route to kernel invariants, kept as an oracle --------------

FIXTURES = Path(__file__).parent / "fixtures"
PSL27 = "< a, b | a^2, b^3, (a b)^7, (a b a b^-1)^4 >"


def reference_kernel_invariants(relations, m):
    """The kernel as a lattice of its own: a basis of {c : c * m = 0} read off
    the rows of U, each relation's coordinates in that basis, and the
    cokernel of the coordinate rows."""
    _, basis = lattice_solve([], m)
    coords, _ = lattice_solve(relations.data, IntMatrix(len(basis), m.rows, basis))
    assert None not in coords, "a relation escapes the kernel lattice"
    return reference_cokernel(IntMatrix(len(coords), len(basis), coords))


@pytest.mark.parametrize("name", ["a5", "klein", "q8", "trivial", "z5", "psl27"])
def test_schur_kernels_match_the_transform_route(name):
    text = PSL27 if name == "psl27" else (FIXTURES / f"{name}.pres").read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = parse_presentation(text)
    # ker(N/[F,N] -> F_ab) on the reference rewriter's coinvariant rows and
    # the exponent vectors m of its Schreier generators
    t = todd_coxeter(p)
    rw = _ReferenceRewriter(p, t)
    m = IntMatrix(
        rw.rank, len(p.alphabet), [rw.generator_word(i).exponent_vector() for i in range(rw.rank)]
    )
    rows = _reference_coinvariant_rows(p, t)
    assert all(not any(m.row_mul(row)) for row in rows)  # m kills every relation
    want = reference_kernel_invariants(IntMatrix(len(rows), rw.rank, rows), m)
    assert homology.schur_multiplier(p).h2 == want


# -- the sparse unit-pivot stage against the dense SNF -------------------------


def dense(rows, cols):
    return IntMatrix(len(rows), cols, [[row.get(j, 0) for j in range(cols)] for row in rows])


@st.composite
def sparse_problems(draw):
    """Sparse rows over up to 8 columns: unit and non-unit entries, zero
    rows, columns no row touches, and integer combinations of earlier rows,
    which vanish during elimination when their sources do."""
    cols = draw(st.integers(0, 8))
    coefficient = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -4, 6])
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if cols == 0 or kind == "zero":
            rows.append({})
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            p, q = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            row = {j: p * a.get(j, 0) + q * b.get(j, 0) for j in {*a, *b}}
            rows.append({j: x for j, x in row.items() if x})
        else:
            support = draw(st.sets(st.integers(0, cols - 1), max_size=4))
            rows.append({j: draw(coefficient) for j in sorted(support)})
    return rows, cols


@settings(max_examples=400, deadline=None)
@given(sparse_problems())
@example(([{}], 1))  # the z5 coinvariant matrix: one zero row, one column
@example(([], 0))
@example(([{0: 1, 1: 1}, {0: 1, 1: 1}, {1: 2}], 3))
def test_sparse_cokernel_matches_the_dense_snf(problem):
    rows, cols = problem
    want = reference_cokernel(dense(rows, cols))
    assert cokernel_invariants(rows, cols) == want
    assert cokernel_invariants(rows, cols, max_entries=cols * len(rows)) == want


def test_sparse_problems_leave_free_and_torsion_residues(monkeypatch):
    # the invariants of every residue the core reduces
    residues = []
    core = zlattice._snf_core

    def recording(a, m, n, budget):
        core(a, m, n, budget)
        nonzero = [a[i][i] for i in range(min(m, n)) if a[i][i]]
        residues.append(AbelianInvariants(n - len(nonzero), tuple(d for d in nonzero if d >= 2)))

    monkeypatch.setattr(zlattice, "_snf_core", recording)

    @settings(max_examples=300, deadline=None, database=None)
    @given(sparse_problems())
    def collect(problem):
        cokernel_invariants(*problem)

    collect()
    assert any(r.free_rank for r in residues)
    assert any(r.torsion for r in residues)


def test_sparse_cokernel_leaves_its_input_alone():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 1}]
    assert cokernel_invariants(rows, 2) == AbelianInvariants(0, (3,))
    assert rows == [{0: 1, 1: 2}, {0: 2, 1: 1}]


def test_sparse_cokernel_rejects_columns_out_of_range():
    with pytest.raises(LatticeError):
        cokernel_invariants([{2: 1}], 2)
    with pytest.raises(LatticeError):
        cokernel_invariants([{-1: 1}], 2)


def test_sparse_cokernel_charges_fill_in():
    # an arrow: the one unit pivot, at (0, 0), turns every other row dense,
    # so 31 entries become 100 after the first pivot
    n = 10
    rows = [{0: 1, **{j: 2 for j in range(1, n + 1)}}] + [{0: 2, i: 3} for i in range(1, n + 1)]
    want = reference_cokernel(dense(rows, n + 1))
    assert cokernel_invariants(rows, n + 1, max_entries=100) == want
    with pytest.raises(BudgetExhausted, match="entry cap"):
        cokernel_invariants(rows, n + 1, max_entries=99)
    with pytest.raises(BudgetExhausted, match="entry cap"):
        cokernel_invariants(rows, n + 1, max_entries=30)


def test_sparse_cokernel_charges_the_dense_residue():
    # no unit entry: the 8 entries would become an 8 x 8 dense residue
    rows = [{i: 2} for i in range(8)]
    assert cokernel_invariants(rows, 8, max_entries=64) == AbelianInvariants(0, (2,) * 8)
    with pytest.raises(BudgetExhausted, match="entry cap"):
        cokernel_invariants(rows, 8, max_entries=63)


def test_sparse_cokernel_reads_the_deadline():
    rows = [{i: 1, i + 1: 1} for i in range(5)]
    with pytest.raises(BudgetExhausted, match="time limit"):
        cokernel_invariants(rows, 6, Budget.start(0))
