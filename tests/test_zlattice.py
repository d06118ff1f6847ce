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
from fpgroups.presentations import parse_presentation
from fpgroups.zlattice import (
    AbelianInvariants,
    IntMatrix,
    LatticeError,
    abelianization,
    cokernel_invariants,
    determinant,
    lattice_solve,
    smith_diagonal,
    smith_normal_form,
    sparse_cokernel_invariants,
)
from test_cosets import _ReferenceRewriter, _reference_coinvariant_rows


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
    assert smith_diagonal(A) == res.diagonal()


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


def test_snf_diagonal_matches_gcd_of_minors():
    # d_1 * ... * d_k equals the gcd of all k x k minors
    rng = random.Random(99)
    for _ in range(40):
        A = rand_matrix(rng, 4, 4, -9, 9)
        d = smith_diagonal(A)
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
    assert cokernel_invariants(IntMatrix(1, 1, [[6]])) == AbelianInvariants(0, (6,))
    assert cokernel_invariants(IntMatrix(1, 1, [[0]])) == AbelianInvariants(1)
    assert cokernel_invariants(IntMatrix(1, 1, [[1]])).is_trivial
    # Z/2 + Z/3 = Z/6 in invariant-factor form
    assert cokernel_invariants(IntMatrix(2, 2, [[2, 0], [0, 3]])) == AbelianInvariants(0, (6,))
    assert cokernel_invariants(IntMatrix(0, 3, [])) == AbelianInvariants(3)
    assert cokernel_invariants(IntMatrix(2, 2, [[2, 0], [0, 4]])) == AbelianInvariants(0, (2, 4))


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
    return cokernel_invariants(IntMatrix(len(coords), len(basis), coords))


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
    want = cokernel_invariants(dense(rows, cols))
    assert sparse_cokernel_invariants(rows, cols) == want
    assert sparse_cokernel_invariants(rows, cols, max_entries=cols * len(rows)) == want


def test_sparse_problems_leave_free_and_torsion_residues(monkeypatch):
    residues = []

    def recording(A, budget=None):
        got = cokernel_invariants(A, budget)
        residues.append(got)
        return got

    monkeypatch.setattr(zlattice, "cokernel_invariants", recording)

    @settings(max_examples=300, deadline=None, database=None)
    @given(sparse_problems())
    def collect(problem):
        sparse_cokernel_invariants(*problem)

    collect()
    assert any(r.free_rank for r in residues)
    assert any(r.torsion for r in residues)


def test_sparse_cokernel_leaves_its_input_alone():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 1}]
    assert sparse_cokernel_invariants(rows, 2) == AbelianInvariants(0, (3,))
    assert rows == [{0: 1, 1: 2}, {0: 2, 1: 1}]


def test_sparse_cokernel_rejects_columns_out_of_range():
    with pytest.raises(LatticeError):
        sparse_cokernel_invariants([{2: 1}], 2)
    with pytest.raises(LatticeError):
        sparse_cokernel_invariants([{-1: 1}], 2)


def test_sparse_cokernel_charges_fill_in():
    # an arrow: the one unit pivot, at (0, 0), turns every other row dense,
    # so 31 entries become 100 after the first pivot
    n = 10
    rows = [{0: 1, **{j: 2 for j in range(1, n + 1)}}] + [{0: 2, i: 3} for i in range(1, n + 1)]
    want = cokernel_invariants(dense(rows, n + 1))
    assert sparse_cokernel_invariants(rows, n + 1, max_entries=100) == want
    with pytest.raises(BudgetExhausted, match="entry cap"):
        sparse_cokernel_invariants(rows, n + 1, max_entries=99)
    with pytest.raises(BudgetExhausted, match="entry cap"):
        sparse_cokernel_invariants(rows, n + 1, max_entries=30)


def test_sparse_cokernel_charges_the_dense_residue():
    # no unit entry: the 8 entries would become an 8 x 8 dense residue
    rows = [{i: 2} for i in range(8)]
    assert sparse_cokernel_invariants(rows, 8, max_entries=64) == AbelianInvariants(0, (2,) * 8)
    with pytest.raises(BudgetExhausted, match="entry cap"):
        sparse_cokernel_invariants(rows, 8, max_entries=63)


def test_sparse_cokernel_reads_the_deadline():
    rows = [{i: 1, i + 1: 1} for i in range(5)]
    with pytest.raises(BudgetExhausted, match="time limit"):
        sparse_cokernel_invariants(rows, 6, Budget.start(0))
