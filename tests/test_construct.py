"""Small-cancellation embeddings, universal central extensions, pipeline."""

import math
import warnings
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fpgroups import construct, zlattice
from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.cancellation import DehnSolver, check_metric
from fpgroups.construct import (
    ConstructionError,
    RipsError,
    de_bruijn_bits,
    fibre_generators,
    grothendieck_evidence,
    pipeline,
    rips,
    uce,
)
from fpgroups.cosets import todd_coxeter
from fpgroups.permrep import GroupHom, check_generation, cyclic_group, fibre_product_finite
from fpgroups.presentations import catalog, direct_product, parse_presentation
from fpgroups.words import Alphabet, Word, commutator
from fpgroups.zlattice import abelianization, exponent_matrix, lattice_solve
from test_zlattice import determinant


def quiet(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_presentation(text)


A5 = catalog("A5").presentation
BP2 = catalog("Bp", (2,)).presentation
FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.pres"))


@lru_cache(maxsize=None)
def rips_a5(m, zero):
    return rips(A5, m, zero_exponent=zero)


@lru_cache(maxsize=None)
def pipeline_a5():
    return pipeline(A5, 7)


def expressions(u):
    """The w_a of a uce result: the last |X| relators of its presentation,
    after the commutators [a, r]."""
    return u.tilde.relators[-len(u.source.alphabet) :]


def kill_normal_gens(rr, w):
    """The image of a word of Gamma in Q: a_1, a_2 deleted, freely reduced."""
    nx = len(rr.gamma.alphabet) - 2
    return Word(A5.alphabet, [l for l in w.letters if abs(l) <= nx]).reduce()


# -- de Bruijn fillers -------------------------------------------------------


def test_de_bruijn_every_window_once():
    for d in (2, 3, 4, 6):
        bits = de_bruijn_bits(d)
        assert len(bits) == 1 << d
        wrapped = bits + bits[: d - 1]
        windows = {tuple(wrapped[i : i + d]) for i in range(1 << d)}
        assert len(windows) == 1 << d


def test_de_bruijn_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        de_bruijn_bits(0)


# -- rips --------------------------------------------------------------------


def test_rips_counts_and_certificate():
    rr = rips_a5(7, False)
    assert len(rr.gamma.alphabet) == len(A5.alphabet) + 2
    assert len(rr.gamma.relators) == len(A5.relators) + 4 * len(A5.alphabet)
    assert rr.metric.verdict and rr.metric.m == 7
    assert rr.m == 7 and not rr.zero_exponent
    # the certificate is reproducible from the output alone
    assert check_metric(rr.gamma, 7).verdict


def test_rips_normal_generators_and_alphabet():
    rr = rips_a5(7, False)
    assert rr.gamma.alphabet.names[: len(A5.alphabet)] == A5.alphabet.names
    assert tuple(w.text() for w in rr.normal_gens) == ("a1", "a2")


def test_rips_alphabet_dodges_name_clash():
    q = quiet("< a1, a2 | a1^2 a2, a2^3 >")
    rr = rips(q, 6)
    assert rr.gamma.alphabet.names[-2:] == ("aa1", "aa2")
    assert tuple(w.text() for w in rr.normal_gens) == ("aa1", "aa2")


def test_rips_quotient_map_sections():
    rr = rips_a5(7, False)
    rels = rr.gamma.relators
    # input relator + filler |-> input relator
    for i, r in enumerate(A5.relators):
        assert kill_normal_gens(rr, rels[i]) == r.reduce()
    # conjugation relators |-> identity
    for w in rels[len(A5.relators) :]:
        assert not kill_normal_gens(rr, w)


def test_rips_zero_exponent_preserves_abelianization():
    assert abelianization(rips_a5(7, True).gamma).is_trivial
    for q in [
        catalog("cyclic", (6,)).presentation,
        catalog("free", (2,)).presentation,
    ]:
        rr = rips(q, 6, zero_exponent=True)
        assert abelianization(rr.gamma).to_json() == abelianization(q).to_json()
        assert rr.metric.verdict


def test_rips_zero_exponent_fillers_have_zero_sums():
    rr = rips_a5(7, True)
    nx = len(A5.alphabet)
    # input relators carry no a-letters of their own, so their rows show the
    # filler sums exactly
    for i in range(len(A5.relators)):
        assert rr.gamma.relators[i].exponent_vector()[nx:] == [0, 0]


def test_rips_perfection_propagates():
    assert abelianization(rips_a5(6, True).gamma).is_trivial
    assert abelianization(rips_a5(6, False).gamma).is_trivial  # plain mode re-checks by SNF
    assert abelianization(rips(BP2, 6, zero_exponent=True).gamma).is_trivial


def test_rips_trivial_input():
    rr = rips(quiet("< x | x >"), 6, zero_exponent=True)
    assert abelianization(rr.gamma).is_trivial
    assert len(rr.gamma.relators) == 1 + 4


def test_rips_rejects_small_m():
    with pytest.raises(RipsError, match="at least 6"):
        rips(A5, 5)


def test_rips_letter_cap():
    with pytest.raises(BudgetExhausted, match="letter"):
        rips(A5, 12, zero_exponent=True, budget=Budget.start(max_letters=10_000))


class Countdown(Budget):
    """A budget whose deadline passes at its n-th check, whatever the clock."""

    def __init__(self, n: int):
        super().__init__(deadline=float("inf"))
        object.__setattr__(self, "left", n)

    def check(self, what: str = "time limit") -> None:
        object.__setattr__(self, "left", self.left - 1)
        if self.left <= 0:
            raise BudgetExhausted(what)


def test_rips_reads_the_deadline_while_assembling(monkeypatch):
    # one check before the attempt, one after the de Bruijn sequence and one
    # per filler: a deadline that passes anywhere in the assembly stops rips
    # before the piece check, and only the next check is the piece check's
    entered = []

    def watched(*args):
        entered.append(1)
        return check_metric(*args)

    monkeypatch.setattr(construct, "check_metric", watched)
    fillers = len(A5.relators) + 4 * len(A5.alphabet)
    for n in range(1, fillers + 4):
        with pytest.raises(BudgetExhausted):
            rips(A5, 7, zero_exponent=True, budget=Countdown(n))
        assert len(entered) == (n == fillers + 3), n


def test_rips_deterministic():
    a = rips(A5, 7, zero_exponent=True)
    b = rips(A5, 7, zero_exponent=True)
    assert a.gamma.to_json() == b.gamma.to_json()
    assert a.de_bruijn_order == b.de_bruijn_order


def test_rips_to_json_shape():
    rr = rips_a5(7, False)
    j = rr.to_json()
    assert j["relator_count"] == 11 and j["metric_verdict"] is True
    assert j["m"] == 7 and j["de_bruijn_order"] >= 2
    # the worst piece stays under 1/7 of the shortest relator
    shortest = min(len(r) for r in rr.gamma.relators)
    assert 0 < j["max_piece"] * 7 < shortest


@pytest.mark.parametrize("m", (6, 7, 12))
@pytest.mark.parametrize("path", FIXTURES, ids=lambda f: f.stem)
def test_rips_zero_exponent_certifies_at_the_first_order(path, m, monkeypatch):
    # the fillers are designed at m: sigma_0 stretches pieces and segments
    # alike, so the first de Bruijn order's certificate passes
    check, reports = construct.check_metric, []

    def counted(*args):
        reports.append(check(*args))
        return reports[-1]

    monkeypatch.setattr(construct, "check_metric", counted)
    rr = rips(quiet(path.read_text()), m, zero_exponent=True)
    assert len(reports) == 1 and rr.metric is reports[0] and rr.metric.verdict
    shortest = min(len(r) for r in rr.gamma.relators)
    assert 0 < rr.metric.max_piece() * m < shortest
    assert rr.to_json()["total_letters"] == sum(len(r) for r in rr.gamma.relators)


# -- uce ---------------------------------------------------------------------


def test_uce_a5_counts_and_order():
    u = uce(A5)
    assert len(u.tilde.relators) == 2 * (1 + 3) == 8
    table = todd_coxeter(u.tilde)
    assert table and table.n == 120  # the binary icosahedral group


def test_uce_witness_certificates():
    u = uce(A5)
    rows = exponent_matrix(A5).data
    for ai, c in enumerate(u.witnesses):
        total = [0, 0]
        for cj, row in zip(c, rows):
            total = [t + cj * x for t, x in zip(total, row)]
        assert total == [1 if j == ai else 0 for j in range(2)]


def test_uce_expressions_match_witnesses():
    u = uce(A5)
    for c, w in zip(u.witnesses, expressions(u), strict=True):
        prod = Word.identity(A5.alphabet)
        for cj, r in zip(c, A5.relators):
            prod = prod * r**cj
        assert w == prod.reduce()


def test_uce_rank_one():
    u = uce(quiet("< a | a >"))
    assert [w.text() for w in u.tilde.relators] == ["a", "a"]
    table = todd_coxeter(u.tilde)
    assert table and table.n == 1


def test_uce_emits_no_warnings():
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        uce(quiet("< a | a >"))
    assert not log


def test_uce_bp2():
    u = uce(BP2)
    assert len(u.tilde.relators) == 4 * (1 + 4) == 20
    assert abelianization(u.tilde).is_trivial


def test_uce_commutator_fallback_keeps_relators_nonempty():
    # [a, a^2] is freely trivial; the conjugate fallback must kick in
    u = uce(A5)
    assert all(len(w) > 0 for w in u.tilde.relators)
    assert u.tilde.relators[0] != Word(A5.alphabet, ())


def test_uce_expressions_trivial_in_source():
    # w_a is a literal product of relators, so Dehn reduction over a
    # C'(1/7) presentation must kill it; the first two witnesses are
    # 15- and 10-fold products, not single relators
    rr = rips_a5(7, True)
    u = uce(rr.gamma)
    assert u.witnesses[0][:3] == (-7, -5, 3)  # filler sums vanish, so the
    # relation lattice restricted to the input columns is A5's own
    solver = DehnSolver(rr.gamma)
    for w in expressions(u):
        trivial, _ = solver.is_trivial(w)
        assert trivial


def test_uce_reads_the_deadline():
    with pytest.raises(BudgetExhausted):
        uce(A5, Budget.start(time_limit_s=0.0))


def test_uce_runs_one_smith_normal_form(monkeypatch):
    # perfection, the certificates and the kernel they are shortened against
    # all come from one SNF of the exponent matrix: the core runs once, on a
    # block of one row per relator
    gamma = rips_a5(7, True).gamma
    calls = []
    core = zlattice._snf_core

    def counted(a, m, *rest, **kwargs):
        calls.append(m)
        return core(a, m, *rest, **kwargs)

    monkeypatch.setattr(zlattice, "_snf_core", counted)
    for g in (A5, BP2, gamma):
        calls.clear()
        uce(g)
        assert calls == [len(g.relators)]


def test_uce_rejects_non_perfect():
    with pytest.raises(ConstructionError) as ei:
        uce(quiet("< x | x^5 >"))
    assert str(ei.value) == (
        "universal central extension needs a perfect group; abelianization is Z/5"
    )


def test_uce_to_json():
    j = uce(A5).to_json()
    assert j["relator_count"] == 8
    assert set(j["witnesses"]) == {"a", "b"}


# -- commutator assembly, against the Word-product oracle -------------------


def reference_commutator_relator(gens, ai, r):
    """_commutator_relator as it stood before it joined letter tuples: four
    Words per candidate, each product freely reduced whole."""
    a = gens[ai]
    w = commutator(a, r).reduce()
    if w:
        return w
    others = [g for j, g in enumerate(gens) if j != ai]
    for g in others + [g.inverse() for g in others]:
        w = commutator(a, g * r * g.inverse()).reduce()
        if w:
            return w
    return r


@st.composite
def commutator_problems(draw):
    """A generator index and a relator over 1 to 4 generators: a power of
    that generator, which takes the fallback, or any reduced word, conjugated
    by a short word so that it is often not cyclically reduced."""
    rank = draw(st.integers(1, 4))
    ai = draw(st.integers(0, rank - 1))
    letter = st.integers(1, rank).flatmap(lambda g: st.sampled_from([g, -g]))
    if draw(st.booleans()):
        body = [draw(st.sampled_from([ai + 1, -(ai + 1)]))] * draw(st.integers(1, 5))
    else:
        body = draw(st.lists(letter, min_size=1, max_size=8))
    conj = draw(st.lists(letter, max_size=3))
    alphabet = Alphabet([f"x{i}" for i in range(1, rank + 1)])
    r = Word(alphabet, conj + body + [-l for l in reversed(conj)]).reduce()
    assume(r)
    return rank, ai, r


@settings(max_examples=400, deadline=None)
@given(commutator_problems())
@example((2, 0, A5.word("a^2")))  # [a, a^2] is freely trivial: [a, b a^2 b^-1]
@example((1, 0, quiet("< a | a^5 >").relators[0]))  # rank one: r itself
@example((2, 1, A5.word("b^-1 a b")))  # cancels at every junction of [b, r]
def test_commutator_relator_matches_the_word_product_oracle(problem):
    rank, ai, r = problem
    gens = [r.alphabet.gen(name) for name in r.alphabet.names]
    got = construct._commutator_relator(rank, ai, r)
    want = reference_commutator_relator(gens, ai, r)
    assert got == want and got.is_reduced


@given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6), max_size=6))
def test_reduced_product_matches_a_whole_reduction(parts):
    alphabet = Alphabet(["a", "b"])
    words = [Word(alphabet, part).reduce() for part in parts]
    want = Word(alphabet, [l for w in words for l in w.letters]).reduce()
    assert construct._reduced_product([w.letters for w in words]) == list(want.letters)


# -- integral LLL and certificate shrinking, against the rational oracles ----
#
# The rational versions that construct used before its integral ones: the
# integral code must make the same decisions, so it returns the same lists.


def gram_schmidt_oracle(basis: list[list[int]]) -> list[list[Fraction]]:
    star: list[list[Fraction]] = []
    for v in basis:
        vi = [Fraction(x) for x in v]
        for s in star:
            den = sum(x * x for x in s)
            mu = sum(x * y for x, y in zip(vi, s)) / den
            vi = [x - mu * y for x, y in zip(vi, s)]
        star.append(vi)
    return star


def lll_oracle(basis: list[list[int]]) -> list[list[int]]:
    """Textbook LLL (delta = 3/4) with exact rational Gram-Schmidt, which
    recomputes every b_i* after each size reduction and swap."""
    b = [list(v) for v in basis if any(v)]
    n = len(b)
    if n <= 1:
        return b
    delta = Fraction(3, 4)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    star = gram_schmidt_oracle(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            mu = sum(Fraction(x) * y for x, y in zip(b[k], star[j])) / dot(
                star[j], star[j]
            )
            q = round(mu)
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        star = gram_schmidt_oracle(b)
        mu_prev = (
            sum(Fraction(x) * y for x, y in zip(b[k], star[k - 1]))
            / dot(star[k - 1], star[k - 1])
        )
        if dot(star[k], star[k]) >= (delta - mu_prev * mu_prev) * dot(
            star[k - 1], star[k - 1]
        ):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star = gram_schmidt_oracle(b)
            k = max(k - 1, 1)
    return b


def shrink_oracle(
    c: Sequence[int], kernel: list[list[int]], weights: Sequence[int]
) -> list[int]:
    """Size-reduce c modulo the kernel lattice, minimizing sum |c_j|*w_j (the
    letter count of the assembled word).  The cost is convex piecewise-linear
    along each kernel direction, so the per-direction optimum is a weighted
    median, reachable in one jump however far away; coordinate descent over
    the directions then settles in a handful of sweeps."""

    def cost(v: Sequence[int]) -> int:
        return sum(abs(x) * w for x, w in zip(v, weights))

    def best_step(cur: list[int], v: Sequence[int]) -> int:
        pts = sorted(
            (Fraction(x, y), w * abs(y)) for x, y, w in zip(cur, v, weights) if y
        )
        if not pts:
            return 0
        total = sum(w for _, w in pts)
        acc = 0
        for ratio, w in pts:
            acc += w
            if 2 * acc >= total:
                break
        lo = math.floor(ratio)
        return min(
            (lo, lo + 1),
            key=lambda t: cost([x - t * y for x, y in zip(cur, v)]),
        )

    # Babai nearest-plane first: brings the solver's arbitrary representative
    # within basis-sized distance of the origin in one pass, whatever its
    # magnitude; the weighted descent then polishes for letter count
    cur = list(c)
    if kernel:
        star = gram_schmidt_oracle(kernel)
        for i in reversed(range(len(kernel))):
            den = sum(x * x for x in star[i])
            mu = sum(Fraction(x) * y for x, y in zip(cur, star[i])) / den
            q = round(mu)
            if q:
                cur = [x - q * y for x, y in zip(cur, kernel[i])]

    for _sweep in range(100):
        moved = False
        for v in kernel:
            t = best_step(cur, v)
            if t:
                cand = [x - t * y for x, y in zip(cur, v)]
                if cost(cand) < cost(cur):
                    cur = cand
                    moved = True
        if not moved:
            break
    return cur


def independent(rows):
    """The nonzero rows are linearly independent: their Gram determinant is
    not 0 (the oracles divide by zero otherwise)."""
    b = [r for r in rows if any(r)]
    gram = [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b]
    return determinant(zlattice.IntMatrix(len(b), len(b), gram)) != 0


def real_kernels():
    """The raw relation kernels and certificates uce reduces on the embedding
    presentations: uce(rips(A5, 7, zero_exponent=True).gamma) and
    pipeline(T(2,3,7), 6)."""
    t237 = quiet("< a, b | a^2, b^3, (a b)^7 >")
    for g in (rips_a5(7, True).gamma, rips(t237, 6, zero_exponent=True).gamma):
        n = len(g.alphabet)
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        solutions, kernel = lattice_solve(units, exponent_matrix(g))
        yield solutions, kernel, [len(r) for r in g.relators]


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**30))
def test_round_div_matches_fraction_rounding(a, b):
    assert construct._round_div(a, b) == round(Fraction(a, b))
    # exact halves, which round to the even neighbour
    assert construct._round_div(2 * a + 1, 2) == round(Fraction(2 * a + 1, 2))


def test_integral_gram_schmidt_matches_the_rational_one():
    rows = [[3, 1, 4, 1], [5, -9, 2, 6], [5, 3, -5, 8], [9, 7, 9, 3]]
    d, lam = construct._integral_gram_schmidt(rows)
    star = gram_schmidt_oracle(rows)
    for k, s in enumerate(star):
        assert Fraction(d[k + 1], d[k]) == sum(x * x for x in s)
        for j in range(k):
            mu = sum(x * y for x, y in zip(rows[k], star[j])) / sum(x * x for x in star[j])
            assert lam[k][j] == d[j + 1] * mu


@st.composite
def lattices(draw, bound):
    """1 to 7 rows of one dimension, some of them zero, entries up to bound
    in absolute value; small entries make ties, where mu is half an odd
    integer, common."""
    rank = draw(st.integers(1, 7))
    dim = draw(st.integers(rank, rank + 3))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=rank, max_size=rank))
    zeros = draw(st.integers(0, 2))
    for _ in range(zeros):
        rows.insert(draw(st.integers(0, len(rows))), [0] * dim)
    return rows


@settings(max_examples=150, deadline=None)
@given(st.one_of(lattices(10**30), lattices(10**6), lattices(3)))
def test_lll_matches_the_rational_oracle(rows):
    assume(independent(rows))
    assert construct._lll(rows) == lll_oracle(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), max_size=6),
    st.lists(st.integers(-4, 4), min_size=6, max_size=6),
)
def test_lll_ties_match_the_rational_oracle(rest, odd):
    # b_0 = 2 e_0 and b_i starts with an odd 2o + 1, so every mu_i0 starts
    # as half an odd integer
    rows = [[2] + [0] * 6] + [[2 * o + 1] + r for o, r in zip(odd, rest)]
    assume(independent(rows))
    assert construct._lll(rows) == lll_oracle(rows)
    c = [2 * o + 1 for o in odd] + [0]
    assert construct._shrink_certificate(c, rows, [1] * 7) == shrink_oracle(c, rows, [1] * 7)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(lattices(10**30), lattices(10**3), lattices(3)),
    st.data(),
)
def test_shrink_certificate_matches_the_rational_oracle(rows, data):
    assume(independent(rows))
    kernel = [r for r in rows if any(r)]
    if data.draw(st.booleans()):
        kernel = lll_oracle(kernel)
    dim = len(rows[0])
    big = data.draw(st.sampled_from([9, 10**30, 10**60]))
    c = data.draw(st.lists(st.integers(-big, big), min_size=dim, max_size=dim))
    weights = data.draw(st.lists(st.integers(1, 40), min_size=dim, max_size=dim))
    assert construct._shrink_certificate(c, kernel, weights) == shrink_oracle(c, kernel, weights)


def test_lll_and_shrink_match_the_oracles_on_real_kernels():
    for solutions, kernel, weights in real_kernels():
        reduced = construct._lll(kernel)
        assert reduced == lll_oracle(kernel)
        assert len(reduced) == 7
        for c in solutions:
            assert construct._shrink_certificate(c, reduced, weights) == shrink_oracle(
                c, reduced, weights
            )


# -- fibre generators --------------------------------------------------------


def test_fibre_generators_shape():
    z6 = quiet("< x | x^6 >")
    pairs = fibre_generators(z6, [z6.word("x^3")])
    assert [(u.text(), v.text()) for u, v in pairs] == [("x", "x"), ("x^3", "")]


def test_fibre_generators_reject_foreign_words():
    z6 = quiet("< x | x^6 >")
    other = quiet("< y | y^2 >")
    with pytest.raises(ConstructionError, match="alphabet"):
        fibre_generators(z6, [other.word("y")])


def test_fibre_generators_generate_brute_force():
    # Z/6 -> Z/3: the pairs {(x,x), (x^3,1)} must span all 12 elements
    z6 = quiet("< x | x^6 >")
    eta = GroupHom(z6, [cyclic_group(3).generators[0]], 3)
    ffp = fibre_product_finite(eta, cyclic_group(6))
    assert len(ffp.elements) == 12
    assert check_generation(ffp, list(fibre_generators(z6, [z6.word("x^3")])))
    # the diagonal alone is too small
    assert not check_generation(ffp, [(z6.word("x"), z6.word("x"))])


# -- pipeline ----------------------------------------------------------------


def test_pipeline_a5_counts():
    pl = pipeline_a5()
    nx, nr = len(A5.alphabet), len(A5.relators)
    assert pl.counts["extension_generators"] == 2 * (nx + 2) == 8
    assert pl.counts["extension_relators"] == (nx + 2) ** 2 + 2 * (nx + 2) * (
        1 + nr + 4 * nx
    ) == 112
    assert pl.counts["p_generators"] == nx + 2 + nr == 7
    extension = direct_product(pl.tilde, pl.tilde)
    assert len(extension.alphabet) == pl.counts["extension_generators"]
    assert len(extension.relators) == pl.counts["extension_relators"]


def test_pipeline_counts_depend_only_on_sizes():
    t5 = quiet("< a, b | a^2, b^3, (a b)^5 >")
    t7 = quiet("< a, b | a^2, b^3, (a b)^7 >")
    assert pipeline(t5, 6).counts == pipeline(t7, 6).counts


def test_pipeline_rejects_non_perfect():
    with pytest.raises(ConstructionError, match="perfect"):
        pipeline(quiet("< x | x^6 >"), 6)


def test_pipeline_carries_evidence():
    pl = pipeline_a5()
    assert pl.evidence.verdict == "criterion fails"  # A5 has index-5 subgroups
    j = pl.to_json()
    assert j["counts"]["extension_relators"] == 112
    assert j["rips"]["metric_verdict"] is True


# -- finite-quotient evidence -------------------------------------------------


def test_evidence_bp2_satisfied_at_scale():
    ev = grothendieck_evidence(BP2, 5, Budget.start(time_limit_s=30.0, max_cosets=20_000))
    assert ev.verdict == "criterion satisfied at tested scale"
    assert ev.h1.is_trivial
    assert ev.h2 is None and "not certified finite" in ev.h2_status
    assert all(ev.subgroups.totals.get(k, 0) == 0 for k in range(2, 6))


def test_evidence_fails_on_homology():
    ev = grothendieck_evidence(quiet("< a | a^5 >"), 3)
    assert ev.verdict == "criterion fails"
    assert str(ev.h1) == "Z/5"


def test_evidence_cut_short_by_the_deadline_is_inconclusive():
    # A5 fails at index 5 and on H2 = Z/2; with no time to look it must not pass
    ev = grothendieck_evidence(A5, 5, Budget.start(time_limit_s=0.0))
    assert ev.verdict == "inconclusive: time limit reached"
    assert not ev.subgroups.complete and ev.h2 is None
    # what is already seen to fail still fails
    ev = grothendieck_evidence(quiet("< a | a^5 >"), 3, Budget.start(time_limit_s=0.0))
    assert ev.verdict == "criterion fails"


def test_evidence_fails_on_subgroups():
    ev = grothendieck_evidence(A5, 5)
    assert ev.verdict == "criterion fails"
    assert ev.subgroups.totals[5] == 5
    assert ev.h2 is not None and ev.h2.torsion == (2,)
    j = ev.to_json()
    assert j["verdict"] == "criterion fails" and j["h2"] == {"free_rank": 0, "torsion": [2]}
