"""Coset enumeration, Reidemeister-Schreier, and low-index search."""

import warnings
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.cosets import (
    CosetError,
    CosetTable,
    Exhausted,
    SchreierRewriter,
    fingerprint_compare,
    low_index,
    reidemeister_schreier,
    todd_coxeter,
)
from fpgroups.permrep import hom_search, symmetric_group
from fpgroups.presentations import catalog, load_presentation, parse_presentation, parse_word
from fpgroups.zlattice import abelianization, exponent_matrix, smith_diagonal
from fpgroups.words import Word


def quiet(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_presentation(text)


Z5 = parse_presentation("< a | a^5 >")
A5 = catalog("A5").presentation
F2 = parse_presentation("< a, b | >")


# -- Todd-Coxeter -----------------------------------------------------------


def test_tc_cyclic_five():
    t = todd_coxeter(Z5)
    assert isinstance(t, CosetTable)
    assert t.n == 5
    assert t.standardized
    assert t.verify(Z5)
    # a acts as a 5-cycle; numbering follows BFS over (a, a^-1) columns
    perm = t.permutation("a")
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
    assert t.trace(0, a) == 0
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
    # F2 is infinite: the cap must be reported, not raised
    r = todd_coxeter(F2, budget=Budget.start(max_cosets=200))
    assert isinstance(r, Exhausted)
    assert not r
    assert r.max_cosets == 200
    assert r.cosets_used <= 200
    assert r.reason == "coset cap"


def test_tc_time_limit():
    r = todd_coxeter(F2, budget=Budget.start(time_limit_s=0.0, max_cosets=10**9))
    assert isinstance(r, Exhausted)
    assert r.reason == "time limit"


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
    assert t.permutation("a") == tuple(t.action[0])  # 0-based images
    assert sorted(t.permutation("a")) == [0, 1, 2, 3, 4]
    assert t.standardized is True


def test_verify_catches_broken_table():
    t = todd_coxeter(Z5)
    bad = CosetTable(
        t.alphabet,
        [list(t.action[0]), list(t.action[1])],
        t.subgroup_gens,
        standardized=True,
    )
    bad.action[0][0] = 0  # a no longer a bijection consistent with a^-1
    with pytest.raises(CosetError):
        bad.verify(Z5)


def test_verify_checks_subgroup_generators():
    a = A5.word("a")
    t = todd_coxeter(A5, (a,))
    lying = CosetTable(t.alphabet, t.action, (A5.word("b"),), standardized=True)
    with pytest.raises(CosetError, match="moves coset 1"):
        lying.verify(A5)


def test_standardize_idempotent():
    t = todd_coxeter(A5, (A5.word("a b"),))
    again = t.standardize()
    assert again.action == t.action


# -- Reidemeister-Schreier --------------------------------------------------


def test_rs_integers_squared():
    # Z, subgroup <a^2>: index 2, rank 2*1 - 2 + 1 = 1, no relators
    z = parse_presentation("< a | >")
    t = todd_coxeter(z, (z.word("a^2"),), Budget.start(max_cosets=100))
    assert isinstance(t, Exhausted) is False
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
    # every Schreier generator must trace coset 1 to itself
    t = todd_coxeter(A5, (A5.word("a b"),))
    rw = SchreierRewriter(A5, t)
    for i in range(rw.rank):
        w = rw.generator_word(i)
        assert t.trace(0, w) == 0


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


def test_rs_requires_standardized():
    t = todd_coxeter(Z5)
    raw = CosetTable(t.alphabet, t.action, t.subgroup_gens, standardized=False)
    with pytest.raises(CosetError, match="standardized"):
        reidemeister_schreier(Z5, raw)


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
        diag = smith_diagonal(exponent_matrix(p))
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
    "name", ["a5", "q8", "klein", "z5", "baumslag25_1", "baumslag25_2", "trivial", "free2"]
)
def test_low_index_totals_match_hall_formula(name):
    p = load_presentation((Path(__file__).parent / "fixtures" / f"{name}.pres").read_text())
    if name == "free2":  # a hom from F_2 is any pair of images
        h = {n: factorial(n) ** 2 for n in range(1, 6)}
    else:
        h = {1: 1}
        for n in range(2, 6):
            res = hom_search(p, symmetric_group(n))
            assert res.complete
            h[n] = len(res.homs)
    assert low_index(p, 5).totals == _hall_totals(h, 5)


def test_low_index_budget_flags_partial():
    f = low_index(F2, 6, Budget.start(time_limit_s=0.0))
    assert not f.complete
    assert f.exhausted_at == 1
    assert f.totals == {}


def test_low_index_partial_keeps_early_indices():
    # generous enough for index 1 but certain to die by 6
    fast = low_index(F2, 3)
    assert fast.complete  # sanity: the full search is quick

    f = low_index(F2, 6, Budget.start(time_limit_s=0.15))
    if not f.complete:
        assert f.exhausted_at is not None
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
