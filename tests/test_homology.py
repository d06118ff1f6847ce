"""Schur multipliers, the kernel-coinvariants check, and the metacyclic test."""

import itertools
import math
import time
import warnings
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpgroups import homology
from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.construct import uce
from fpgroups.cosets import todd_coxeter
from fpgroups.homology import (
    BaumslagIsoReport,
    HomologyError,
    L0Instance,
    _kernel_coinvariants,
    aspherical_h2_rank,
    baumslag_iso_test,
    lemma_l0_check,
    schur_multiplier,
)
from fpgroups.permrep import compose, evaluate_word, identity_perm, invert
from fpgroups.presentations import catalog, direct_product, parse_presentation
from fpgroups.words import Word
from fpgroups.zlattice import AbelianInvariants, abelianization, cokernel_invariants
from test_permrep import close_under_products


def quiet(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_presentation(text)


# -- Schur multipliers, against textbook values ------------------------------


def test_schur_a5():
    rep = schur_multiplier(catalog("A5").presentation)
    assert rep.group_order == 60
    assert rep.h2.free_rank == 0
    assert rep.h2.torsion == (2,)
    assert rep.schreier_rank == 60 * 2 - 60 + 1


def test_schur_cyclic_trivial():
    rep = schur_multiplier(parse_presentation("< a | a^5 >"))
    assert rep.group_order == 5
    assert rep.h2.is_trivial


def test_schur_klein_four():
    rep = schur_multiplier(parse_presentation("< a, b | a^2, b^2, [a, b] >"))
    assert rep.group_order == 4
    assert rep.h2.torsion == (2,)
    # cross-check: the quaternion central extension of order 8 = 2·4 exists
    q8 = parse_presentation("< a, b | a^4, a^2 b^-2, b^-1 a b a >")
    assert todd_coxeter(q8).n == 8


def test_schur_products_of_cyclics():
    # H2(Z/m x Z/n) = Z/gcd(m,n)
    rep = schur_multiplier(parse_presentation("< a, b | a^2, b^4, [a, b] >"))
    assert rep.h2.torsion == (2,)
    rep = schur_multiplier(parse_presentation("< a, b | a^3, b^3, [a, b] >"))
    assert rep.h2.torsion == (3,)
    rep = schur_multiplier(parse_presentation("< a, b | a^2, b^3, [a, b] >"))
    assert rep.h2.is_trivial  # gcd = 1


def test_schur_s3_and_a4():
    s3 = parse_presentation("< a, b | a^2, b^3, (a b)^2 >")
    assert schur_multiplier(s3).h2.is_trivial
    a4 = parse_presentation("< a, b | a^2, b^3, (a b)^3 >")
    rep = schur_multiplier(a4)
    assert rep.group_order == 12
    assert rep.h2.torsion == (2,)


def test_schur_elementary_abelian_27():
    # H2((Z/3)^2) = Z/3; with three generators, H2((Z/3)^3) = (Z/3)^3
    p = quiet("< a, b, c | a^3, b^3, c^3, [a,b], [a,c], [b,c] >")
    rep = schur_multiplier(p)
    assert rep.group_order == 27
    assert rep.h2.torsion == (3, 3, 3)


def test_schur_invariance_under_relator_presentation():
    base = schur_multiplier(catalog("A5").presentation).h2
    # reorder, invert, and cyclically permute relators
    variants = [
        "< a, b | b^3, a^2, (a b)^5 >",
        "< a, b | a^-2, b^3, (a b)^5 >",
        "< a, b | a^2, b^3, b a b a b a b a b a >",
    ]
    for text in variants:
        assert schur_multiplier(quiet(text)).h2 == base


def test_schur_refuses_infinite_groups():
    with pytest.raises(BudgetExhausted, match="not certified finite"):
        schur_multiplier(parse_presentation("< a, b | >"), Budget.start(max_cosets=300))


def test_uce_order_crosscheck_binary_icosahedral():
    # 2I = <s,t | (st)^2 = s^3 = t^5> is the order-120 perfect central
    # extension: |2I| = |H2(A5)| · |A5|
    two_i = parse_presentation("< s, t | (s t)^2 s^-3, s^3 t^-5 >")
    t = todd_coxeter(two_i)
    assert t.n == 120
    h2 = schur_multiplier(catalog("A5").presentation).h2
    assert h2.torsion == (2,) and t.n == 2 * 60
    # and 2I itself is superperfect
    assert abelianization(two_i).is_trivial
    assert schur_multiplier(two_i).h2.is_trivial


# -- Kunneth: H2(G x H) = H2(G) + H2(H) + (G_ab (x) H_ab) -------------------

FIXTURES = Path(__file__).parent / "fixtures"
FINITE = {name: quiet((FIXTURES / f"{name}.pres").read_text()) for name in ("trivial", "klein", "z5", "q8", "a5")}
ORDERS = {"trivial": 1, "klein": 4, "z5": 5, "q8": 8, "a5": 60}


def finite_abelian(orders):
    """Invariant-factor form of the direct sum of the Z/d."""
    return cokernel_invariants([{i: d} for i, d in enumerate(orders)], len(orders))


def kunneth_h2(g, h):
    """H2(G x H) of finite G and H from the factors: Z/a (x) Z/b = Z/gcd(a, b)."""
    tensor = [math.gcd(a, b) for a in abelianization(g).torsion for b in abelianization(h).torsion]
    return finite_abelian([*schur_multiplier(g).h2.torsion, *schur_multiplier(h).h2.torsion, *tensor])


@pytest.mark.parametrize(
    "left,right",
    [
        pair
        for pair in itertools.combinations_with_replacement(FINITE, 2)
        if ORDERS[pair[0]] * ORDERS[pair[1]] <= 64
    ],
)
def test_kunneth_on_fixture_products(left, right):
    g, h = FINITE[left], FINITE[right]
    rep = schur_multiplier(direct_product(g, h))
    assert rep.group_order == ORDERS[left] * ORDERS[right]
    assert rep.h2 == kunneth_h2(g, h)


def test_kunneth_tensor_term():
    # V4 x V4: Z/2 from each factor and four Z/2 from V4 (x) V4
    rep = schur_multiplier(direct_product(FINITE["klein"], FINITE["klein"]))
    assert rep.h2 == AbelianInvariants(0, (2,) * 6)


def test_kunneth_a5_times_z3():
    z3 = quiet("< c | c^3 >")
    rep = schur_multiplier(direct_product(FINITE["a5"], z3))
    assert rep.group_order == 180
    assert rep.h2 == kunneth_h2(FINITE["a5"], z3) == AbelianInvariants(0, (2,))


def test_schur_a5_times_z5_within_two_seconds():
    # the dense SNF took about 17 s on the 1,803 x 601 coinvariant matrix
    a5, z5 = FINITE["a5"], FINITE["z5"]
    want = kunneth_h2(a5, z5)
    started = time.perf_counter()
    rep = schur_multiplier(direct_product(a5, z5))
    assert time.perf_counter() - started < 2.0
    assert rep.h2 == want == AbelianInvariants(0, (2,))


def test_kunneth_a5_times_a5():
    # the dense coinvariant matrix was 43,204 x 10,801 and the process was
    # killed for memory; the sparse stage keeps it under the default budget
    a5 = FINITE["a5"]
    rep = schur_multiplier(direct_product(a5, a5))
    assert rep.group_order == 3600
    assert (rep.schreier_rank, rep.coinvariant_rows) == (10801, 43204)
    assert rep.h2 == kunneth_h2(a5, a5) == AbelianInvariants(0, (2, 2))


def test_entry_cap_stops_the_coinvariant_matrix():
    # four cosets admit V4's enumeration, but its 21 coinvariant entries
    # exceed a coset table's 4 · 2·2 entries at that cap
    klein = FINITE["klein"]
    assert todd_coxeter(klein, (), Budget.start(max_cosets=4)).n == 4
    with pytest.raises(BudgetExhausted, match="entry cap"):
        schur_multiplier(klein, Budget.start(max_cosets=4))
    assert schur_multiplier(klein, Budget.start(max_cosets=8)).h2 == AbelianInvariants(0, (2,))


@pytest.mark.parametrize("corrupt", ["dropped", "extra"])
def test_free_rank_certifies_the_coinvariant_rows(corrupt, monkeypatch):
    # N/[F,N] = H2 + Z^|X| for finite Q: rows that leave every Schreier
    # generator free, or kill them all, break the split
    real = homology._coinvariant_rows

    def corrupted(p, t, budget):
        rw, rows = real(p, t, budget)
        if corrupt == "dropped":
            return rw, iter(())
        return rw, itertools.chain(rows, ({i: 1} for i in range(rw.rank)))

    monkeypatch.setattr(homology, "_coinvariant_rows", corrupted)
    with pytest.raises(HomologyError, match="internal: coinvariant free rank"):
        schur_multiplier(catalog("A5").presentation)


# -- kernel-coinvariants comparison ------------------------------------------


def test_l0_binary_icosahedral_centre():
    two_i = parse_presentation("< s, t | (s t)^2 s^-3, s^3 t^-5 >")
    inst = L0Instance(
        ambient=two_i,
        normal_gens=(two_i.word("s^3"),),  # the central involution
        quotient=catalog("A5").presentation,
    )
    rep = lemma_l0_check(inst)
    assert rep.hypotheses_met
    assert rep.kernel_order == 2
    assert rep.coinvariants == AbelianInvariants(0, (2,))
    assert rep.h2_quotient == AbelianInvariants(0, (2,))
    assert rep.equal is True


def test_l0_whole_group_quotient_trivial():
    two_i = parse_presentation("< s, t | (s t)^2 s^-3, s^3 t^-5 >")
    inst = L0Instance(
        ambient=two_i,
        normal_gens=(two_i.word("s"), two_i.word("t")),
        quotient=quiet("< x | x >"),
    )
    rep = lemma_l0_check(inst)
    assert rep.hypotheses_met
    assert rep.kernel_order == 120
    assert rep.coinvariants.is_trivial
    assert rep.h2_quotient.is_trivial
    assert rep.equal is True


def test_l0_guards_h1():
    v4 = parse_presentation("< a, b | a^2, b^2, [a, b] >")
    rep = lemma_l0_check(
        L0Instance(v4, (v4.word("a"),), quiet("< x | x^2 >"))
    )
    assert not rep.hypotheses_met
    assert "H1" in rep.reason
    assert rep.equal is None


def test_l0_guards_h2():
    a5 = catalog("A5").presentation
    rep = lemma_l0_check(L0Instance(a5, (a5.word("a"),), quiet("< x | x >")))
    assert not rep.hypotheses_met
    assert "H2" in rep.reason


def test_l0_guards_quotient_order():
    two_i = parse_presentation("< s, t | (s t)^2 s^-3, s^3 t^-5 >")
    # claim the quotient by the centre is Z/5: order check must catch it
    rep = lemma_l0_check(
        L0Instance(two_i, (two_i.word("s^3"),), parse_presentation("< x | x^5 >"))
    )
    assert not rep.hypotheses_met
    assert "order" in rep.reason


def test_l0_with_trivial_kernel_enumerates_once(monkeypatch):
    # N = 1 and Q presented as G is: one coset table of G serves the H2(G)
    # hypothesis, G/N and Q, and the report is as it was with three
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return todd_coxeter(*args, **kwargs)

    monkeypatch.setattr(homology, "todd_coxeter", counting)
    rep = lemma_l0_check(L0Instance(UCE_A5, (), UCE_A5))
    assert calls == [UCE_A5]
    assert rep.to_json() == {
        "hypotheses_met": True,
        "reason": "ambient certified finite and superperfect",
        "kernel_order": 1,
        "coinvariants": {"free_rank": 0, "torsion": []},
        "h2_quotient": {"free_rank": 0, "torsion": []},
        "equal": True,
    }


# -- kernel coinvariants against the brute force they replaced ----------------


def _abelian_invariants_from_orders(orders: list[int]) -> AbelianInvariants:
    """Invariant factors of a finite abelian group from its element orders
    (the counts of solutions of d·x = 0 determine the group)."""
    size = len(orders)
    invariants: list[int] = []
    while size > 1:
        e = lcm(*orders)
        invariants.append(e)
        size //= e
        # orders of the complement A' with A = Z/e + A': each count of
        # solutions of d x = 0 divides out gcd(d, e)
        counts = {}
        for d in sorted({o for o in orders}):
            counts[d] = sum(1 for o in orders if d % o == 0) // gcd(d, e)
        # rebuild the order multiset of A' from divisor counts
        new_orders = []
        divisors = sorted(counts)
        exact = {}
        for d in divisors:
            below = sum(v for dd, v in exact.items() if d % dd == 0)
            exact[d] = counts[d] - below
            new_orders.extend([d] * exact[d])
        orders = new_orders or [1]
    invariants.reverse()
    return AbelianInvariants(0, tuple(d for d in invariants if d > 1))


def _normal_closure(seed: list, gen_perms: list, budget: Budget) -> frozenset:
    degree = len(gen_perms[0]) if gen_perms else 0
    current = close_under_products([identity_perm(degree)] + seed, compose, invert, budget)
    while True:
        extra = []
        for g in gen_perms:
            ginv = invert(g)
            for n in current:
                c = compose(compose(g, n), ginv)
                if c not in current:
                    extra.append(c)
        if not extra:
            return current
        current = close_under_products(list(current) + extra, compose, invert, budget)


def reference_kernel_coinvariants(g, normal_gens):
    """(|N|, N/[G,N]) by brute force in the regular permutation image of G:
    normal closures of permutation tuples, cosets of [G,N] in N as frozensets,
    and the invariants from the orders of those cosets."""
    budget = Budget.start()
    t = todd_coxeter(g)
    gen_perms = [tuple(t.action[2 * i]) for i in range(len(g.alphabet))]
    degree = t.n
    seed = [evaluate_word(w, gen_perms, degree) for w in normal_gens]
    N = _normal_closure(seed, gen_perms, budget)

    # [G, N]: normal closure of the generator-element commutators
    comms = []
    for gp in gen_perms:
        gpi = invert(gp)
        for n in N:
            c = compose(compose(compose(gp, n), gpi), invert(n))
            if c != identity_perm(degree):
                comms.append(c)
    K = (
        _normal_closure(comms, gen_perms, budget)
        if comms
        else frozenset([identity_perm(degree)])
    )
    # element orders of N/K via coset multiplication
    cosets: dict = {}
    for n in N:
        key = frozenset(compose(n, k) for k in K)
        cosets.setdefault(key, n)
    idcoset = frozenset(K)
    orders = []
    for key, rep in cosets.items():
        power, o = rep, 1
        while frozenset(compose(power, k) for k in K) != idcoset:
            power = compose(power, rep)
            o += 1
        orders.append(o)
    return len(N), _abelian_invariants_from_orders(orders)


def kernel_coinvariants(g, normal_gens):
    """(|N|, N/[G,N]) as lemma_l0_check computes them."""
    t = todd_coxeter(g)
    quotient_order, coinv = _kernel_coinvariants(g, t, tuple(normal_gens), Budget.start())
    return t.n // quotient_order, coinv


TWO_I = parse_presentation("< s, t | (s t)^2 s^-3, s^3 t^-5 >")
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    UCE_A5 = uce(FINITE["a5"]).tilde


def _letters(p):
    k = len(p.alphabet)
    return st.sampled_from([s * i for i in range(1, k + 1) for s in (1, -1)])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FINITE)).flatmap(lambda name: st.tuples(
    st.just(name),
    st.lists(st.lists(_letters(FINITE[name]), max_size=6), max_size=2),
)))
def test_kernel_coinvariants_match_brute_force_random(case):
    name, words = case
    g = FINITE[name]
    gens = [Word(g.alphabet, letters) for letters in words]
    assert kernel_coinvariants(g, gens) == reference_kernel_coinvariants(g, gens)


@pytest.mark.parametrize(
    "which,gens",
    [
        ("2I", []),
        ("2I", ["s^3"]),
        ("2I", ["t^2"]),
        ("2I", ["s", "t"]),
        ("uce(A5)", []),
        ("uce(A5)", ["a^2"]),
        ("uce(A5)", ["b"]),
        ("uce(A5)", ["a"]),
    ],
)
def test_kernel_coinvariants_match_brute_force_perfect(which, gens):
    g = TWO_I if which == "2I" else UCE_A5
    normal = [g.word(w) for w in gens]
    assert kernel_coinvariants(g, normal) == reference_kernel_coinvariants(g, normal)


@pytest.mark.parametrize("name", sorted(FINITE))
def test_kernel_coinvariants_of_empty_and_repeated_relator_generators(name, capsys):
    # a generator word that freely reduces away, and one that repeats an
    # ambient relator, each normally generate the trivial subgroup; the
    # presentation of G/N must drop or keep them without a warning
    g = FINITE[name]
    a = g.alphabet
    for gens in ([Word(a, (1, -1))], [g.relators[0]], [Word(a, (-1, 1)), g.relators[-1]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_coinvariants(g, gens)
        assert got == reference_kernel_coinvariants(g, gens)
        assert got == (1, AbelianInvariants(0, ()))
    assert capsys.readouterr().out == ""


# -- aspherical rank formula --------------------------------------------------


def test_h2_rank_bp2():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bp2 = catalog("Bp", [2]).presentation
    assert aspherical_h2_rank(bp2, aspherical=True) == 0


def test_h2_rank_three_gen_five_rel():
    p = quiet("< a, b, c | a^2, b^3, (a b)^5, c b^-1 a^-1, c b^-1 a^-1 >")
    assert abelianization(p).is_trivial
    assert aspherical_h2_rank(p, aspherical=True) == 2


def test_h2_rank_refusals():
    with pytest.raises(HomologyError, match="asphericity"):
        aspherical_h2_rank(catalog("A5").presentation, aspherical=False)
    with pytest.raises(HomologyError, match="abelianization"):
        aspherical_h2_rank(parse_presentation("< a | a^2 >"), aspherical=True)


def test_h2_rank_balanced_is_zero():
    assert aspherical_h2_rank(
        parse_presentation("< s, t | (s t)^2 s^-3, s^3 t^-5 >"), aspherical=True
    ) == 0


# -- metacyclic pair arithmetic ------------------------------------------------


def test_baumslag_pair_25_6():
    rep = baumslag_iso_test(25, 6, 2)
    assert isinstance(rep, BaumslagIsoReport)
    assert rep.power == 11
    assert rep.branches == (6, 21)
    assert rep.isomorphic is False


def test_baumslag_identity_and_inverse():
    assert baumslag_iso_test(25, 6, 1).isomorphic is True
    assert baumslag_iso_test(25, 6, -1).isomorphic is True


def test_baumslag_rejects_noninvertible():
    with pytest.raises(HomologyError, match="invertible"):
        baumslag_iso_test(25, 10, 2)


def test_baumslag_json():
    j = baumslag_iso_test(25, 6, 2).to_json()
    assert j["isomorphic"] is False
    assert j["power"] == 11
