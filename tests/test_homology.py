"""Schur multipliers, the kernel-coinvariants check, and the metacyclic test."""

import warnings

import pytest

from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.cosets import todd_coxeter
from fpgroups.homology import (
    BaumslagIsoReport,
    HomologyError,
    L0Instance,
    aspherical_h2_rank,
    baumslag_iso_test,
    lemma_l0_check,
    schur_multiplier,
)
from fpgroups.presentations import catalog, parse_presentation
from fpgroups.zlattice import AbelianInvariants, abelianization


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
