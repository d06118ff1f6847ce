"""Permutation quotients: hom search, epi counting, fibre products."""

import warnings
from itertools import product

import pytest

from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.permrep import (
    GroupHom,
    PermError,
    PermGroup,
    alternating_group,
    check_generation,
    compose,
    cycle_notation,
    cyclic_group,
    epi_count_product_check,
    evaluate_word,
    fibre_product_finite,
    hom_search,
    identity_perm,
    invert,
    perm_from_cycles,
    sl25,
    sl25_to_a5,
    symmetric_group,
    transitive_groups,
)
from fpgroups.presentations import catalog, parse_presentation
from fpgroups.words import Word


def quiet(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_presentation(text)


# -- composition convention (locked) ----------------------------------------


def test_composition_is_left_to_right():
    # 3-cycle (1 2 3) then transposition (1 2): point 1 -> 2 -> 1
    three = perm_from_cycles(3, [(1, 2, 3)])
    swap = perm_from_cycles(3, [(1, 2)])
    prod = compose(three, swap)
    assert prod[0] == 0  # point 1 fixed
    assert prod == (0, 2, 1)  # the product is (2 3)
    # the opposite convention would give (1 3)
    assert compose(swap, three) == (2, 1, 0)


def test_perm_basics():
    p = perm_from_cycles(5, [(1, 2, 3, 4, 5)])
    assert compose(p, invert(p)) == identity_perm(5)
    assert cycle_notation(p) == "(1 2 3 4 5)"
    assert cycle_notation(identity_perm(4)) == "()"
    with pytest.raises(PermError):
        perm_from_cycles(3, [(1, 2), (2, 3)])  # not disjoint


def test_atlas_orders():
    assert cyclic_group(6).order() == 6
    assert symmetric_group(4).order() == 24
    assert alternating_group(5).order() == 60
    expected = {
        2: [2],
        3: [3, 6],
        4: [4, 4, 8, 12, 24],
        5: [5, 10, 20, 60, 120],
    }
    for degree, orders in expected.items():
        groups = transitive_groups(degree)
        assert [g.order() for g in groups] == orders
        for g in groups:
            # transitivity: orbit of point 0 is everything
            orbit = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for gen in g.generators:
                    if gen[x] not in orbit:
                        orbit.add(gen[x])
                        frontier.append(gen[x])
            assert orbit == set(range(degree))


def test_element_cap():
    with pytest.raises(BudgetExhausted, match="cap"):
        symmetric_group(5).elements(Budget.start(max_elements=50))


# -- hom verification --------------------------------------------------------


def test_group_hom_stable_under_conjugating_relators():
    five = perm_from_cycles(5, [(1, 2, 3, 4, 5)])
    for text in ["< a | a^5 >", "< a | a^-5 >", "< a | a a^5 a^-1 >"]:
        h = GroupHom(quiet(text), [five], 5)
        assert evaluate_word(h.source.word("a^2"), h.images, 5) == compose(five, five)


def test_group_hom_constructor_verifies():
    p = parse_presentation("< a | a^5 >")
    with pytest.raises(PermError, match="does not die"):
        GroupHom(p, [perm_from_cycles(5, [(1, 2)])], 5)


# -- hom search ---------------------------------------------------------------


def test_hom_search_involution_to_s3():
    # identity + three transpositions
    p = parse_presentation("< a | a^2 >")
    res = hom_search(p, symmetric_group(3))
    assert res.complete
    assert len(res.homs) == 4
    assert res.epi_count == 0  # one involution never generates S3


def test_hom_search_free2_to_s3_epi_count():
    res = hom_search(parse_presentation("< a, b | >"), symmetric_group(3))
    assert res.complete
    assert len(res.homs) == 36
    assert res.epi_count == 18


def test_hom_search_exhaustive_against_brute_force():
    p = quiet("< a, b | a^2, b^2, (a b)^2 >")  # V4
    target = symmetric_group(3)
    elems = sorted(target.elements())
    idp = identity_perm(3)
    brute = [
        (x, y)
        for x, y in product(elems, repeat=2)
        if compose(x, x) == idp and compose(y, y) == idp
        and compose(compose(x, y), compose(x, y)) == idp
    ]
    res = hom_search(p, target)
    assert [(h.images[0], h.images[1]) for h in res.homs] == brute


def test_hom_search_deterministic_order():
    p = parse_presentation("< a | a^2 >")
    r1 = hom_search(p, symmetric_group(3))
    r2 = hom_search(p, symmetric_group(3))
    assert [h.images for h in r1.homs] == [h.images for h in r2.homs]
    imgs = [h.images[0] for h in r1.homs]
    assert imgs == sorted(imgs)


def test_hom_search_budget_partial():
    res = hom_search(
        parse_presentation("< a, b | >"),
        symmetric_group(4),
        Budget.start(time_limit_s=0.0),
    )
    assert not res.complete


def test_epis_permuted_by_conjugation():
    p = parse_presentation("< a, b | >")
    target = symmetric_group(3)
    res = hom_search(p, target)
    epi_images = {tuple(h.images) for h, e in zip(res.homs, res.epi_flags) if e}
    t = perm_from_cycles(3, [(1, 2, 3)])
    tinv = invert(t)
    for images in epi_images:
        conj = tuple(compose(compose(tinv, g), t) for g in images)
        assert conj in epi_images


def test_cyclic_hom_counts():
    # |Hom(Z/n, Z/m)| = gcd(n, m)
    from math import gcd

    for n, m in [(2, 2), (4, 6), (5, 3), (6, 4)]:
        p = parse_presentation(f"< a | a^{n} >")
        res = hom_search(p, cyclic_group(m))
        assert len(res.homs) == gcd(n, m)


def test_single_occurrence_deduction_agrees_with_plain_search():
    # relator c = a b pins c; counts must match a presentation without it
    p = quiet("< a, b, c | a^3, b^3, c b^-1 a^-1 >")
    q = quiet("< a, b | a^3, b^3 >")
    target = alternating_group(4)
    rp = hom_search(p, target)
    rq = hom_search(q, target)
    assert len(rp.homs) == len(rq.homs)
    assert [(h.images[0], h.images[1]) for h in rp.homs] == [
        (h.images[0], h.images[1]) for h in rq.homs
    ]
    for h in rp.homs:  # and the deduced image really is a*b
        assert h.images[2] == compose(h.images[0], h.images[1])


def test_transitive_hom_count_matches_low_index():
    # index-5 subgroup count from the coset side equals the number of
    # transitive degree-5 homs divided by (5-1)!
    from fpgroups.cosets import low_index

    p = catalog("A5").presentation
    res = hom_search(p, symmetric_group(5))
    transitive = 0
    for h in res.homs:
        orbit = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in h.images:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    frontier.append(g[x])
        if orbit == set(range(5)):
            transitive += 1
    assert transitive % 24 == 0
    assert transitive // 24 == low_index(p, 5).totals[5]


# -- epi product check -------------------------------------------------------


def test_epi_product_check_invol():
    rep = epi_count_product_check(parse_presentation("< a | a^2 >"), cyclic_group(2))
    assert rep.e1 == 1
    assert rep.e2 == 3
    assert rep.holds is True


def test_epi_product_check_free1_to_c3():
    rep = epi_count_product_check(parse_presentation("< a | >"), cyclic_group(3))
    assert rep.e1 == 2
    assert rep.e2 == 8
    assert rep.holds is True


def test_epi_product_check_vacuous():
    # Z/2 has no epi onto Z/3
    rep = epi_count_product_check(parse_presentation("< a | a^2 >"), cyclic_group(3))
    assert rep.e1 == 0
    assert rep.holds is None


# -- fibre products -----------------------------------------------------------


def test_fibre_product_z6_over_z3():
    p = parse_presentation("< a | a^6 >")
    G = cyclic_group(6)
    eta = GroupHom(p, [perm_from_cycles(3, [(1, 2, 3)])], 3)
    ffp = fibre_product_finite(eta, G)
    assert len(ffp.elements) == 12
    assert ffp.kernel_size == 2


def test_fibre_product_injective_is_diagonal():
    p = parse_presentation("< a | a^5 >")
    G = cyclic_group(5)
    eta = GroupHom(p, [perm_from_cycles(5, [(1, 2, 3, 4, 5)])], 5)
    ffp = fibre_product_finite(eta, G)
    assert len(ffp.elements) == 5
    assert all(x == y for x, y in ffp.elements)


def test_fibre_product_rejects_ill_defined_map():
    # a has order 6 in G but the proposed quotient image has order 4
    p = parse_presentation("< a | >")
    G = cyclic_group(6)
    eta = GroupHom(p, [perm_from_cycles(4, [(1, 2, 3, 4)])], 4)
    with pytest.raises(PermError, match="do not induce"):
        fibre_product_finite(eta, G)


def test_fibre_product_sl25_over_a5():
    G, eta = sl25_to_a5()
    assert G.order() == 120
    assert PermGroup(6, eta.images).order() == 60
    ffp = fibre_product_finite(eta, G)
    assert ffp.kernel_size == 2
    assert len(ffp.elements) == 240  # |ker|·|G| = 2·120


def test_check_generation_z6_over_z3():
    p = parse_presentation("< a | a^6 >")
    G = cyclic_group(6)
    eta = GroupHom(p, [perm_from_cycles(3, [(1, 2, 3)])], 3)
    ffp = fibre_product_finite(eta, G)
    a = p.word("a")
    kernel_word = p.word("a^3")  # generates ker(Z/6 -> Z/3)
    assert check_generation(ffp, [(a, a), (kernel_word, Word.identity(p.alphabet))])
    # the diagonal alone is proper when the kernel is nontrivial
    assert not check_generation(ffp, [(a, a)])


def test_check_generation_sl25():
    G, eta = sl25_to_a5()
    ffp = fibre_product_finite(eta, G)
    p = eta.source
    s, t = p.word("s"), p.word("t")
    centre = p.word("s^2")  # s^2 = -I generates the kernel
    assert evaluate_word(centre, eta.images, 6) == identity_perm(6)
    assert check_generation(ffp, [(s, s), (t, t), (centre, Word.identity(p.alphabet))])
    assert not check_generation(ffp, [(s, s), (t, t)])


def test_check_generation_rejects_outsiders():
    p = parse_presentation("< a | a^6 >")
    G = cyclic_group(6)
    eta = GroupHom(p, [perm_from_cycles(3, [(1, 2, 3)])], 3)
    ffp = fibre_product_finite(eta, G)
    with pytest.raises(PermError, match="outside"):
        check_generation(ffp, [(p.word("a"), Word.identity(p.alphabet))])


def test_evaluate_word_mapping_form():
    p = parse_presentation("< a, b | >")
    w = p.word("a b^-1")
    img = evaluate_word(
        w,
        {"a": perm_from_cycles(3, [(1, 2)]), "b": perm_from_cycles(3, [(2, 3)])},
        3,
    )
    assert img == compose(perm_from_cycles(3, [(1, 2)]), perm_from_cycles(3, [(2, 3)]))
