"""Permutation quotients: hom search, epi counting, fibre products."""

import gc
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpgroups import permrep
from fpgroups.budget import Budget, BudgetExhausted
from fpgroups.cosets import _compiled
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
from fpgroups.presentations import Presentation, catalog, load_presentation, parse_presentation
from fpgroups.words import Alphabet, Word

FIXTURES = Path(__file__).parent / "fixtures"


def quiet(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_presentation(text)


def close_under_products(seed, mul, inv, budget: Budget | None = None):
    """Closure of the seed under the binary operation and inverses, on
    tuples: the closure PermGroup replaced, kept as the oracle for its
    elements, its element cap and fibre products."""
    cap = (budget or Budget.start()).max_elements
    elems = set(seed)
    for x in list(elems):
        elems.add(inv(x))
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for g in seed:
                for y in (mul(x, g), mul(g, x)):
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
                        if len(elems) > cap:
                            raise BudgetExhausted(f"element cap {cap} exceeded")
        frontier = nxt
    return frozenset(elems)


def conjugacy_class(images, target):
    """The tuples conjugate to the image tuple under the target."""
    return {tuple(compose(compose(invert(c), g), c) for g in images) for c in target.elements()}


def expanded(res, target):
    """Each hom of a search result, from its class representatives, with its
    epi flag."""
    out = {}
    for h, epi in zip(res.homs, res.epi_flags):
        for x in conjugacy_class(h, target):
            out[x] = epi
    return out


_ATLAS = [symmetric_group(1), PermGroup(0, [])] + [
    t for d in range(2, 6) for t in transitive_groups(d)
] + [sl25()]


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
    assert symmetric_group(1).order() == 1
    assert alternating_group(5).order() == 60
    assert sl25().order() == 120
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


@pytest.mark.parametrize("target", _ATLAS, ids=lambda t: t.name or repr(t))
def test_closure_matches_the_tuple_closure(target):
    elems = target.elements()
    idp = identity_perm(target.degree)
    assert elems[0] == idp
    assert set(elems) == close_under_products([idp] + target.generators, compose, invert)
    assert len(set(elems)) == len(elems) == target.order()
    closure = target.closure()
    for j in range(1, len(elems)):  # each element a parent times a generator
        assert closure.parent[j] < j
        assert elems[j] == compose(elems[closure.parent[j]], target.generators[closure.via[j]])
    for g, right in zip(target.generators, closure.right):
        assert [elems[k] for k in right] == [compose(x, g) for x in elems]
    layers = closure.layers
    assert layers[0] == 0 and layers[-1] == len(elems) and layers == sorted(layers)
    for prev, lo, hi in zip(layers, layers[1:], layers[2:]):  # parents lie in the layer before
        assert all(prev <= closure.parent[j] < lo for j in range(lo, hi))


@pytest.mark.parametrize("target", _ATLAS, ids=lambda t: t.name or repr(t))
def test_multiplication_table_matches_compose(target):
    elems = target.elements()
    mul, inv = permrep._multiplication_table(target.closure(), Budget.start())
    index = {x: i for i, x in enumerate(elems)}
    for i, x in enumerate(elems):
        assert mul[i].tolist() == [index[compose(x, y)] for y in elems]
        assert inv[i] == index[invert(x)]


def test_element_cap_matches_the_tuple_closure():
    # the identity, the generators and their inverses are given, so the cap
    # holds only a closure that must go past them, at the same caps as the
    # tuple closure: C2 closes under a cap of 1, S3 (four given) does not
    groups = [cyclic_group(2), cyclic_group(3), symmetric_group(3), transitive_groups(4)[1],
              alternating_group(4), transitive_groups(5)[2]]
    for target in groups:
        idp = identity_perm(target.degree)
        for cap in range(1, target.order() + 2):
            budget = Budget.start(max_elements=cap)
            try:
                close_under_products([idp] + target.generators, compose, invert, budget)
                expected = None
            except BudgetExhausted as e:
                expected = str(e)
            fresh = PermGroup(target.degree, target.generators)
            try:
                fresh.order(budget)
                got = None
            except BudgetExhausted as e:
                got = str(e)
            assert got == expected, (target.name, cap)


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
    assert res.hom_count == 4 and res.nontrivial_count == 3
    assert res.weights == (1, 3)  # the identity, and the class of transpositions
    assert res.epi_count == 0  # one involution never generates S3


def test_hom_search_free2_to_s3_epi_count():
    res = hom_search(parse_presentation("< a, b | >"), symmetric_group(3))
    assert res.complete
    assert res.hom_count == 36
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
    assert set(expanded(res, target)) == set(brute)
    assert res.hom_count == len(brute)


def test_hom_search_deterministic_order():
    p = parse_presentation("< a | a^2 >")
    r1 = hom_search(p, symmetric_group(3))
    r2 = hom_search(p, symmetric_group(3))
    assert r1 == r2
    # representatives in lexicographic order of their closure indices
    index = {x: i for i, x in enumerate(symmetric_group(3).elements())}
    keys = [index[h[0]] for h in r1.homs]
    assert keys == sorted(keys)


def test_hom_search_budget_partial():
    res = hom_search(
        parse_presentation("< a, b | >"),
        symmetric_group(4),
        Budget.start(time_limit_s=0.0),
    )
    assert not res.complete


def test_hom_search_leaves_no_reference_cycles():
    # the recursive search closure must not keep a call's state alive until
    # the cyclic collector runs
    p = parse_presentation((FIXTURES / "bp2.pres").read_text())
    gc.collect()
    gc.disable()
    try:
        for target in (symmetric_group(4), *transitive_groups(5)):
            assert hom_search(p, target).complete
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_epis_permuted_by_conjugation():
    p = parse_presentation("< a, b | >")
    target = symmetric_group(3)
    res = hom_search(p, target)
    epi_images = {h for h, e in expanded(res, target).items() if e}
    assert len(epi_images) == res.epi_count == 18
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
        assert res.hom_count == gcd(n, m)
        assert res.weights == (1,) * gcd(n, m)  # an abelian target: every class is one hom


def test_single_occurrence_deduction_agrees_with_plain_search():
    # relator c = a b pins c; counts must match a presentation without it
    p = quiet("< a, b, c | a^3, b^3, c b^-1 a^-1 >")
    q = quiet("< a, b | a^3, b^3 >")
    target = alternating_group(4)
    rp = hom_search(p, target)
    rq = hom_search(q, target)
    assert rp.hom_count == rq.hom_count
    assert [h[:2] for h in rp.homs] == list(rq.homs)
    assert rp.weights == rq.weights  # the forced image keeps each stabilizer
    for h in rp.homs:  # and the deduced image really is a*b
        assert h[2] == compose(h[0], h[1])


def test_hom_search_checks_each_relator_once(monkeypatch):
    # the search checks the relators on its index columns and returns image
    # tuples; a GroupHom per hom would evaluate every relator again
    def refuse(*args):
        raise AssertionError("a relator was evaluated on permutation tuples")

    monkeypatch.setattr(permrep, "evaluate_word", refuse)
    p = parse_presentation((FIXTURES / "bp2.pres").read_text())
    assert p.relators
    res = hom_search(p, symmetric_group(5))
    assert res.complete
    assert res.homs == ((identity_perm(5),) * len(p.generators),)


def test_transitive_hom_count_matches_low_index():
    # index-5 subgroup count from the coset side equals the number of
    # transitive degree-5 homs divided by (5-1)!
    from fpgroups.cosets import low_index

    p = catalog("A5").presentation
    res = hom_search(p, symmetric_group(5))
    transitive = 0
    for h, weight in zip(res.homs, res.weights):
        orbit = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in h:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    frontier.append(g[x])
        if orbit == set(range(5)):
            transitive += weight
    assert transitive % 24 == 0
    assert transitive // 24 == low_index(p, 5).totals[5]


# -- the tuple search as an oracle ---------------------------------------------


def _single_occurrence(letters, gen):
    hits = [i for i, l in enumerate(letters) if abs(l) == gen]
    if len(hits) != 1:
        return None
    i = hits[0]
    return letters[:i], (1 if letters[i] > 0 else -1), letters[i + 1 :]


def reference_hom_search(p, target):
    """The depth-first search on permutation tuples, every assignment a
    node: (image tuples, epi flags, and at index k the assign calls with k
    generators assigned)."""
    budget = Budget.start()
    degree = target.degree
    elems = sorted(target.elements(budget))
    elem_set = frozenset(elems)
    idp = identity_perm(degree)
    ngens = len(p.generators)
    rel_support = [frozenset(abs(l) for l in r.letters) for r in p.relators]
    found, flags = [], []
    calls = [0] * (ngens + 1)

    def evaluate(letters, images):
        acc = idp
        for l in letters:
            g = images[abs(l)]
            acc = compose(acc, g if l > 0 else invert(g))
        return acc

    def assign(images, level):
        calls[level - 1] += 1
        if level > ngens:
            imgs = [images[i] for i in range(1, ngens + 1)]
            GroupHom(p, imgs, degree)
            found.append(tuple(imgs))
            gen_set = close_under_products([idp] + imgs, compose, invert, budget)
            flags.append(len(gen_set) == len(elems))
            return
        forced = None
        assigned = set(images)
        for ri, r in enumerate(p.relators):
            if level not in rel_support[ri] or not (rel_support[ri] - assigned <= {level}):
                continue
            so = _single_occurrence(r.letters, level)
            if so is None:
                continue
            pre, sign, post = so
            val = compose(invert(evaluate(pre, images)), invert(evaluate(post, images)))
            if sign < 0:
                val = invert(val)
            if forced is not None and forced != val:
                return
            forced = val
        if forced is not None and forced not in elem_set:
            return
        for cand in [forced] if forced is not None else elems:
            images[level] = cand
            if all(
                evaluate(r.letters, images) == idp
                for ri, r in enumerate(p.relators)
                if level in rel_support[ri] and rel_support[ri] <= set(images)
            ):
                assign(images, level + 1)
            del images[level]

    assign({}, 1)
    return found, tuple(flags), calls


def _truncated(p, k):
    """The first k generators of p and the relators on them alone."""
    alphabet = Alphabet(p.alphabet.names[:k])
    kept = [Word(alphabet, r.letters) for r in p.relators if max(map(abs, r.letters)) <= k]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicates
        return Presentation(alphabet, kept)


def _assert_matches_reference(p, target):
    res = hom_search(p, target)
    homs, flags, levels = reference_hom_search(p, target)
    assert res.complete
    # each representative is the least of its class, in closure order, and
    # the representatives come in that order
    index = {x: i for i, x in enumerate(target.elements())}
    keys = [tuple(index[g] for g in h) for h in res.homs]
    assert keys == sorted(keys)
    for key, h, weight in zip(keys, res.homs, res.weights):
        cls = conjugacy_class(h, target)
        assert len(cls) == weight
        assert min(tuple(index[g] for g in x) for x in cls) == key
    # the classes are disjoint and make up every hom, with its epi flag
    assert sum(res.weights) == len(homs)
    assert expanded(res, target) == dict(zip(homs, flags))
    idp = identity_perm(target.degree)
    assert (res.hom_count, res.epi_count) == (len(homs), sum(flags))
    assert res.nontrivial_count == sum(any(g != idp for g in h) for h in homs)
    assert res.nodes == sum(levels)
    for k in range(1, len(p.generators)):  # level k holds the homs of the first k generators
        assert hom_search(_truncated(p, k), target).hom_count == levels[k]


_TARGETS_UP_TO_4 = [symmetric_group(1)] + [t for d in (2, 3, 4) for t in transitive_groups(d)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.lists(st.sampled_from([s * g for g in range(1, k + 1) for s in (1, -1)]),
                      min_size=1, max_size=8), min_size=k - 1, max_size=3),
)))
@example((2, [[2, 1]]))  # the forced letter first: b = a^-1
@example((2, [[1, -2]]))  # last and inverted: b = a
@example((2, [[1, 1, -2, 1]]))  # inside and inverted: b = a^3
def test_hom_search_matches_reference_random(case):
    ngens, relators = case
    alphabet = Alphabet("abc"[:ngens])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # relators that reduce away, duplicates
        p = Presentation(alphabet, [Word(alphabet, r) for r in relators])
    for target in _TARGETS_UP_TO_4:
        _assert_matches_reference(p, target)


@pytest.mark.parametrize("name", ["a5", "bp2", "klein", "q8", "z5", "baumslag25_1", "trivial"])
def test_hom_search_matches_reference_on_fixtures(name):
    p = load_presentation((FIXTURES / f"{name}.pres").read_text())
    for target in (alternating_group(5), symmetric_group(5)):
        _assert_matches_reference(p, target)


def expanded_hom_search(p, target):
    """The search over every partial assignment that hom_search replaced,
    on the same table: (homs as index tuples, epi flags, nodes)."""
    budget = Budget.start()
    mul, inv = permrep._multiplication_table(target.closure(budget), budget)
    n = len(mul)
    ngens = len(p.generators)
    checks = [[] for _ in range(ngens)]
    forcing = [None] * ngens
    for r in p.relators:
        ls = r.letters
        top = max(map(abs, ls))
        hits = [i for i, l in enumerate(ls) if abs(l) == top]
        if len(hits) == 1 and forcing[top - 1] is None:
            (i,) = hits
            w = Word(p.alphabet, ls[i + 1 :] + ls[:i])
            forcing[top - 1] = w.inverse() if ls[i] > 0 else w
        else:
            checks[top - 1].append(r)

    def value(word, cols, size):
        acc = np.zeros(size, dtype=np.intp)
        for a in _compiled(cols, word):
            acc = mul[acc, a]
        return acc

    found, flags = [], []
    nodes = 1
    stack = [[]]
    while stack:
        cols = stack.pop()
        level = len(cols) // 2
        size = len(cols[0]) if cols else 1
        if level == ngens:
            flags.extend(permrep._generates_all(cols, size, mul))
            found.extend(zip(*[c.tolist() for c in cols[::2]]) if cols else [()])
            continue
        if forcing[level] is not None:
            column = value(forcing[level], cols, size)
        else:
            parents = max(1, permrep._BLOCK_ROWS // n)
            if size > parents:
                stack.append([c[parents:] for c in cols])
                cols = [c[:parents] for c in cols]
                size = parents
            column = np.tile(np.arange(n), size)
            cols = [np.repeat(c, n) for c in cols]
        cols = cols + [column, inv[column]]
        if checks[level]:
            keep = np.ones(len(column), dtype=bool)
            for r in checks[level]:
                keep &= value(r, cols, len(column)) == 0
            cols = [c[keep] for c in cols]
        nodes += len(cols[-1])
        if len(cols[-1]):
            stack.append(cols)
    return found, flags, nodes


_SOURCES = [
    "< a, b | >",
    "< a, b | a^2, b^3 >",
    "< a, b, c | a^3, b^3, c b^-1 a^-1 >",
    "< a, b | a^2, b^3, (a b)^5 >",
    "< a, b | a b a^-1 b^-1 >",
]


@pytest.mark.parametrize("source", _SOURCES + ["bp2", "a5", "q8", "baumslag25_1", "klein"])
def test_hom_search_nodes_match_the_expanded_search(source):
    if source.startswith("<"):
        p = quiet(source)
    else:
        p = load_presentation((FIXTURES / f"{source}.pres").read_text())
    for target in (alternating_group(5), symmetric_group(5), sl25(), transitive_groups(4)[2]):
        res = hom_search(p, target)
        homs, flags, nodes = expanded_hom_search(p, target)
        assert res.complete
        assert res.nodes == nodes, (source, target.name)
        index = {x: i for i, x in enumerate(target.elements())}
        got = {tuple(index[g] for g in x): epi for x, epi in expanded(res, target).items()}
        assert got == dict(zip(homs, flags))
        assert (res.hom_count, res.epi_count) == (len(homs), sum(flags))
        assert res.nontrivial_count == sum(map(any, homs))  # the identity is index 0


def test_four_generator_case_into_s5_within_two_seconds():
    # the search over every assignment checks 120^4 rows at d and took
    # 11-13 s on a 2-core Xeon; by classes it takes well under a second there
    p = parse_presentation("< a, b, c, d | d^2 a b c, d^3 c b a >")
    res = hom_search(p, symmetric_group(5), Budget.start(time_limit_s=2.0))
    assert res.complete
    assert res.hom_count == 14_400
    assert res.nontrivial_count == 14_399
    assert res.epi_count == 6_840
    assert res.nodes == 1_756_921


def _element_order(g):
    order, power = 1, g
    while power != identity_perm(len(g)):
        order, power = order + 1, compose(power, g)
    return order


@pytest.mark.parametrize("n", range(1, 7))
def test_cyclic_source_counts_solutions_of_g_n(n):
    # |Hom(<a | a^n>, G)| = #{g : g^n = 1}; SL(2,5) acts on 24 points, more
    # than base-degree codes of its permutations could hold in int64
    p = parse_presentation(f"< a | a^{n} >")
    for target in [t for d in range(2, 6) for t in transitive_groups(d)] + [sl25()]:
        expected = sum(n % _element_order(g) == 0 for g in target.elements())
        assert hom_search(p, target).hom_count == expected, (n, target.name)


def test_free_source_counts_pairs():
    p = parse_presentation("< a, b | >")
    for target in [t for d in range(2, 6) for t in transitive_groups(d)]:
        res = hom_search(p, target)
        assert res.hom_count == target.order() ** 2, target.name


def test_trivial_targets_give_one_hom():
    for f in sorted(FIXTURES.glob("*.pres")):
        p = load_presentation(f.read_text())
        for target in (symmetric_group(1), PermGroup(3, []), PermGroup(0, [])):
            res = hom_search(p, target)
            assert res.complete and res.epi_flags == (True,), f.name
            assert res.homs == ((identity_perm(target.degree),) * len(p.generators),)


def test_multiplication_table_counts_against_the_element_cap():
    p = parse_presentation("< a | a^2 >")
    with pytest.raises(BudgetExhausted, match="multiplication table"):
        hom_search(p, symmetric_group(4), Budget.start(max_elements=24 * 24 - 1))
    assert hom_search(p, symmetric_group(4), Budget.start(max_elements=24 * 24)).complete


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


def _tuple_fibre_product(eta, G):
    """The fibre product by the tuple closure of the graph of eta, as pairs
    of permutations."""
    def pair_mul(a, b):
        return (compose(a[0], b[0]), compose(a[1], b[1]))

    def pair_inv(a):
        return (invert(a[0]), invert(a[1]))

    seed = [(identity_perm(G.degree), identity_perm(eta.degree))] + list(
        zip(G.generators, eta.images)
    )
    fibres = {}
    for g, q in close_under_products(seed, pair_mul, pair_inv):
        fibres.setdefault(q, []).append(g)
    return {(x, y) for fibre in fibres.values() for x in fibre for y in fibre}, pair_mul, pair_inv


def test_fibre_products_match_the_tuple_closure():
    z6 = parse_presentation("< a | a^6 >")
    cases = [
        (GroupHom(z6, [perm_from_cycles(3, [(1, 2, 3)])], 3), cyclic_group(6),
         [(z6.word("a"), z6.word("a")), (z6.word("a^3"), Word.identity(z6.alphabet))]),
    ]
    G, eta = sl25_to_a5()
    s, t, centre = (eta.source.word(w) for w in ("s", "t", "s^2"))
    cases.append((eta, G, [(s, s), (t, t), (centre, Word.identity(eta.source.alphabet))]))
    for eta, G, pairs in cases:
        ffp = fibre_product_finite(eta, G)
        elems = G.elements()
        expected, pair_mul, pair_inv = _tuple_fibre_product(eta, G)
        assert {(elems[x], elems[y]) for x, y in ffp.elements} == expected
        for k in range(len(pairs) + 1):
            seed = [(identity_perm(G.degree),) * 2] + [
                (evaluate_word(u, G.generators, G.degree), evaluate_word(v, G.generators, G.degree))
                for u, v in pairs[:k]
            ]
            generated = close_under_products(seed, pair_mul, pair_inv)
            assert check_generation(ffp, pairs[:k]) == (generated == expected)


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
