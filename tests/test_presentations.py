import json

import pytest

from fpgroups.budget import BudgetExhausted
from fpgroups.cancellation import _cyclic_words
from fpgroups.presentations import (
    CatalogError,
    ParseError,
    Presentation,
    PresentationWarning,
    catalog,
    direct_product,
    load_presentation,
    parse_presentation,
    parse_word,
    proper_power_root,
)
from fpgroups.words import Alphabet, Word
from fpgroups.zlattice import AbelianInvariants, abelianization, is_perfect


def test_parse_basic():
    p = parse_presentation("< a, b | a^2, b^3, (a b)^5 >")
    assert p.generators == ("a", "b")
    assert len(p.relators) == 3
    assert p.relators[0].letters == (1, 1)
    assert p.relators[2].letters == (1, 2) * 5


def test_parse_free_and_comments():
    p = parse_presentation("# rank-one free group\n< a | >  # no relators\n")
    assert p.generators == ("a",)
    assert p.relators == ()


def test_parse_negative_powers_and_star():
    p = parse_presentation("< a, t | a^25, t^-1 * a * t * a^-6 >")
    assert p.relators[1].letters == (-2, 1, 2) + (-1,) * 6


def test_parse_commutator_and_equation_sugar():
    with pytest.warns(PresentationWarning, match="duplicate"):
        p = parse_presentation("< a, b | [a, b], a b = b a >")
    assert p.relators[0].letters == (1, 2, -1, -2)
    # u = v becomes u v^-1 and freely reduces
    assert p.relators[1].letters == (1, 2, -1, -2)


def test_parse_nested_and_powered_atoms():
    p = parse_presentation("< a, b | ([a, b^2])^-1, (a (b a)^2)^3 >")
    w = p.relators[0]
    u = p.word("[a, b^2]")
    assert w == u.inverse().reduce()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_presentation("< a, b | a^2, c >")
    assert "unknown generator 'c'" in str(ei.value)
    assert ei.value.line == 1 and ei.value.col == 15
    with pytest.raises(ParseError):
        parse_presentation("< a | a^ >")
    with pytest.raises(ParseError):
        parse_presentation("< a | (a >")
    with pytest.raises(ParseError):
        parse_presentation("a | a")
    with pytest.raises(ParseError):
        parse_presentation("< a | a > junk")
    with pytest.raises(ParseError):
        parse_presentation("< a | a $ >")


def test_power_expansion_capped_by_letter_budget():
    # refused before the expansion is allocated, at the default 2M-letter cap
    with pytest.raises(BudgetExhausted, match="letter cap"):
        parse_presentation("< a | a^99999999999 >")
    with pytest.raises(BudgetExhausted, match="letter cap"):
        load_presentation("< a, b | ([a, b]^999)^-999 >")
    with pytest.raises(BudgetExhausted, match="letter cap"):
        parse_presentation("< a, b | [a^999999, b^999999] >")
    # the cap covers concatenation, `u = v` and all relators together
    p = parse_presentation("< a | (a^999)^999 (a^999)^-999 a >")
    assert len(p.relators[0]) == 1
    for text in (
        "< a | " + " ".join(["(a^999)^999"] * 3) + " >",
        "< a | (a^999)^999 (a^999)^999 = (a^999)^-999 >",
        "< a | " + ", ".join(["(a^999)^999"] * 3) + " >",
        json.dumps({"generators": ["a"], "relators": ["(a^999)^999"] * 3}),
    ):
        with pytest.raises(BudgetExhausted, match="letter cap"):
            load_presentation(text)


def test_parse_word_standalone():
    ab = Alphabet(["x", "y"])
    assert parse_word("x y^-2 (x y)^2", ab).letters == (1, -2, -2, 1, 2, 1, 2)
    with pytest.raises(ParseError):
        parse_word("x z", ab)


def test_empty_relator_dropped_with_warning():
    ab = Alphabet(["a"])
    a = ab.gen("a")
    with pytest.warns(PresentationWarning, match="empty"):
        p = Presentation(ab, [a * ~a, a])
    assert len(p.relators) == 1


def test_duplicate_relator_flagged_but_kept():
    ab = Alphabet(["a"])
    a = ab.gen("a")
    with pytest.warns(PresentationWarning, match="duplicate"):
        p = Presentation(ab, [a**2, a**2])
    assert len(p.relators) == 2


def test_serialize_roundtrip():
    for text in [
        "< a, b | a^2, b^3, (a b)^5 >",
        "< a, t | a^25, t^-1 a t a^-6 >",
        "< x1, x2 | >",
        "< a, b, alpha, beta | b a^-2 b^-1 a^3, [b a b^-1, a] beta^-1 >",
    ]:
        p = parse_presentation(text)
        assert parse_presentation(p.to_text()) == p
        # JSON form round-trips too
        assert Presentation.from_json(json.loads(json.dumps(p.to_json()))) == p
        assert load_presentation(json.dumps(p.to_json())) == p
        assert load_presentation(p.to_text()) == p


def symmetrize(p: Presentation) -> dict[Word, int]:
    """The symmetrized set as the piece checker builds it: every rotation of
    every rotation class, mapped to the class's source relator."""
    words, _ = _cyclic_words(p)
    return {
        Word(p.alphabet, w.letters[k:] + w.letters[:k], _reduced=True): w.source
        for w in words
        for k in range(len(w.letters))
    }


def test_symmetrize_counts():
    p = parse_presentation("< a, b | [a, b] >")
    s = symmetrize(p)
    assert len(s) == 8
    p2 = parse_presentation("< a | a^3 >")
    assert len(symmetrize(p2)) == 2
    assert len(symmetrize(Presentation.free(["a"]))) == 0


def test_symmetrize_closure_and_origin():
    p = parse_presentation("< a, b | a b a^-1 b, a^4 >")
    s = symmetrize(p)
    for w in s:
        assert s[w] in (0, 1)
        core, conj = w.cyclic_reduce()
        assert core == w and len(conj) == 0
        # closed under inversion and rotation
        assert ~w in s
        ls = w.letters
        assert Word(p.alphabet, ls[1:] + ls[:1]) in s
        # same length as the source relator's cyclic core
        src_core, _ = p.relators[s[w]].cyclic_reduce()
        assert len(w) == len(src_core)


def test_symmetrize_idempotent():
    p = parse_presentation("< a, b | a b a^-1 b^-1, a^3 >")
    s1 = symmetrize(p)
    p2 = Presentation(p.alphabet, list(s1))
    s2 = symmetrize(p2)
    assert set(s1) == set(s2)


def test_proper_power_root():
    ab = Alphabet(["a", "b"])
    a, b = ab.gen("a"), ab.gen("b")
    assert proper_power_root(a**6) == (a, 6)
    assert proper_power_root((a * b) ** 3) == (a * b, 3)
    root, k = proper_power_root(a * b)
    assert k == 1 and root == a * b
    # conjugates are unwrapped before the period check
    root, k = proper_power_root(b * a**4 * ~b)
    assert (root, k) == (a, 4)


def test_direct_product_counts_and_abelianization():
    p = parse_presentation("< a | a^2 >")
    q = parse_presentation("< b | b^3 >")
    d = direct_product(p, q)
    assert d.generators == ("a_1", "b_2")
    assert len(d.relators) == 3
    assert abelianization(d) == AbelianInvariants(0, (6,))


def test_direct_product_free_rank_one_squared():
    f = Presentation.free(["x"])
    d = direct_product(f, f)
    assert d.generators == ("x_1", "x_2")
    assert len(d.relators) == 1
    assert d.relators[0].letters == (1, 2, -1, -2)
    assert abelianization(d) == AbelianInvariants(2)


def test_direct_product_commutator_count():
    p = parse_presentation("< a, b | a^2 >")
    q = parse_presentation("< x, y, z | x y >")
    d = direct_product(p, q)
    assert len(d.generators) == 5
    assert len(d.relators) == 1 + 1 + 2 * 3


def test_catalog_bp():
    e = catalog("Bp", [2])
    assert e.presentation.generators == ("a", "b", "alpha", "beta")
    texts = [r.text() for r in e.presentation.relators]
    assert texts[0] == "b a^-2 b^-1 a^3"
    assert texts[1] == "beta alpha^-2 beta^-1 alpha^3"
    assert texts[2] == "b a b^-1 a b a^-1 b^-1 a^-1 beta^-1"
    assert texts[3] == "beta alpha beta^-1 alpha beta alpha^-1 beta^-1 alpha^-1 b^-1"
    for p_ in range(2, 11):
        assert is_perfect(catalog("Bp", [p_]).presentation)
    # bit-identical regeneration
    assert catalog("Bp", [2]) == catalog("Bp", [2])


def test_catalog_baumslag25():
    e1 = catalog("baumslag25", [1]).presentation
    e2 = catalog("baumslag25", [2]).presentation
    assert e1.relators[1].text() == "t^-1 a t a^-6"
    assert e2.relators[1].text() == "t^-1 a t a^-11"  # 6^2 = 36 = 11 mod 25
    assert abelianization(e1) == abelianization(e2) == AbelianInvariants(1, (5,))


def test_catalog_a5_free_cyclic():
    a5 = catalog("A5", []).presentation
    assert a5.to_text() == "< a, b | a^2, b^3, a b a b a b a b a b >"
    assert abelianization(a5).is_trivial
    assert catalog("free", [3]).presentation.generators == ("x1", "x2", "x3")
    assert abelianization(catalog("cyclic", [12]).presentation) == AbelianInvariants(0, (12,))


def test_catalog_errors():
    with pytest.raises(CatalogError):
        catalog("nope", [])
    with pytest.raises(CatalogError):
        catalog("Bp", [1])
    with pytest.raises(CatalogError):
        catalog("Bp", [])
    with pytest.raises(CatalogError):
        catalog("free", [0])
    with pytest.raises(CatalogError):
        catalog("baumslag25", [0])
