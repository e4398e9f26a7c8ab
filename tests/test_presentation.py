import json

import pytest

from conftest import load
from yoneda_cps.presentation import (LEADING_WORDS_CAVEAT, Presentation,
                                     PresentationError, leading_words,
                                     make_presentation, parse_presentation,
                                     serialize_presentation,
                                     validate_minimality)


def rels(p):
    return list(p.relations)


def test_parse_basic():
    p = parse_presentation('{"generators": ["a", "b"], "relations": [["a", "b"]]}')
    assert p.generator_names == ("a", "b")
    assert rels(p) == [("a", "b")]


def test_parse_accepts_decoded_dict():
    p = parse_presentation({"generators": ["x"], "relations": [["x", "x"]]})
    assert rels(p) == [("x", "x")]


def test_round_trip_all_fixtures():
    for name in ("x_square", "xy_single", "abc_cdab", "abc_cdab_bcda",
                 "x2y_family", "two_chain_overlap", "sklyanin_leading"):
        p = load(name)
        again = parse_presentation(json.dumps(serialize_presentation(p)))
        assert again == p


def test_parser_sorts_and_prunes():
    p = make_presentation("ab", [("b", "a"), ("a", "b"), ("a", "b", "a"), ("a", "b")])
    # aba contains ab, duplicates collapse, sort is degree then index order
    assert rels(p) == [("a", "b"), ("b", "a")]


def test_syntax_error_carries_position():
    with pytest.raises(PresentationError) as e:
        parse_presentation('{"generators": ["a"],\n "relations": [[}')
    assert e.value.line == 2
    assert "line 2" in str(e.value)


@pytest.mark.parametrize("text,fragment", [
    ('[]', "object"),
    ('{"generators": [], "relations": []}', "empty alphabet"),
    ('{"generators": ["a", "a"], "relations": []}', "duplicate"),
    ('{"generators": ["a"], "relations": [["a"]]}', "degree 1 < 2"),
    ('{"generators": ["a"], "relations": [["b", "b"]]}', "unknown generator"),
    ('{"generators": ["a"], "relations": [], "extra": 1}', "unknown keys"),
    ('{"generators": ["a"], "relations": [["a","a"]], "generator_order": ["b"]}',
     "permutation"),
    ('{"generators": ["a"], "relations": [], "generator_order": 5}', "permutation"),
    ('{"generators": ["a"], "relations": [], "generator_order": ["a", 1]}',
     "permutation"),
    ('{"generators": ["a"], "relations": [[["a"], "a"]]}', "token arrays"),
])
def test_structural_errors(text, fragment):
    with pytest.raises(PresentationError) as e:
        parse_presentation(text)
    assert fragment in str(e.value)


def test_generator_order_overrides_listing_order():
    p = parse_presentation({"generators": ["a", "b"],
                            "relations": [["a", "a"], ["b", "b"]],
                            "generator_order": ["b", "a"]})
    assert p.generator_names == ("b", "a")
    assert rels(p) == [("b", "b"), ("a", "a")]


def test_validate_minimality_cases():
    assert validate_minimality(load("abc_cdab")) == []
    hand = Presentation(("a", "b"), (("a", "b"), ("a", "b", "c")))
    out = validate_minimality(hand)
    assert len(out) == 1
    assert out[0].redundant == ("a", "b", "c")
    assert out[0].witness == ("a", "b")
    assert out[0].position == 0


def test_minimality_incomparable_words():
    p = make_presentation("xy", [("x", "y"), ("y", "x")])
    assert validate_minimality(p) == []
    assert len(p.relations) == 2


def test_leading_words_two_generator_family():
    polys = [
        [(1, "xxx"), (-1, "xxy")],
        [(1, "xyy")],
        [(1, "yyy")],
        [(1, "xxxx")],
    ]
    out = leading_words(["x", "y"], polys)
    assert out.presentation == load("x2y_family")
    assert out.caveat == LEADING_WORDS_CAVEAT


def test_leading_words_supplied_basis():
    # three defining relations plus six completions, z largest
    polys = [
        [(1, "xy"), (-1, "zz")],
        [(1, "zx"), (-1, "yy")],
        [(1, "yz"), (-1, "xx")],
        [(1, "yyy"), (-1, "xxx")],
        [(1, "zyy"), (-1, "xxx")],
        [(1, "yxy"), (-1, "xyx")],
        [(1, "yxxx"), (-1, "xxxx")],
        [(1, "yyxx"), (-1, "xxxx")],
        [(1, "zyxx"), (-1, "xxxx")],
    ]
    out = leading_words(["x", "y", "z"], polys, order=["x", "y", "z"])
    assert out.presentation == load("sklyanin_leading")


def test_leading_words_single_monomial():
    out = leading_words(["x", "y"], [[(1, "xy")]])
    assert rels(out.presentation) == [("x", "y")]


def test_leading_words_merges_like_terms():
    # 2yx + xy - 2yx leaves xy as the only surviving term
    out = leading_words(["x", "y"], [[(2, "yx"), (1, "xy"), (-2, "yx")]])
    assert rels(out.presentation) == [("x", "y")]


def test_leading_words_rejects_zero_polynomial():
    with pytest.raises(PresentationError, match="zero"):
        leading_words(["x"], [[(1, "xx"), (-1, "xx")]])


def test_leading_words_rejects_inhomogeneous():
    with pytest.raises(PresentationError, match="homogeneous"):
        leading_words(["x"], [[(1, "xx"), (1, "xxx")]])


def test_leading_words_output_is_minimal():
    out = leading_words(["x", "y"], [[(1, "xy")], [(1, "xyx")]])
    assert validate_minimality(out.presentation) == []
    assert rels(out.presentation) == [("x", "y")]
