import itertools
import json
import random
import signal

import pytest

from conftest import load
from yoneda_cps.presentation import (PresentationError, format_word,
                                     make_presentation, parse_presentation,
                                     serialize_presentation)


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
    # a middle factor prunes, and so does each link of a nested chain
    assert rels(make_presentation("xyz", ["xyzx", "yz"])) == [("y", "z")]
    assert rels(make_presentation("xyz", ["xyxy", "xyx", "xy"])) == [("x", "y")]
    assert rels(make_presentation("xyz", ["xyxy", "xyx", "zz"])) == [
        ("z", "z"), ("x", "y", "x")]
    # against the definition: no proper factor of a kept relation is
    # another relation, and every dropped one has such a factor
    rng = random.Random(3)
    for _ in range(2000):
        raw = {"".join(rng.choice("xyz") for _ in range(rng.randint(2, 6)))
               for _ in range(rng.randint(1, 8))}
        minimal = {r for r in raw
                   if not any(o != r and o in r for o in raw)}
        got = make_presentation("xyz", raw).relations
        assert got == tuple(sorted((tuple(r) for r in minimal),
                                   key=lambda r: (len(r), r))), raw


def test_long_relations_parse_fast_and_still_prune():
    """Pruning tests only the factor lengths that some relation has, so a
    20,000-letter relation parses at once, and a long relation is still
    pruned by a short one at its end or inside it."""
    def expired(signum, frame):
        raise TimeoutError("parsing a 20,000-letter relation took 10 s")

    long = ["x"] * 19999 + ["y"]
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(10)
    try:
        p = parse_presentation({"generators": ["x", "y"],
                                "relations": [long, ["y", "x", "y"]]})
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rels(p) == [("y", "x", "y"), tuple(long)]
    assert rels(make_presentation("xy", ["x" * 1000 + "yxy", "yxy"])) == \
        [("y", "x", "y")]
    assert rels(make_presentation("xy", ["y" * 500 + "xx" + "y" * 500, "xx"])) == \
        [("x", "x")]


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
    # names that would give two words one display
    ('{"generators": ["a", "b", "ab"], "relations": []}',
     "'ab' is spelled by one-character generator names"),
    ('{"generators": ["a", "aaa"], "relations": []}',
     "'aaa' is spelled by one-character generator names"),
    ('{"generators": ["x*y"], "relations": []}', "'x*y' contains '*'"),
    ('{"generators": ["*", "x"], "relations": []}', "'*' contains '*'"),
])
def test_structural_errors(text, fragment):
    with pytest.raises(PresentationError) as e:
        parse_presentation(text)
    assert fragment in str(e.value)


@pytest.mark.parametrize("names", [
    ["a", "ab", "ba"], ["x1", "x2", "x"], ["ab", "b"], ["", "x", "y"],
])
def test_accepted_names_give_distinct_displays(names):
    p = make_presentation(names, [])
    words = [w for n in range(1, 4)
             for w in itertools.product(p.generator_names, repeat=n)]
    assert len({format_word(w) for w in words}) == len(words)


def test_generator_order_overrides_listing_order():
    p = parse_presentation({"generators": ["a", "b"],
                            "relations": [["a", "a"], ["b", "b"]],
                            "generator_order": ["b", "a"]})
    assert p.generator_names == ("b", "a")
    assert rels(p) == [("b", "b"), ("a", "a")]


def test_minimality_incomparable_words():
    p = make_presentation("xy", [("x", "y"), ("y", "x")])
    assert rels(p) == [("x", "y"), ("y", "x")]
