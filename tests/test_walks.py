import random

import pytest

from conftest import ALL, W, graph, sample_graphs
from propcore import (census, check_equivalence_invariants,
                      closed_form_misses, list_walks, parse_cases,
                      parse_mismatches, partner_mismatches, reference_word)
from yoneda_cps.decide import finitely_generated
from yoneda_cps.ext import generators_up_to, yoneda_mul
from yoneda_cps.graph import CpsGraph, build_marked_graph
from yoneda_cps.monomial import MonomialIdeal
from yoneda_cps.presentation import make_presentation
from yoneda_cps.walks import (AnchoredWalk, EventuallyPeriodicWalk,
                              WalkCapExceeded, canonical_anchored,
                              display_walk, enumerate_anchored, greedy_parse,
                              is_decomposable, is_dense, parse_display_walk,
                              validate_walk, walk_cap, word_of)


def mixed_graph():
    """Relations of mixed degree where suffix grafting can die."""
    from yoneda_cps.graph import build_marked_graph
    p = make_presentation("xy", [("y", "x"), ("x", "x", "x"), ("x", "x", "y")])
    return build_marked_graph(MonomialIdeal(p))


def test_word_of_reverses_vertex_order():
    assert word_of(W("b", "cda")) == ("c", "d", "a", "b")
    assert word_of(W("c", "ab", "cd")) == ("c", "d", "a", "b", "c")


def test_anchored_word_is_the_reference_word():
    """AnchoredWalk.word and word_of against propcore's reference_word on
    every anchored walk of length <= 5 on the fixtures."""
    walks = 0
    for name in ALL:
        for w in enumerate_anchored(graph(name), 5):
            expect = reference_word(w.vertices)
            assert w.word == expect, (name, w.vertices)
            assert word_of(w) == word_of(w.vertices) == expect
            walks += 1
    assert walks > 800


def test_cached_word_leaves_equality_hash_and_repr():
    vs = W("c", "ab", "cd")
    cached, fresh = AnchoredWalk(vs), AnchoredWalk(vs)
    assert cached.word == ("c", "d", "a", "b", "c")
    assert cached.word is cached.word
    assert "word" in vars(cached) and "word" not in vars(fresh)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh) == f"AnchoredWalk(vertices={vs!r})"


def test_equivalent_needs_length_and_word():
    def equivalent(p, q):
        return len(p) == len(q) and word_of(p) == word_of(q)

    assert equivalent(W("b", "cda", "ab"), W("ab", "cd", "ab"))
    assert equivalent(W("b", "cda"), W("ab", "cd"))
    assert not equivalent(W("c", "ab"), W("ab", "cd"))
    assert not equivalent(W("b", "cda", "ab"), W("ab", "cd"))


def test_validate_walk_errors():
    g = graph("abc_cdab")
    with pytest.raises(ValueError, match="at least one vertex"):
        validate_walk(g, ())
    with pytest.raises(ValueError, match="not a vertex"):
        validate_walk(g, W("abc"))
    with pytest.raises(ValueError, match="not an edge"):
        validate_walk(g, W("b", "ab"))


def test_parse_display_walk():
    g = graph("abc_cdab")
    assert parse_display_walk(g, ["b", "cda"]) == W("b", "cda")
    with pytest.raises(ValueError, match="unknown vertex"):
        parse_display_walk(g, ["b", "nope"])
    assert display_walk(W("b", "cda")) == ["b", "cda"]


def test_greedy_parse_unseeded_is_anchored():
    g = graph("abc_cdab")
    assert greedy_parse(g, "cdab", 1) == W("b", "cda")
    assert greedy_parse(g, "cdabc", 2) == W("c", "ab", "cd")
    assert greedy_parse(g, "bcda", 1) is None   # nothing annihilates a
    assert greedy_parse(g, "cdab", 2) is None   # word too short
    assert greedy_parse(g, "", 0) is None
    assert greedy_parse(g, "", 1) is None
    assert greedy_parse(g, "cdaz", 1) is None   # z is no vertex
    assert greedy_parse(g, "czab", 1) is None   # as cdab, with z for d


def test_greedy_parse_after_a_vertex():
    g = graph("abc_cdab")
    assert greedy_parse(g, "cdab", 1, after=("c",)) == W("ab", "cd")
    assert greedy_parse(g, "cdab", 0, after=("c",)) is None  # leftover cd
    assert greedy_parse(g, "cda", 0, after=("b",)) == W("cda")
    # no suffix of cdab annihilates a
    assert greedy_parse(g, "cdab", 0, after=("a",)) is None


def test_greedy_parse_matches_the_ideal_scan():
    """The graph lookup of `greedy_parse` against the suffix scan over
    the ideal of `propcore.reference_greedy_parse`: on the walks of up
    to 3 edges from every vertex, and on random words, some empty and
    some holding a letter that is no generator."""
    rng = random.Random(11)
    compared = parsed = 0
    for g in sample_graphs():
        letters = [v[0] for v in g.g0] + ["?"]
        cases = list(parse_cases(g)) + [
            (tuple(rng.choice(letters) for _ in range(rng.randint(0, 10))),
             rng.randint(0, 4), rng.choice((None, rng.choice(g.vertices))))
            for _ in range(100)]
        assert parse_mismatches(g, cases) == []
        compared += len(cases)
        parsed += sum(greedy_parse(g, *case) is not None for case in cases)
    assert compared > 300000 and parsed > 45000


class _Tripwire:
    """Stands in for the ideal: any attribute read fails."""

    def __getattribute__(self, name):
        raise AssertionError(f"the walk layer read ideal.{name}")


def test_the_walk_layer_reads_no_ideal():
    """With the graph's ideal swapped for a tripwire, finite generation,
    the generators up to degree 5, products of generators and
    decomposability run on the graph alone."""
    products = 0
    for g in sample_graphs():
        g = CpsGraph(_Tripwire(),
                     *(getattr(g, field) for field in CpsGraph._fields[1:]))
        finitely_generated(g)
        classes = generators_up_to(g, 5)
        for w in classes[len(g.g0):]:
            assert not is_decomposable(g, w.walk)
        for p in classes[:4]:
            for q in classes[-4:]:
                products += yoneda_mul(g, p, q) is not None
    assert products > 1000


def test_partner_steps_match_the_ideal_scan():
    """The graph steps of the partner chains, and acceptance as an edge
    test, against the suffix scans over the ideal of
    `propcore.reference_partner_step`: on every state of the walk
    automaton, for the sample graphs and the census part x,y:2-3:3."""
    graphs = sample_graphs() + [build_marked_graph(p)
                                for p in census(["x", "y"], 2, 3, 3)]
    compared = 0
    for g in graphs:
        steps, misses = partner_mismatches(g)
        assert misses == [], misses[:3]
        compared += steps
    assert compared > 300


def test_edge_partners_have_a_closed_form():
    """The parse of an admissible edge v -> t is (v[-1:], t v[:-1]): t v
    is a relation, so no proper factor of it lies in the ideal.  The
    partner chains of `walks` start from this form and parse nothing."""
    graphs = sample_graphs()
    assert sum(sum(g.admissible.values()) for g in graphs) > 2000
    assert [closed_form_misses(g) for g in graphs] == [[]] * len(graphs)


def test_greedy_parse_stops_when_suffix_enters_ideal():
    g = mixed_graph()
    # third step would need a suffix of yx, but yx itself is a relation
    assert greedy_parse(g, "yxxxxx", 3) is None
    assert greedy_parse(g, "xxx", 1) == W("x", "xx")


def test_canonical_anchored_known_values():
    g = graph("abc_cdab")
    assert canonical_anchored(g, W("ab", "cd")) == W("b", "cda")
    assert canonical_anchored(g, W("cd", "ab")) is None
    assert canonical_anchored(g, W("b", "cda")) == W("b", "cda")
    assert canonical_anchored(g, W("ab", "cd", "ab")) == W("b", "cda", "ab")


def test_admissibility_of_single_edges():
    ga, gb = graph("abc_cdab"), graph("abc_cdab_bcda")
    assert canonical_anchored(ga, W("ab", "cd")) is not None
    assert canonical_anchored(gb, W("ab", "cd")) is not None
    assert canonical_anchored(ga, W("cd", "ab")) is None
    assert canonical_anchored(gb, W("cd", "ab")) is None


def test_admissible_prefix_with_inadmissible_extension():
    g = mixed_graph()
    assert canonical_anchored(g, W("xx", "x")) is not None
    assert canonical_anchored(g, W("xx", "x", "xx")) is None
    assert canonical_anchored(g, W("xx", "x", "xx", "y")) is None


def test_anchored_walks_are_admissible():
    for name in ("abc_cdab", "abc_cdab_bcda", "x2y_family"):
        g = graph(name)
        for w in enumerate_anchored(g, 5):
            assert canonical_anchored(g, w.vertices) == w.vertices


def test_is_decomposable_known_values():
    g = graph("abc_cdab")
    assert is_decomposable(g, W("c", "ab", "cd", "ab"))
    assert not is_decomposable(g, W("b", "cda", "ab"))
    assert not is_decomposable(g, W("b", "cda"))
    assert is_decomposable(g, W("c", "ab", "cd", "ab", "cd"))


def test_is_decomposable_requires_anchored_positive_length():
    g = graph("abc_cdab")
    with pytest.raises(ValueError, match="length at least 1"):
        is_decomposable(g, W("b"))
    with pytest.raises(ValueError, match="not anchored"):
        is_decomposable(g, W("ab", "cd"))


def test_is_decomposable_parses_suffixes_outright():
    """An admissible first suffix edge whose parse later dies must not count."""
    from yoneda_cps.graph import build_marked_graph
    p = make_presentation("xy", [("x", "y", "x"), ("x", "y", "y", "x"),
                                 ("y", "x", "x", "y"), ("y", "x", "y", "y")])
    g = build_marked_graph(MonomialIdeal(p))
    walk = W("x", "xyy", "yx", "xy", "xy", "xy")
    validate_walk(g, walk)
    assert not is_decomposable(g, walk)


def test_enumerate_anchored_counts_and_order():
    g = graph("abc_cdab")
    walks = list(enumerate_anchored(g, 7))
    by_len = {}
    for w in walks:
        assert isinstance(w, AnchoredWalk)
        by_len.setdefault(w.length, []).append(w.vertices)
    assert {n: len(v) for n, v in by_len.items()} == \
        {0: 4, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2}
    assert by_len[1] == [W("b", "cda"), W("c", "ab")]
    assert by_len[2] == [W("b", "cda", "ab"), W("c", "ab", "cd")]


def test_anchored_walk_degrees():
    w = AnchoredWalk(W("b", "cda"))
    assert w.length == 1
    assert w.cohomological_degree == 2
    assert w.internal_degree == 4


def test_list_walks_and_classes():
    g = graph("abc_cdab")
    walks = list_walks(g, 2)
    assert sorted(walks) == sorted([
        W("b", "cda", "ab"), W("c", "ab", "cd"), W("ab", "cd", "ab"),
        W("cd", "ab", "cd"), W("cda", "ab", "cd"),
    ])
    by_word = {}
    for vs in walks:
        by_word.setdefault(word_of(vs), set()).add(vs)
    assert by_word[tuple("abcdab")] == {W("b", "cda", "ab"), W("ab", "cd", "ab")}
    assert len(by_word) == 4


def test_equivalence_invariants_exhaustive_small():
    """Same word and length force the expected shared structure."""
    for name in ("abc_cdab", "abc_cdab_bcda"):
        g = graph(name)
        anchored = {n: [] for n in range(7)}
        for w in enumerate_anchored(g, 6):
            anchored[w.length].append(w.vertices)
        by_len = {n: list_walks(g, n) for n in range(1, 7)}
        assert check_equivalence_invariants(g, by_len, anchored) > 0


def test_walk_cap_env(monkeypatch):
    monkeypatch.delenv("YONEDA_CPS_MAX_WALK_CAP", raising=False)
    assert walk_cap() == 10 ** 7
    monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", "10")
    assert walk_cap() == 10
    g = graph("abc_cdab")
    with pytest.raises(WalkCapExceeded):
        list(enumerate_anchored(g, 6))


def test_explicit_cap_argument():
    g = graph("abc_cdab")
    with pytest.raises(WalkCapExceeded) as e:
        list(enumerate_anchored(g, 6, cap=3))
    assert "3" in str(e.value)


def test_periodic_walk_validation():
    with pytest.raises(ValueError, match="prefix"):
        EventuallyPeriodicWalk((), (("a",), ("a",)))
    with pytest.raises(ValueError, match="at least one edge"):
        EventuallyPeriodicWalk((("a",),), (("a",),))
    with pytest.raises(ValueError, match="closed"):
        EventuallyPeriodicWalk((("a",),), (("a",), ("b",)))
    with pytest.raises(ValueError, match="splice|cycle start"):
        EventuallyPeriodicWalk((("a",),), (("b",), ("b",)))


def test_periodic_walk_indexing():
    w = EventuallyPeriodicWalk(W("c", "ab"), W("ab", "cd", "ab"))
    assert w.cycle_length == 2
    assert [w.vertex(i) for i in range(6)] == \
        list(W("c", "ab", "cd", "ab", "cd", "ab"))
    # an infinite walk has no end to count back from
    with pytest.raises(ValueError, match="negative"):
        w.vertex(-1)
    assert w.to_json() == {"prefix": ["c", "ab"], "cycle": ["ab", "cd", "ab"]}


def test_validate_periodic_needs_real_edges():
    g = graph("abc_cdab")
    w = EventuallyPeriodicWalk(W("c", "ab"), W("ab", "cd", "ab"))
    assert validate_walk(g, w.prefix) == w.prefix
    assert validate_walk(g, w.cycle) == w.cycle
    bogus = EventuallyPeriodicWalk(W("b", "cda"), W("cda", "cda"))
    validate_walk(g, bogus.prefix)
    with pytest.raises(ValueError, match="not an edge"):
        validate_walk(g, bogus.cycle)


def test_density_flips_between_the_two_examples():
    w = EventuallyPeriodicWalk(W("c", "ab"), W("ab", "cd", "ab"))
    assert is_dense(graph("abc_cdab"), w, 1)
    assert not is_dense(graph("abc_cdab_bcda"), w, 1)


def test_density_on_the_two_chain_graph():
    g = graph("two_chain_overlap")
    pump = EventuallyPeriodicWalk(W("p", "wxyz"), W("wxyz", "pq", "wxyz"))
    assert is_dense(g, pump, 1)
    alternating = EventuallyPeriodicWalk(
        W("p", "wxyz"), W("wxyz", "pq", "WXYZ", "pq", "wxyz"))
    assert not is_dense(g, alternating, 1)
    assert not is_dense(g, alternating, 3)


def test_density_rejects_bad_edges():
    g = graph("abc_cdab")
    w = EventuallyPeriodicWalk(W("c", "ab"), W("ab", "cd", "ab"))
    with pytest.raises(ValueError, match="not admissible"):
        is_dense(g, w, 2)
    with pytest.raises(ValueError, match="not an edge"):
        is_dense(g, EventuallyPeriodicWalk(W("c", "c"), W("c", "c")), 0)
    # a later step off the graph is bad input, not a broken invariant
    with pytest.raises(ValueError, match="^cd -> cd is not an edge$"):
        is_dense(g, EventuallyPeriodicWalk(W("c", "ab"),
                                           W("ab", "cd", "cd", "ab")), 1)
    # a negative edge index is bad input: the walk's `vertex` refuses it
    periodic = EventuallyPeriodicWalk(W("c", "ab"), W("ab", "cd", "ab"))
    for index in (-1, -2, -5):
        with pytest.raises(ValueError, match="negative"):
            is_dense(graph("abc_cdab_bcda"), periodic, index)


def test_density_partner_death_returns_false():
    """A partner word falling into the ideal ends all longer extensions."""
    g = mixed_graph()
    w = EventuallyPeriodicWalk(W("xx"), W("xx", "x", "xx", "y", "xx"))
    validate_walk(g, w.prefix)
    validate_walk(g, w.cycle)
    assert not is_dense(g, w, 0)


def test_density_anchored_edge_is_dense():
    g = graph("x_square")
    loop = EventuallyPeriodicWalk(W("x"), W("x", "x"))
    assert is_dense(g, loop, 0)
