"""The automaton of indecomposable walks against the pruned search it
was built from and the recursive reference route, and the verdict it
decides against the reference premise chain."""

import random
from collections import Counter

import pytest

from conftest import ALL, graph
from propcore import (indecomposable_walks, random_presentation,
                      reference_finitely_generated,
                      reference_search_indecomposable)
from yoneda_cps.decide import finitely_generated
from yoneda_cps.graph import build_marked_graph, graph_params
from yoneda_cps.presentation import make_presentation
from yoneda_cps.walks import WalkAutomaton, WalkCapExceeded, is_decomposable

COUNTED_LENGTHS = range(1, 12)


def accepted_counts(automaton, lengths):
    """The number of accepted paths of each length, by a layer DP from
    the start states."""
    layer = Counter(automaton.starts)
    counts = {}
    for n in range(max(lengths) + 1):
        if n in lengths:
            counts[n] = sum(c for s, c in layer.items()
                            if automaton.accepting[s])
        step = Counter()
        for s, c in layer.items():
            for t in automaton.succ[s]:
                step[t] += c
        layer = step
    return counts


def _deep_fg_graph():
    # x2y_family plus 150 cycles a_i -> a_i a_i -> a_i: bound_N is 1240
    gens = ["x", "y"] + [f"a{i}" for i in range(150)]
    rels = [["x", "x", "y"], ["x", "y", "y"], ["y", "y", "y"],
            ["x", "x", "x", "x"]] + [[f"a{i}"] * 3 for i in range(150)]
    return build_marked_graph(make_presentation(gens, rels))


def first_walks(automaton):
    """The first walk to reach each state, rebuilt breadth first from
    the start states along `succ`, in the order the automaton grew."""
    walks = {s: (automaton.states[s][0],) for s in automaton.starts}
    for s, row in enumerate(automaton.succ):
        for t in row:
            walks.setdefault(t, walks[s] + (automaton.states[t][0],))
    return [walks[s] for s in range(len(automaton.states))]


def _check_against_the_search(g):
    automaton = WalkAutomaton(g)
    # the closed condition on the state against is_decomposable on a walk
    assert automaton.accepting == [len(w) > 1 and not is_decomposable(g, w)
                                   for w in first_walks(automaton)]
    n = graph_params(g).bound_N
    for targets in ((n, n + 1), (3, 4), (7, 8)):
        first = next(automaton.accepted(targets), None)
        assert first == next(indecomposable_walks(g, targets), None), targets
        assert first == reference_search_indecomposable(g, targets, 10 ** 7)
    listed = list(indecomposable_walks(g, COUNTED_LENGTHS))
    assert list(automaton.accepted(COUNTED_LENGTHS)) == listed
    searched = Counter(len(w) - 1 for w in listed)
    assert accepted_counts(automaton, COUNTED_LENGTHS) == \
        {n: searched[n] for n in COUNTED_LENGTHS}
    # the verdict against the premise chain, whichever premise decides
    verdict, reference = finitely_generated(g), reference_finitely_generated(g)
    assert verdict.value == reference.value
    assert (verdict.witness_periodic is None) == \
        (reference.witness_periodic is None)


@pytest.mark.parametrize("name", ALL)
def test_automaton_matches_the_search(name):
    _check_against_the_search(graph(name))


def test_automaton_matches_the_search_on_random_presentations():
    rng = random.Random(13)
    for _ in range(300):
        p = random_presentation(rng, max_gens=4, max_relations=6, max_degree=5)
        _check_against_the_search(build_marked_graph(p))


def test_state_counts():
    assert len(WalkAutomaton(graph("two_chain_overlap")).states) == 56
    deep = WalkAutomaton(_deep_fg_graph())
    assert len(deep.states) == 308
    assert deep.longest_or_lasso() == 1


def test_longest_accepted():
    assert WalkAutomaton(graph("abc_cdab")).longest_or_lasso() == 2
    assert WalkAutomaton(graph("x2y_family")).longest_or_lasso() == 1
    assert WalkAutomaton(graph("xy_single")).longest_or_lasso() == 0
    # unbounded: a lasso (prefix, cycle, suffix) instead of a length
    prefix, cycle, suffix = WalkAutomaton(
        graph("two_chain_overlap")).longest_or_lasso()
    assert prefix[-1] == cycle[0] == cycle[-1] == suffix[0]


def test_an_indecomposable_walk_of_length_n_under_a_yes():
    """Why the premise chain keeps its order: y -> xxz -> zx is
    indecomposable and has length N = 2, yet Ext is finitely generated,
    as its earlier premise says.  The automaton reads the exact top
    generator degree, 3."""
    g = build_marked_graph(make_presentation(
        "xyz", [("z", "z"), ("z", "x", "x"), ("x", "x", "z", "y")]))
    assert graph_params(g).bound_N == 2
    automaton = WalkAutomaton(g)
    walk = (("y",), ("x", "x", "z"), ("z", "x"))
    assert next(automaton.accepted((2, 3))) == walk
    assert automaton.longest_or_lasso() == 2
    out = finitely_generated(g)
    assert out.value and out.generator_degree_bound == 3
    assert reference_finitely_generated(g).method == \
        "all_circuits_meet_generators"


def test_the_cap_bounds_states_and_steps():
    g = graph("abc_cdab_bcda")
    with pytest.raises(WalkCapExceeded, match="state count"):
        WalkAutomaton(g, cap=5)
    automaton = WalkAutomaton(g, cap=9)
    assert len(automaton.states) == 9
    with pytest.raises(WalkCapExceeded, match="search"):
        next(automaton.accepted((18, 19)))
    assert next(automaton.accepted((3, 4)), None) is not None


def test_no_lengths_list_no_walks():
    automaton = WalkAutomaton(graph("two_chain_overlap"))
    assert list(automaton.accepted(())) == []
    assert list(automaton.accepted(range(1, 1))) == []
    assert list(automaton.accepted((-2, -1))) == []
