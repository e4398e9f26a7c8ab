import math
import random

import pytest

from conftest import ALL, W, graph, load, sample_graphs
from propcore import (census, circuit_avoiding_generators, dense_tail_edges,
                      random_presentation, reference_circuit_summary,
                      reference_finitely_generated, reference_generators,
                      reference_noetherian, reference_search_indecomposable)
from yoneda_cps.decide import (INFINITY, analyze,
                               check_tail_conditions,
                               finitely_generated, gk_dimension,
                               global_dimension, noetherian, report_to_json)
from yoneda_cps.ext import generators_up_to
from yoneda_cps.graph import CpsGraph, build_marked_graph, graph_params
from yoneda_cps.monomial import MonomialIdeal
from yoneda_cps.presentation import make_presentation
from yoneda_cps.walks import (EventuallyPeriodicWalk, WalkAutomaton,
                              WalkCapExceeded, enumerate_anchored,
                              is_decomposable, is_dense)


def test_global_dimension_finite_case():
    out = global_dimension(graph("xy_single"))
    assert out.value == 2
    assert out.witness == W("y", "x")


def test_long_acyclic_chain_needs_no_recursion():
    # a0 -> a1 -> ... -> a1099: far deeper than Python's recursion limit
    n = 1100
    names = [f"a{i}" for i in range(n)]
    p = make_presentation(names, [(names[i + 1], names[i]) for i in range(n - 1)])
    report = analyze(p)
    assert report.gldim.value == n
    assert report.gldim.witness == tuple((name,) for name in names)
    assert report.gk_dim == 0


@pytest.mark.parametrize("name", ALL)
def test_analyze_computes_sccs_once(monkeypatch, name):
    from yoneda_cps import graph as graph_module
    calls = []
    original = graph_module.circuits_and_sccs

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(graph_module, "circuits_and_sccs", counting)
    analyze(load(name))
    assert len(calls) == 1


def test_global_dimension_infinite_cases():
    for name, circuit in (("x_square", W("x", "x")),
                          ("abc_cdab", W("ab", "cd", "ab")),
                          ("x2y_family", W("xx", "xx"))):
        out = global_dimension(graph(name))
        assert out.value is INFINITY
        assert out.witness == circuit
    assert global_dimension(graph("two_chain_overlap")).witness is None


@pytest.mark.parametrize("name,expect", [
    ("x_square", 1), ("xy_single", 0), ("abc_cdab", 1), ("abc_cdab_bcda", 1),
    ("x2y_family", 2), ("two_chain_overlap", INFINITY),
    ("sklyanin_leading", INFINITY),
])
def test_gk_dimension(name, expect):
    assert gk_dimension(graph(name)) == expect


@pytest.mark.parametrize("name,value,premise", [
    ("x_square", True, "all_circuits_meet_generators"),
    ("xy_single", True, "finite_global_dimension"),
    ("abc_cdab", True, "no_indecomposables_at_bound"),
    ("abc_cdab_bcda", False, "indecomposable_at_bound"),
    ("x2y_family", True, "no_indecomposables_at_bound"),
    ("two_chain_overlap", False, "indecomposable_at_bound"),
    ("sklyanin_leading", False, "indecomposable_at_bound"),
])
def test_finitely_generated_verdicts(name, value, premise):
    """The verdict, and the premise of the reference chain that decides
    the same verdict."""
    g = graph(name)
    out = finitely_generated(g)
    assert out.value is value
    assert out.method == ("finitely_many_indecomposables" if value
                          else "infinitely_many_indecomposables")
    assert (out.bound_n, out.witness_circuit) == (None, None)
    reference = reference_finitely_generated(g)
    assert (reference.value, reference.method) == (value, premise)


# Presentation 129 of perfbench/pool.json: all circuits meet a degree-1
# vertex and N = 2, yet d -> bcaa -> aef -> cfa is indecomposable.
POOL_129 = ("aefb bff cfaa cd bcaad dedc cc acdebc aebd edea effd ed ccc "
            "afbb ebfd accd")


def _pool_129():
    rels = [tuple(r) for r in POOL_129.split()]
    return build_marked_graph(make_presentation("abcdef", rels))


@pytest.mark.parametrize("name,degree", [
    ("x_square", 1), ("xy_single", 1), ("abc_cdab", 3), ("x2y_family", 2),
])
def test_fg_generator_degree_is_exact(name, degree):
    assert finitely_generated(graph(name)).generator_degree_bound == degree


def test_fg_generator_degree_is_exact_on_acyclic_graphs():
    """On an acyclic graph the verdict is yes, and its degree is the top
    degree of the generators, which Ext's vanishing above the global
    dimension puts at or below it."""
    rng = random.Random(13)
    draws = [build_marked_graph(MonomialIdeal(random_presentation(rng)))
             for _ in range(500)]
    checked = below = 0
    for g in [graph(name) for name in ALL] + draws:
        if g.cycles.has_cycle:
            continue
        gldim = global_dimension(g).value
        out = finitely_generated(g)
        assert (out.value, out.method) == \
            (True, "finitely_many_indecomposables"), g.ideal.relations
        top = max(c.walk.cohomological_degree
                  for c in reference_generators(g, gldim + 1))
        assert out.generator_degree_bound == top <= gldim, g.ideal.relations
        checked += 1
        below += top < gldim
    assert checked >= 80 and below >= 40


def test_fg_generator_degree_past_the_bound_n():
    g = _pool_129()
    assert graph_params(g).bound_N == 2
    out = finitely_generated(g)
    assert (out.value, out.generator_degree_bound) == (True, 4)
    top = [c.walk.vertices for c in reference_generators(g, 6)
           if c.walk.cohomological_degree == 4]
    assert W("d", "bcaa", "aef", "cfa") in top
    assert all(not is_decomposable(g, w) for w in top)


# The fg inputs with an indecomposable walk of length N or N + 1, among
# the fixtures, the 210 pool presentations, 3,000 draws of
# random_presentation(Random(7)) and 1,000 draws of Random(9) with
# max_gens=4, max_relations=6, max_degree=5 (draws counted from 0):
# (generators, relations, origin).
FG_WALKS_AT_N = [
    ("abcdef", POOL_129, "pool presentation 129"),
    ("xyz", "yzx zxxy", "Random(7) draw 1073"),
    ("xyz", "zz zxx xxzy", "Random(7) draw 1715"),
    ("xyz", "xzy zyzx", "Random(7) draw 2187"),
    ("xyzw", "zz xzw yyx", "Random(9) draw 566"),
    ("xyzw", "zz yzwz wyzx xyxxz", "Random(9) draw 572"),
    ("xyz", "zz yyxz xxzxy", "Random(9) draw 590"),
    ("xyz", "zz xxz yzx", "Random(9) draw 744"),
]


@pytest.mark.parametrize("gens,rels,origin", FG_WALKS_AT_N,
                         ids=[origin for _, _, origin in FG_WALKS_AT_N])
def test_fg_inputs_with_an_indecomposable_walk_at_n(gens, rels, origin):
    """Every non-fg input of those sets has an indecomposable walk of
    length N or N + 1, and so do these eight fg ones: the window
    (N, N + 1) does not decide fg, and no verdict reads bound_N.  All
    eight have M = 1, an exact L = 1 and N = 2."""
    g = build_marked_graph(make_presentation(
        gens, [tuple(r) for r in rels.split()]))
    p = graph_params(g)
    assert (p.max_edge_class, p.max_leading_path, p.l_defaulted,
            p.bound_N) == (1, 1, False, 2)
    assert finitely_generated(g).value is True
    walk = next(WalkAutomaton(g).accepted((2, 3)), None)
    assert walk is not None and not is_decomposable(g, walk)


def _draws(seed, count):
    rng = random.Random(seed)
    return [build_marked_graph(random_presentation(
        rng, max_gens=4, max_relations=6, max_degree=5)) for _ in range(count)]


def test_fg_generator_degree_matches_the_listing():
    """On a cyclic graph the reported degree is the top degree among the
    generators that the listing of every anchored walk finds up to two
    degrees above it."""
    checked = 0
    for g in [graph(name) for name in ALL] + [_pool_129()] + _draws(11, 300):
        out = finitely_generated(g)
        if not (out.value and g.cycles.has_cycle):
            continue
        bound = out.generator_degree_bound
        top = max(c.walk.cohomological_degree
                  for c in reference_generators(g, bound + 2))
        assert top == bound, g.ideal.relations
        checked += 1
    assert checked >= 100


def _family(out, ks):
    """The walks P . C^k . S of a "no" verdict's lasso, for k in ks."""
    prefix, cycle, suffix = out.witness_family
    assert prefix[-1] == cycle[0] == cycle[-1] == suffix[0]
    return [prefix + cycle[1:] * k + suffix[1:] for k in ks]


def test_fg_family_pumps():
    """A "no" carries a lasso (P, C, S) of the walk automaton: every
    P . C^k . S is indecomposable, checked at k = 0..40 on the fixtures
    and k = 0..10 on seeded draws, and the witness walk is P . C . S."""
    families = 0
    for g, top in [(graph(name), 40) for name in ALL] + \
            [(g, 10) for g in _draws(12, 600)]:
        out = finitely_generated(g)
        if out.value:
            continue
        walks = _family(out, range(top + 1))
        assert out.witness_walk == walks[1]
        for walk in walks:
            assert not is_decomposable(g, walk), (g.ideal.relations, walk)
        families += 1
    assert families >= 150


def test_fg_family_without_a_periodic_walk():
    """Draw 334 of Random(9) at 4/6/5: one live cycle, a self-loop at
    xx, so y -> xx^k -> xyx is indecomposable for every k, but the tail
    xx -> xx -> ... has admissible edges of both parities and no
    periodic walk passes the tail check.  Only the family certifies."""
    g = build_marked_graph(make_presentation(
        "xy", [("x", "x", "y"), ("x", "x", "x", "x"), ("x", "y", "x", "x")]))
    out = finitely_generated(g)
    assert not out.value and out.witness_periodic is None
    assert out.to_json()["witness"] == {
        "indecomposable_walk": ["y", "xx", "xx", "xx", "xx", "xyx"],
        "family": {"prefix": ["y", "xx", "xx", "xx"], "cycle": ["xx", "xx"],
                   "suffix": ["xx", "xyx"]}}
    assert reference_finitely_generated(g).witness_periodic is None
    for walk in _family(out, range(41)):
        assert not is_decomposable(g, walk)


# two_chain_overlap's lasso, its prefix ending in pq
TWO_CHAIN_PREFIX = W("z", "pqwxy", "xyz", "pqw", "WXYZ", "pq")


@pytest.mark.parametrize("cycle,suffix", [
    # pq -> WXYZ -> pq is a cycle of the graph, but after the prefix its
    # second pq is a state with no accepted path
    (W("pq", "WXYZ", "pq"), W("pq", "wxyz")),
    # pq -> wxyz -> pq ends in a live state that does not accept
    (W("pq", "wxyz", "pq", "WXYZ", "pq"), W("pq", "wxyz", "pq")),
], ids=["cycle-leaves-the-live-states", "suffix-ends-unaccepted"])
def test_fg_assertion_catches_a_broken_lasso(monkeypatch, cycle, suffix):
    g = graph("two_chain_overlap")
    assert WalkAutomaton(g).longest_or_lasso()[0] == TWO_CHAIN_PREFIX
    monkeypatch.setattr(WalkAutomaton, "longest_or_lasso",
                        lambda self: (TWO_CHAIN_PREFIX, cycle, suffix))
    with pytest.raises(AssertionError, match="lasso"):
        finitely_generated(g)


def test_fg_negative_witnesses_certify():
    expect = {
        "abc_cdab_bcda": ({"prefix": ["c", "ab", "cd"],
                           "cycle": ["cd", "ab", "cd"]}, ["cd", "ab"]),
        "two_chain_overlap": ({"prefix": ["z", "pqwxy", "xyz", "pqw",
                                          "WXYZ", "pq"],
                               "cycle": ["pq", "wxyz", "pq", "WXYZ", "pq"]},
                              ["pq", "wxyz"]),
        "sklyanin_leading": ({"prefix": ["x", "yxx", "yx"],
                              "cycle": ["yx", "yx"]}, ["yx"]),
    }
    for name, (periodic, suffix) in expect.items():
        g = graph(name)
        out = finitely_generated(g)
        assert not out.value
        assert not is_decomposable(g, out.witness_walk)
        assert out.witness_periodic.to_json() == periodic
        assert out.to_json()["witness"]["family"] == dict(periodic,
                                                          suffix=suffix)
        if reference_finitely_generated(g).witness_periodic is not None:
            assert out.witness_periodic is not None
        assert check_tail_conditions(g, out.witness_periodic)


def test_fg_verdict_json_round():
    out = finitely_generated(graph("abc_cdab_bcda")).to_json()
    assert out["value"] is False
    assert out["method"] == "infinitely_many_indecomposables"
    assert out["witness"]["periodic_walk"] == \
        {"prefix": ["c", "ab", "cd"], "cycle": ["cd", "ab", "cd"]}
    assert out["witness"]["indecomposable_walk"] == \
        ["c", "ab", "cd", "ab", "cd", "ab"]
    assert out["witness"]["family"]["suffix"] == ["cd", "ab"]
    assert set(out) == {"value", "method", "witness"}


def test_fg_survives_mixed_relation_degrees():
    """The pruned search must terminate on the suffix-death family."""
    p = make_presentation("xy", [("y", "x"), ("x", "x", "x"), ("x", "x", "y")])
    g = build_marked_graph(MonomialIdeal(p))
    out = finitely_generated(g)
    assert out.value
    assert out.method == "finitely_many_indecomposables"
    assert reference_finitely_generated(g).method == \
        "all_circuits_meet_generators"
    # the search must terminate on this family past the reference
    # route's window too (suffix death inside the scan)
    assert next(WalkAutomaton(g, 10 ** 7).accepted((14, 15)), None) is None


def test_fg_search_needs_no_recursion():
    # walks of 1,201 edges, past Python's default recursion limit
    automaton = WalkAutomaton(graph("x2y_family"))
    assert next(automaton.accepted((1200, 1201)), None) is None


def test_circuit_search_needs_no_recursion():
    # a ring of 5,000 degree-13 vertices, past Python's recursion limit,
    # with a shortcut through a generator that the search must not take;
    # the search reads only `vertices` and `out`
    gen = ("x",)
    ring = tuple(tuple("xy"[int(b)] for b in f"{i:013b}") for i in range(5000))
    out = {gen: (ring[0],)}
    out.update((v, (ring[(i + 1) % len(ring)],)) for i, v in enumerate(ring))
    out[ring[0]] = (gen, ring[1])
    ideal = MonomialIdeal(make_presentation("xy", [("x", "x")]))
    g = CpsGraph(ideal, (gen,) + ring, (gen,), {}, out, ())
    assert circuit_avoiding_generators(g) == ring + ring[:1]


def _check_against_reference_routes(g, degrees):
    for d in degrees:
        assert generators_up_to(g, d) == reference_generators(g, d), d
    if g.cycles.has_cycle:
        n = graph_params(g).bound_N
        targets = (n, n + 1)
        assert next(WalkAutomaton(g).accepted(targets), None) == \
            reference_search_indecomposable(g, targets, 10 ** 7)


@pytest.mark.parametrize("name", ALL)
def test_indecomposable_walks_match_reference_routes(name):
    _check_against_reference_routes(graph(name), range(11))


def test_a_dead_partner_chain_cuts_no_branch():
    """A chain whose word falls into the ideal is dropped, neither
    followed further nor taken as a cut: here the first indecomposable
    walk below a dead chain has degree 6."""
    p = make_presentation("xy", [("y", "x", "x"), ("x", "x", "y", "x"),
                                 ("x", "y", "x", "y")])
    _check_against_reference_routes(build_marked_graph(MonomialIdeal(p)), range(11))


def test_indecomposable_walks_match_reference_routes_on_random_presentations():
    rng = random.Random(8)
    for _ in range(300):
        p = random_presentation(rng, max_gens=4, max_relations=6, max_degree=5)
        _check_against_reference_routes(build_marked_graph(MonomialIdeal(p)),
                                        (0, 1, 4, 7, 10))


def test_fg_admissible_loop_off_generators():
    """A circuit may dodge the degree-1 vertices yet carry an admissible
    edge that no simple path reaches.  Pumping such a circuit proves
    nothing, so the premise chain must decide by its bounded search."""
    p = make_presentation("xy", [("x", "y", "x", "y")])
    g = build_marked_graph(MonomialIdeal(p))
    loop = (("x", "y"), ("x", "y"))
    assert g.admissible.get(loop)
    out = finitely_generated(g)
    assert out.value
    assert out.method == "finitely_many_indecomposables"
    reference = reference_finitely_generated(g)
    assert reference.value
    assert reference.method == "no_indecomposables_at_bound"
    assert reference.bound_n == 8


def test_fg_honors_walk_cap():
    with pytest.raises(WalkCapExceeded):
        finitely_generated(graph("abc_cdab_bcda"), cap=5)


def test_check_tail_conditions():
    w = EventuallyPeriodicWalk(W("c", "ab"), W("ab", "cd", "ab"))
    assert not check_tail_conditions(graph("abc_cdab"), w)   # dense edge
    assert check_tail_conditions(graph("abc_cdab_bcda"), w)  # nothing fires
    g = graph("two_chain_overlap")
    pump = EventuallyPeriodicWalk(W("p", "wxyz"), W("wxyz", "pq", "wxyz"))
    assert not check_tail_conditions(g, pump)  # edge 1 is dense here
    # no dense edge, and the admissible edges all sit at odd positions
    alternating = EventuallyPeriodicWalk(
        W("p", "wxyz"), W("wxyz", "pq", "WXYZ", "pq", "wxyz"))
    assert check_tail_conditions(g, alternating)


def test_check_tail_conditions_rejects_a_non_walk():
    g = graph("abc_cdab")
    loop = EventuallyPeriodicWalk(W("c"), W("c", "c"))
    for check in (lambda: check_tail_conditions(g, loop),
                  lambda: is_dense(g, loop, 0)):
        with pytest.raises(ValueError, match="^c -> c is not an edge$"):
            check()
    bad_prefix = EventuallyPeriodicWalk(W("c", "c", "ab"), W("ab", "cd", "ab"))
    with pytest.raises(ValueError, match="^c -> c is not an edge$"):
        check_tail_conditions(g, bad_prefix)


def test_lasso_tails_are_rejected_only_on_parity():
    """P . C^k . S is a path of the automaton for every k, and `is_dense`
    follows the partner chain that the automaton would cut on a rejoin,
    so the lasso's periodic walk P . C C C ... has no dense tail edge:
    the tail check rejects it only for admissible tail edges of both
    parities.  That happens on draws 154, 865 and 1,673 of Random(7)
    and 334 of Random(9) at 4/6/5, each with a one-edge admissible
    cycle."""
    def rejected(g):
        out = finitely_generated(g)
        if out.value:
            return False
        prefix, cycle, _ = out.witness_family
        periodic = EventuallyPeriodicWalk(prefix, cycle)
        assert dense_tail_edges(g, periodic) == []
        if out.witness_periodic is None:
            assert len(cycle) == 2 and g.admissible[cycle]
        return out.witness_periodic is None

    assert not any(rejected(graph(name)) for name in ALL)
    for seed, draws, sizes, expect in ((7, 1700, (3, 4, 4), [154, 865, 1673]),
                                       (9, 400, (4, 6, 5), [334])):
        rng = random.Random(seed)
        assert [k for k in range(draws) if rejected(build_marked_graph(
            random_presentation(rng, *sizes)))] == expect


@pytest.mark.parametrize("relations", ["xxxy,xyxx,yxyx", "xxyx,xyxx,xyxy",
                                       "xxyx,xyxy,yxxx", "yxyx,yxyy,yyxy"])
def test_lasso_tails_on_odd_cycles_take_both_parities(relations):
    """On these inputs the lasso's cycle has 3 or 7 edges, one of them
    admissible: the periodic walk has no dense tail edge, and when the
    tail check rejects it, its admissible tail edges take both parities."""
    g = build_marked_graph(make_presentation(
        "xy", [tuple(r) for r in relations.split(",")]))
    out = finitely_generated(g)
    prefix, cycle, _ = out.witness_family
    periodic = EventuallyPeriodicWalk(prefix, cycle)
    assert dense_tail_edges(g, periodic) == []
    if out.witness_periodic is None:
        window = len(prefix) - 1 + 2 * periodic.cycle_length
        adm = [i for i in range(1, window) if g.admissible[
            (periodic.vertex(i), periodic.vertex(i + 1))]]
        assert {i % 2 for i in adm} == {0, 1}


def test_no_indecomposables_near_the_bound_when_fg():
    """Brute confirmation of the top generator degree d: the walks of
    length d to d+3, in degree d+1 and up, all decompose."""
    for name in ("abc_cdab", "x_square"):
        g = graph(name)
        out = finitely_generated(g)
        lo = out.generator_degree_bound
        seen = 0
        for w in enumerate_anchored(g, lo + 3):
            if lo <= w.length <= lo + 3:
                seen += 1
                assert is_decomposable(g, w.vertices), (name, w.vertices)
        assert seen > 0, name


@pytest.mark.parametrize("name,left,right", [
    ("x_square", True, True),
    ("xy_single", True, True),
    ("abc_cdab", False, False),
    ("abc_cdab_bcda", False, False),
    ("x2y_family", False, False),
    ("two_chain_overlap", False, False),
    ("sklyanin_leading", False, False),
])
def test_noetherian_verdicts(name, left, right):
    g = graph(name)
    assert noetherian(g, "left").value is left
    assert noetherian(g, "right").value is right


def test_noetherian_witnesses():
    g = graph("abc_cdab")
    out = noetherian(g, "left")
    assert out.reason == "non_admissible_circuit_edge"
    assert out.witness_edge == (("c", "d"), ("a", "b"))
    out = noetherian(g, "right")
    assert out.reason == "circuit_vertex_with_branching"
    assert out.witness_vertex == ("a", "b")
    out = noetherian(graph("x2y_family"), "left")
    assert out.witness_vertex == ("y",)
    out = noetherian(graph("xy_single"), "left")
    assert out.reason == "acyclic_graph"
    out = noetherian(graph("x_square"), "right")
    assert out.reason == "unique_admissible_circuits"


def test_noetherian_rejects_bad_side():
    with pytest.raises(ValueError):
        noetherian(graph("x_square"), "both")


def test_vertex_order_decisions_match_the_reference_routes():
    """`noetherian` on both sides, which scans the vertex order, and the
    circuit that `global_dimension` traces on a cyclic graph, against
    the routes that sort by `sort_key`, build in-lists and trace one
    circuit per cyclic component: on the fixtures, the sample graphs
    and the census part x,y:2-3:3."""
    graphs = sample_graphs() + [build_marked_graph(p)
                                for p in census(["x", "y"], 2, 3, 3)]
    branching = {"left": 0, "right": 0}
    named = 0
    for g in graphs:
        for side in ("left", "right"):
            got = noetherian(g, side)
            assert got == reference_noetherian(g, side), \
                (side, g.ideal.relations)
            branching[side] += got.witness_vertex is not None
        if g.cycles.has_cycle:
            circuits = reference_circuit_summary(g)[1]
            assert global_dimension(g).witness == \
                (circuits[0] if circuits else None), g.ideal.relations
            named += bool(circuits)
    assert min(branching.values()) > 100 and named > 100, (branching, named)


def test_analyze_report_values():
    rep = analyze(load("abc_cdab"))
    out = report_to_json(rep)
    assert out["gldim"]["value"] == "infinity"
    assert out["gk_dim"] == 1
    assert out["finitely_generated"]["value"] is True
    assert out["noetherian_left"]["value"] is False
    assert out["noetherian_right"]["value"] is False
    assert out["params"]["bound_N"] == 14
    assert any("convention" in n for n in out["notes"])


def test_analyze_infinity_rendering():
    out = report_to_json(analyze(load("two_chain_overlap")))
    assert out["gk_dim"] == "infinity"
    assert out["gldim"]["value"] == "infinity"
    assert any("refused" in n for n in out["notes"])


def test_analyze_cross_checks_on_random_presentations():
    """The internal consistency asserts must hold across the family."""
    rng = random.Random(421)
    for _ in range(60):
        rep = analyze(random_presentation(rng), cap=200000)
        if rep.noetherian_left.value or rep.noetherian_right.value:
            assert rep.gk_dim is not INFINITY and rep.gk_dim <= 1
        if rep.gldim.value is not INFINITY:
            assert rep.fg.value
        if not rep.fg.value:
            assert rep.gldim.value is INFINITY
            assert rep.fg.witness_walk is not None


def test_infinity_constant():
    assert INFINITY == math.inf
