import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ALL, graph, load, sample_graphs
from propcore import (census, in_lists, marked_graph, random_marked_graph,
                      random_presentation, reference_annihilators,
                      reference_circuit_summary, reference_leading_path,
                      reference_sccs)
from yoneda_cps import graph as graph_module
from yoneda_cps import monomial
from yoneda_cps.decide import analyze, global_dimension
from yoneda_cps.ext import hilbert_series
from yoneda_cps.graph import (CircuitSummary, build_marked_graph,
                              circuits_and_sccs, export_dot, export_json,
                              graph_params)
from yoneda_cps.monomial import (MonomialIdeal, PreconditionError,
                                 annihilator_generators)
from yoneda_cps.oracle import minimal_resolution
from yoneda_cps.presentation import Presentation, make_presentation

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"


def disp(g, items):
    return ["".join(v) for v in items]


def edge_table(g):
    return sorted(("".join(s), "".join(t), adm) for (s, t), adm in g.admissible.items())


def test_vertices_and_edges_first_example():
    g = graph("abc_cdab")
    assert disp(g, g.vertices) == ["a", "b", "c", "d", "ab", "cd", "cda"]
    assert edge_table(g) == [
        ("ab", "cd", True),
        ("b", "cda", True),
        ("c", "ab", True),
        ("cd", "ab", False),
        ("cda", "ab", False),
    ]
    # a and d are isolated
    inc = in_lists(g)
    for v in (("a",), ("d",)):
        assert g.out[v] == () and inc[v] == []


def test_vertices_and_edges_enlarged_example():
    g = graph("abc_cdab_bcda")
    assert disp(g, g.vertices) == ["a", "b", "c", "d", "ab", "cd", "bcd", "cda"]
    assert edge_table(g) == [
        ("a", "bcd", True),
        ("ab", "cd", True),
        ("b", "cda", True),
        ("bcd", "a", False),
        ("c", "ab", True),
        ("cd", "ab", False),
        ("cda", "b", True),
    ]


def test_enlargement_swaps_one_edge_for_mutual_pairs():
    small = set(graph("abc_cdab").admissible)
    big = set(graph("abc_cdab_bcda").admissible)
    assert small - big == {(("c", "d", "a"), ("a", "b"))}
    assert big - small == {(("a",), ("b", "c", "d")),
                           (("b", "c", "d"), ("a",)),
                           (("c", "d", "a"), ("b",))}


def test_edges_match_annihilator_generators():
    """The edge relation is exactly membership in the annihilator set."""
    for name in ("abc_cdab", "abc_cdab_bcda", "x2y_family"):
        g = graph(name)
        ideal = g.ideal
        expect = set()
        for m in g.vertices:
            for w in annihilator_generators(ideal, m):
                assert w in set(g.vertices), (name, m, w)
                expect.add((m, w))
        assert set(g.admissible) == expect, name


def test_vertex_set_is_closed():
    """Vertices are the generators plus every annihilator they generate."""
    for name in ("abc_cdab", "sklyanin_leading", "two_chain_overlap"):
        g = graph(name)
        reached = {(x,) for x in g.ideal.presentation.generator_names}
        frontier = list(reached)
        while frontier:
            m = frontier.pop()
            for w in annihilator_generators(g.ideal, m):
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        assert set(g.vertices) == reached, name


def test_graph_matches_a_worklist_over_the_reference_annihilators():
    """The generators closed under the minimal annihilators that a scan
    of every normal word finds give the built graph.  two_chain_overlap
    is left out: its scan reads about 1.1 million normal words per
    vertex."""
    ideals = [g.ideal for g in sample_graphs()
              if g is not graph("two_chain_overlap")]
    ideals += [MonomialIdeal(p) for p in census(["x", "y"], 2, 4, 3)]
    for ideal in ideals:
        cap = max(map(len, ideal.relations)) - 1
        relations = set(ideal.relations)
        out = {}
        todo = [(name,) for name in ideal.presentation.generator_names]
        while todo:
            m = todo.pop()
            if m not in out:
                out[m] = reference_annihilators(ideal, m, cap)
                todo += out[m]
        g = build_marked_graph(ideal)
        assert g.vertices == tuple(sorted(out, key=ideal.sort_key)), \
            ideal.relations
        assert g.out == out, ideal.relations
        assert g.admissible == {(s, t): t + s in relations
                                for s in out for t in out[s]}


def test_the_build_scans_each_vertex_once(monkeypatch):
    """The graph build asks the ideal about each vertex alone, in the
    one scan that opens `annihilator_generators`: it checks there that
    the vertex is normal, and asks `contains` nothing."""
    ideals = [g.ideal for g in sample_graphs()]
    scanned = []
    annihilators, contains = graph_module.annihilator_generators, MonomialIdeal.contains

    def spy_annihilators(ideal, m):
        scanned.append(tuple(m))
        return annihilators(ideal, m)

    def spy_contains(ideal, word):
        scanned.append(tuple(word))
        return contains(ideal, word)

    monkeypatch.setattr(graph_module, "annihilator_generators", spy_annihilators)
    monkeypatch.setattr(MonomialIdeal, "contains", spy_contains)
    for ideal in ideals:
        scanned.clear()
        g = build_marked_graph(ideal)
        assert sorted(scanned, key=ideal.sort_key) == list(g.vertices), \
            ideal.relations


def test_each_ideal_builds_one_index(monkeypatch):
    """The build, the verdicts, the series and the oracle read the one
    automaton that each ideal builds over its relations when it is
    constructed, on the fixtures and the benchmark pool; no query
    builds another."""
    built, made = [], []
    build, make = monomial._ReversedAutomaton.__init__, MonomialIdeal.__init__

    def spy_build(self, relations):
        built.append(tuple(relations))
        build(self, relations)

    def spy_make(self, presentation):
        made.append(presentation.relations)
        make(self, presentation)

    presentations = [load(name) for name in ALL]
    presentations += [make_presentation(e["generators"],
                                        [tuple(r) for r in e["relations"]])
                      for e in json.loads(POOL.read_text())["presentations"]]
    monkeypatch.setattr(monomial._ReversedAutomaton, "__init__", spy_build)
    monkeypatch.setattr(MonomialIdeal, "__init__", spy_make)
    for p in presentations:
        hilbert_series(build_marked_graph(MonomialIdeal(p)))
        analyze(p)
        minimal_resolution(MonomialIdeal(p), max_i=3, max_j=6)
    assert len(made) >= 3 * len(presentations)
    assert built == made
    # the queries read the ideal's automaton and build none
    ideal = MonomialIdeal(presentations[0])
    ideal.contains(("x", "x"))
    ideal.occurrences(("x", "x"))
    ideal.normal_count(3)
    assert len(built) == len(made)


@pytest.mark.parametrize("relations,vertex", [
    ((("x", "y"), ("x", "y", "y")), "xy"),
    ((("y", "x"), ("x", "y", "x", "y")), "xyx"),
], ids=["prefix", "interior"])
def test_a_non_minimal_presentation_trips_m_in_ideal(relations, vertex):
    """A Presentation built directly, so that `make_presentation` does
    not prune the relation that has another as a factor, reaches a
    vertex in the ideal, and the build refuses it: the relation's
    prefix xy, or xyx with yx inside it."""
    p = Presentation(("x", "y"), relations)
    with pytest.raises(PreconditionError) as e:
        build_marked_graph(p)
    assert e.value.clause == "m_in_ideal"
    assert str(e.value) == f"m = {vertex} lies in the ideal"


def test_edge_words_and_admissibility():
    g = graph("abc_cdab")
    assert g.admissible[(("a", "b"), ("c", "d"))]
    assert not g.admissible[(("c", "d"), ("a", "b"))]
    g2 = graph("abc_cdab_bcda")
    assert g2.admissible[(("a", "b"), ("c", "d"))]
    assert not g2.admissible[(("c", "d"), ("a", "b"))]


def test_admissible_iff_edge_word_is_a_relation():
    for name in ("abc_cdab", "abc_cdab_bcda", "x2y_family", "sklyanin_leading"):
        g = graph(name)
        rels = set(g.ideal.relations)
        for (s, t), adm in g.admissible.items():
            assert adm == (t + s in rels), (name, s, t)


def test_two_chain_counts():
    g = graph("two_chain_overlap")
    assert len(g.vertices) == 33
    assert len(g.admissible) == 40
    inc = in_lists(g)
    isolated = [v for v in g.vertices if g.out[v] == () and inc[v] == []]
    assert disp(g, isolated) == ["y", "Y", "q"]


@pytest.mark.parametrize("name,expect", [
    ("x_square", (1, 1, 1, 2, 4, True)),
    ("xy_single", (1, 1, 1, 2, 4, False)),
    ("abc_cdab", (5, 2, 3, 14, 56, False)),
    ("abc_cdab_bcda", (7, 2, 2, 18, 106, False)),
    ("x2y_family", (9, 3, 2, 40, 172, False)),
    ("two_chain_overlap", (40, 4, 3, 244, 3241, False)),
    ("sklyanin_leading", (25, 2, 5, 56, 1276, False)),
])
def test_graph_params(name, expect):
    p = graph_params(graph(name))
    got = (p.edge_count, p.max_edge_class, p.max_leading_path,
           p.bound_N, p.weak_bound, p.l_defaulted)
    assert got == expect
    assert p.bound_N % 2 == 0
    assert p.bound_N >= 2 * p.edge_count * (p.max_edge_class - 1) + p.max_leading_path + 1


def test_graph_params_matches_reference_search():
    rng = random.Random(7)
    draws = [build_marked_graph(random_presentation(
        rng, max_gens=4, max_relations=6, max_degree=5)) for _ in range(300)]
    for g in [graph(name) for name in ALL] + draws:
        p = graph_params(g)
        assert (p.max_leading_path, p.l_defaulted) == \
            reference_leading_path(g), g.ideal.relations


def test_graph_params_matches_reference_search_on_dense_draws():
    # Denser draws than above: 8 of these 200 graphs have a non-admissible
    # component of 10 to 21 vertices, where many paths merge into one state.
    rng = random.Random(11)
    for _ in range(200):
        g = build_marked_graph(random_presentation(
            rng, max_gens=6, max_relations=16, max_degree=6))
        p = graph_params(g)
        assert (p.max_leading_path, p.l_defaulted) == \
            reference_leading_path(g), g.ideal.relations


def test_graph_params_matches_reference_search_on_marked_graphs():
    """The L search on arbitrary marked digraphs, with no ideal behind
    them: non-admissible edges out of generators, admissible edges
    anywhere, and non-admissible components where many paths merge."""
    rng = random.Random(1)
    for _ in range(3000):
        g = random_marked_graph(rng)
        p = graph_params(g)
        assert (p.max_leading_path, p.l_defaulted) == \
            reference_leading_path(g), g.admissible


def test_l_search_keeps_the_longer_count_when_states_merge():
    """The smallest marked graph found where overwriting a merged state
    inside a component, instead of keeping the larger count, loses L.
    The paths a -> 2 -> 4 -> 5 -> 1 and a -> 5 -> 4 -> 1 enter the
    non-admissible component {1, 4, 5} at 4 and at 5, and meet in one
    layer at vertex 1 with {1, 4, 5} visited, after 4 and 3 edges; the
    admissible edge 1 -> 3 ends the longer one as L = 5."""
    g = marked_graph(1, 6, [(0, 2, False), (0, 5, False), (1, 3, True),
                            (1, 4, False), (2, 4, False), (4, 1, False),
                            (4, 5, False), (5, 1, False), (5, 4, False)])
    assert reference_leading_path(g) == (5, False)
    assert graph_params(g).max_leading_path == 5


# Builds the 1,100-generator chain of tests/test_cli.py::
# test_deep_input_answers in a child process that caps its own address
# space, and prints the L of graph_params.
_DEEP_CHAIN_L = """
import resource
resource.setrlimit(resource.RLIMIT_AS,
                   (512 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
from yoneda_cps.graph import build_marked_graph, graph_params
from yoneda_cps.presentation import make_presentation
gens = [f"a{i}" for i in range(1100)] + ["x"]
rels = [(f"a{i + 1}", f"a{i + 1}", f"a{i}", f"a{i}") for i in range(1099)]
p = make_presentation(gens, rels + [("x", "x", "x")])
print(graph_params(build_marked_graph(p)).max_leading_path)
"""


def test_l_search_merges_states_within_512_mib():
    """The L search along the deep chain stays small because its states
    merge (about 25 MB and 0.03 s): a merge regression fails here as an
    assertion, in a child under a 512 MiB address-space cap, instead of
    exhausting the test run's memory."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _DEEP_CHAIN_L], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    assert child.stdout.strip() == "1099"


# Runs a verb, given with its arguments, and writes the child's own peak
# resident set (KiB) to stderr.  That is VmHWM, not ru_maxrss: Linux keeps
# ru_maxrss across exec, so a child started from the test run would
# report at least the test run's own peak.
_VERB_PEAK = """
import sys
from yoneda_cps.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def _verb_peak(*argv):
    """(parsed stdout, peak KiB) of one verb, in a child process so that
    the reading is its own."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _VERB_PEAK, *argv],
                           env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    return json.loads(child.stdout), int(child.stderr.split()[-1])


def test_long_relation_graph_within_64_mb(tmp_path):
    """The ideal's index and the oracle's relation trie grow with the
    relations' total length, not with its square: `graph` and `validate`
    on the 20 KB input x^3999 y, yxy each peak under 64 MB (about 16 and
    18 MB)."""
    path = tmp_path / "long_relation.json"
    path.write_text(json.dumps({"generators": ["x", "y"],
                                "relations": [["x"] * 3999 + ["y"],
                                              ["y", "x", "y"]]}))
    out, peak = _verb_peak("graph", str(path))
    assert len(out["vertices"]) == 4
    assert peak < 64 * 1024
    out, peak = _verb_peak("validate", str(path))
    assert out["mismatches"] == [] and out["betti"]["truncation_reached"]
    assert peak < 64 * 1024


def test_many_relation_lengths_decide_fg_within_32_mb(tmp_path):
    """The graph build holds one object per annihilator word, however
    many vertices it is an out-neighbour of: `decide-fg` on y x^k y,
    k < 200 (201 vertices, 39,800 edges) peaks under 32 MB (about
    21 MB, against 55 MB with a copy per edge)."""
    path = tmp_path / "many_lengths.json"
    path.write_text(json.dumps({"generators": ["x", "y"],
                                "relations": [["y"] + ["x"] * k + ["y"]
                                              for k in range(1, 200)]}))
    out, peak = _verb_peak("decide-fg", str(path))
    assert out["value"] is False
    assert peak < 32 * 1024


def test_circuit_summary_shapes():
    assert not circuits_and_sccs(graph("xy_single")).has_cycle
    s = circuits_and_sccs(graph("abc_cdab"))
    assert s.has_cycle and not s.shared_vertex
    assert global_dimension(graph("abc_cdab")).witness == \
        (("a", "b"), ("c", "d"), ("a", "b"))
    s61 = circuits_and_sccs(graph("two_chain_overlap"))
    assert s61.shared_vertex
    assert global_dimension(graph("two_chain_overlap")).witness is None


@pytest.mark.parametrize("name", ALL)
def test_sccs_come_sinks_first(name):
    g = graph(name)
    s = g.cycles
    position = {v: k for k, comp in enumerate(s.sccs) for v in comp}
    assert sorted(position, key=g.ideal.sort_key) == list(g.vertices)
    for comp in s.sccs:
        assert list(comp) == sorted(comp, key=g.ideal.sort_key)
    for src, dst in g.admissible:
        assert position[src] >= position[dst]
    assert set(s.cyclic) == {c for c in s.sccs
                             if len(c) > 1 or c[0] in g.out[c[0]]}


def test_sccs_are_the_mutual_reachability_classes():
    rng = random.Random(9)
    draws = [build_marked_graph(random_presentation(
        rng, max_gens=4, max_relations=6, max_degree=5)) for _ in range(300)]
    for g in [graph(name) for name in ALL] + draws:
        assert set(map(frozenset, g.cycles.sccs)) == reference_sccs(g), \
            g.ideal.relations


def test_succ_lists_out_neighbour_positions():
    for g in sample_graphs():
        assert [[g.vertices[i] for i in ts] for ts in g.succ] == \
            [list(g.out[v]) for v in g.vertices]
        assert all(list(ts) == sorted(ts) for ts in g.succ)
        assert list(g.admissible) == \
            [(s, t) for s in g.vertices for t in g.out[s]]
        assert g.vertices[:len(g.g0)] == g.g0


def test_the_build_calls_sort_key_once_per_vertex(monkeypatch):
    """The build sorts the vertices by `sort_key` once; their ranks order
    the out-lists, `succ` and the edges."""
    graphs = sample_graphs()
    calls = []
    sort_key = MonomialIdeal.sort_key

    def counted(self, word):
        calls.append(word)
        return sort_key(self, word)

    monkeypatch.setattr(MonomialIdeal, "sort_key", counted)
    for g in graphs:
        calls.clear()
        rebuilt = build_marked_graph(g.ideal)
        assert sorted(calls) == sorted(rebuilt.vertices), g.ideal.relations
        assert rebuilt.out == g.out and rebuilt.succ == g.succ


def test_cycles_match_the_vertex_tuple_route():
    """The position pass of `circuits_and_sccs` against the former pass
    over vertex tuples, field by field: the SCCs and their order, the
    order of the cyclic ones and the shared-vertex flag."""
    graphs = sample_graphs() + [build_marked_graph(p)
                                for p in census(["x", "y"], 2, 3, 3)]
    for g in graphs:
        got, want = g.cycles, reference_circuit_summary(g)[0]
        for field in CircuitSummary._fields:
            assert getattr(got, field) == getattr(want, field), \
                (field, g.ideal.relations)


def test_loop_is_a_circuit():
    g = graph("x_square")
    assert circuits_and_sccs(g).has_cycle
    assert global_dimension(g).witness == (("x",), ("x",))


def test_export_json_shape():
    out = export_json(graph("abc_cdab"))
    assert [v["word"] for v in out["vertices"]] == \
        ["a", "b", "c", "d", "ab", "cd", "cda"]
    assert {(e["source"], e["target"]) for e in out["edges"]} == \
        {("b", "cda"), ("c", "ab"), ("ab", "cd"), ("cd", "ab"), ("cda", "ab")}
    by_pair = {(e["source"], e["target"]): e for e in out["edges"]}
    assert by_pair[("ab", "cd")]["admissible"] is True
    assert by_pair[("ab", "cd")]["word"] == "cdab"
    assert by_pair[("cd", "ab")]["admissible"] is False


def test_export_dot_mentions_every_edge():
    text = export_dot(graph("abc_cdab"))
    assert text.startswith("digraph")
    assert '"ab" -> "cd"' in text
    assert text.count("->") == 5


def test_build_marked_accepts_presentation():
    g = build_marked_graph(load("x_square"))
    assert disp(g, g.vertices) == ["x"]
    assert g.admissible == {(("x",), ("x",)): True}
