"""The annihilator graph of a monomial algebra.

Vertices are the generators together with every minimal left-annihilator
word reachable from them; there is an edge m1 -> m2 exactly when m2 is a
minimal left annihilator of m1.  The graph is finite (annihilator words
are shorter than the longest relation) and is built by fixed-point
iteration from the generators.

An edge is admissible when its edge word (target tensor source) is one
of the defining relations; walk-level admissibility lives in `walks`.
"""

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

from .monomial import MonomialIdeal, annihilator_generators
from .presentation import format_word

__all__ = [
    "CpsGraph",
    "GraphParams",
    "CircuitSummary",
    "build_graph",
    "mark_admissible_edges",
    "build_marked_graph",
    "graph_params",
    "circuits_and_sccs",
    "export_dot",
    "export_json",
]


@dataclass(frozen=True)
class CpsGraph:
    ideal: MonomialIdeal
    vertices: tuple    # letter tuples, sorted by (degree, index sequence)
    g0: tuple          # the degree-1 vertices, always the whole alphabet
    edges: tuple       # (source, target) pairs, sorted
    admissible: dict   # edge -> bool; empty until mark_admissible_edges
    edge_word: dict    # edge -> target + source letters
    out: dict          # vertex -> tuple of successors, sorted
    inc: dict          # vertex -> tuple of predecessors, sorted

    @property
    def marked(self):
        return len(self.admissible) == len(self.edges)

    @cached_property
    def cycles(self):
        """The graph's CircuitSummary, computed once on first use."""
        return circuits_and_sccs(self)


def build_graph(ideal):
    """Grow the vertex set from the generators to its fixed point.

    Each generation step adds the annihilator sets of the previous
    step's new vertices; termination is guaranteed because annihilator
    words have degree at most (max relation degree) - 1.
    """
    if not isinstance(ideal, MonomialIdeal):
        ideal = MonomialIdeal(ideal)
    g0 = tuple((name,) for name in ideal.presentation.generator_names)
    seen = set(g0)
    edges = []
    frontier = list(g0)
    while frontier:
        new = []
        for m in frontier:
            for w in annihilator_generators(ideal, m):
                edges.append((m, w))
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new

    vertices = tuple(sorted(seen, key=ideal.sort_key))
    edges = tuple(sorted(set(edges), key=lambda e: (ideal.sort_key(e[0]), ideal.sort_key(e[1]))))
    edge_word = {(s, t): t + s for s, t in edges}
    out = {v: [] for v in vertices}
    inc = {v: [] for v in vertices}
    for s, t in edges:
        out[s].append(t)
        inc[t].append(s)
    out = {v: tuple(ts) for v, ts in out.items()}
    inc = {v: tuple(ss) for v, ss in inc.items()}
    return CpsGraph(ideal, vertices, g0, edges, {}, edge_word, out, inc)


def mark_admissible_edges(g):
    """Flag each edge whose edge word is literally a relation."""
    relations = set(g.ideal.relations)
    admissible = {e: (g.edge_word[e] in relations) for e in g.edges}
    # Edges leaving a generator always straddle a whole relation.
    for (s, t), flag in admissible.items():
        if len(s) == 1:
            assert flag, f"generator edge {format_word(s)}->{format_word(t)} must be admissible"
    return replace(g, admissible=admissible)


def build_marked_graph(presentation_or_ideal):
    return mark_admissible_edges(build_graph(presentation_or_ideal))


@dataclass(frozen=True)
class GraphParams:
    edge_count: int        # script-E, the number of edges
    max_edge_class: int    # M, size of the largest equal-edge-word class
    max_leading_path: int  # L, longest anchored simple path whose last edge
                           # is admissible and whose interior edges are not
    bound_N: int           # smallest even integer >= 2E(M-1)+L+1
    weak_bound: int        # the cruder 2E^2+E+1 bound, for comparison
    l_defaulted: bool      # no qualifying path existed; L fell back to 1


def graph_params(g):
    assert g.marked, "mark_admissible_edges first"
    e_count = len(g.edges)
    m = max(Counter(g.edge_word.values()).values(), default=1)

    # L: DFS over anchored simple paths whose interior edges (all but the
    # first and the last) are non-admissible.  Stop rule: an admissible
    # edge at position k >= 1 (k edges before it) ends a qualifying path
    # of k + 1 edges and is never descended into, since any extension
    # would make it interior.
    best = 0
    on_path = set()

    def extend(v, k):
        nonlocal best
        on_path.add(v)
        for t in g.out[v]:
            if t in on_path:
                continue
            if g.admissible[(v, t)]:
                best = max(best, k + 1)
                if k >= 1:
                    continue
            extend(t, k + 1)
        on_path.discard(v)

    for start in g.g0:
        extend(start, 0)

    l_defaulted = best == 0
    l_value = 1 if l_defaulted else best
    raw = 2 * e_count * (m - 1) + l_value + 1
    bound_n = raw if raw % 2 == 0 else raw + 1
    weak = 2 * e_count * e_count + e_count + 1
    return GraphParams(e_count, m, l_value, bound_n, weak, l_defaulted)


@dataclass(frozen=True)
class CircuitSummary:
    sccs: tuple           # vertex tuples, each sorted, whole partition, sinks
                          # first: an edge between two components always goes
                          # from a later entry to an earlier one
    cyclic: tuple         # the SCCs that carry a cycle (size > 1 or a
                          # self-loop), ordered by (size, least vertex); the
                          # order picks the circuit and edge a verdict names
    circuits: tuple       # one closed vertex cycle per cyclic SCC, or ()
    shared_vertex: bool   # some cyclic SCC is not a simple cycle

    @property
    def has_cycle(self):
        return bool(self.cyclic)


def _tarjan_sccs(vertices, out):
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        # iterative Tarjan: (vertex, iterator position)
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            succs = out[v]
            while pi < len(succs):
                w = succs[pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(tuple(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return sccs


def circuits_and_sccs(g):
    """SCC partition, plus circuit enumeration when it is safe.

    shared_vertex is true when some cyclic component is not a simple
    cycle; two distinct circuits then meet at a vertex and the circuit
    count may be exponential, so enumeration is refused (flagged, not
    raised).  Tarjan's algorithm completes a component only after every
    component it reaches, which gives `sccs` its sinks-first order.
    """
    key = g.ideal.sort_key
    sccs = tuple(tuple(sorted(c, key=key)) for c in _tarjan_sccs(g.vertices, g.out))
    cyclic = tuple(sorted((c for c in sccs if len(c) > 1 or c[0] in g.out[c[0]]),
                          key=lambda c: (len(c), key(c[0]))))

    shared = any(sum(1 for t in g.out[v] if t in members) != 1
                 or sum(1 for s in g.inc[v] if s in members) != 1
                 for members in map(set, cyclic) for v in members)

    circuits = []
    if not shared:
        for comp in cyclic:
            members = set(comp)
            cyc = [comp[0]]
            while True:
                cyc.append(next(t for t in g.out[cyc[-1]] if t in members))
                if cyc[-1] == comp[0]:
                    break
            circuits.append(tuple(cyc))
    return CircuitSummary(sccs, cyclic, tuple(circuits), shared)


def export_dot(g):
    assert g.marked, "mark_admissible_edges first"
    lines = ["digraph annihilator_graph {"]
    for v in g.vertices:
        lines.append(f'  "{format_word(v)}";')
    for (s, t) in g.edges:
        style = "solid" if g.admissible[(s, t)] else "dashed"
        lines.append(f'  "{format_word(s)}" -> "{format_word(t)}" [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g):
    assert g.marked, "mark_admissible_edges first"
    return {
        "vertices": [
            {"word": format_word(v), "degree": len(v), "in_g0": len(v) == 1}
            for v in g.vertices
        ],
        "edges": [
            {
                "source": format_word(s),
                "target": format_word(t),
                "word": format_word(g.edge_word[(s, t)]),
                "admissible": g.admissible[(s, t)],
            }
            for (s, t) in g.edges
        ],
    }
