"""Finiteness decisions: global dimension, growth, generation, chains.

All four invariants of the cohomology algebra reduce to properties of
the annihilator graph.  Global dimension is finite exactly when the
graph is acyclic.  Growth is the largest number of cycle components met
by a single walk, infinite when two circuits share a vertex.  Finite
generation is read off one finite automaton, `walks.WalkAutomaton`, on
every graph.  Its accepted paths are the indecomposable anchored walks,
the ones that `ext.generators_up_to` lists: the algebra is finitely
generated exactly when they are finitely many, a positive answer gives
the exact top generator degree, and a negative answer carries a pumpable
family of them and, when its cycle passes the tail check, an eventually
periodic walk on which no decomposition mechanism fires.
The chain conditions are local: every circuit vertex must have unique
continuation on the relevant side and every circuit edge must be
admissible.
"""

import math
from collections import Counter

from .graph import build_marked_graph, graph_params
from .presentation import Record, format_word
from .walks import (EventuallyPeriodicWalk, WalkAutomaton, is_decomposable,
                     is_dense, validate_walk)

__all__ = [
    "INFINITY",
    "GlobalDimensionResult",
    "FgVerdict",
    "NoetherianVerdict",
    "AnalysisReport",
    "global_dimension",
    "gk_dimension",
    "finitely_generated",
    "noetherian",
    "check_tail_conditions",
    "analyze",
    "report_to_json",
]

INFINITY = math.inf

GLDIM_NOTE = ("convention: an acyclic graph whose longest anchored walk has "
              "length n has cohomology vanishing above degree n+1, so the "
              "global dimension reported is n+1")


def _fmt_dim(v):
    return "infinity" if v == INFINITY else v


def _fmt_edge(e):
    return {"source": format_word(e[0]), "target": format_word(e[1])}


class GlobalDimensionResult(Record):
    value: object          # int or INFINITY
    witness: tuple | None  # longest anchored walk when finite, else a circuit
    note: str = GLDIM_NOTE

    def to_json(self):
        return {
            "value": _fmt_dim(self.value),
            "witness": [format_word(v) for v in self.witness] if self.witness else None,
            "note": self.note,
        }


def global_dimension(g):
    """Infinite on a cyclic graph, witnessed by the circuit of `cyclic[0]`
    from its least vertex, or by None when two circuits share a vertex;
    else n+1, witnessed by a longest anchored walk, of length n."""
    summary = g.cycles
    if summary.has_cycle:
        if summary.shared_vertex:
            return GlobalDimensionResult(INFINITY, None)
        comp = summary.cyclic[0]
        members = set(comp)
        circuit = [comp[0]]
        for _ in comp:    # a simple cycle has one edge per member
            circuit.append(next(t for t in g.out[circuit[-1]] if t in members))
        return GlobalDimensionResult(INFINITY, tuple(circuit))
    # Acyclic, so every SCC is one vertex; sinks come first, so every
    # successor's depth is known before its source's.
    depth, succ = {}, {}
    for (v,) in summary.sccs:
        depth[v], succ[v] = 0, None
        for t in g.out[v]:
            if depth[t] + 1 > depth[v]:
                depth[v], succ[v] = depth[t] + 1, t
    start = max(g.g0, key=depth.get)
    path = [start]
    while succ[path[-1]]:
        path.append(succ[path[-1]])
    return GlobalDimensionResult(len(path), tuple(path))


def gk_dimension(g):
    """Largest number of cycle components any one walk can visit."""
    summary = g.cycles
    if summary.shared_vertex:
        return INFINITY
    cyclic = set(summary.cyclic)
    comp_of = {v: comp for comp in summary.sccs for v in comp}
    best = {}
    for comp in summary.sccs:  # sinks first
        after = max((best[comp_of[t]] for v in comp for t in g.out[v]
                     if comp_of[t] != comp), default=0)
        best[comp] = (1 if comp in cyclic else 0) + after
    return max(best.values(), default=0)


class FgVerdict(Record):
    """The finite generation verdict.  On a yes, `generator_degree_bound`
    is the exact top degree of a generator, an int; on a no,
    `witness_family` is the lasso that certifies it.  `finitely_generated`
    leaves `bound_n` and `witness_circuit` None, and the JSON omits them;
    the test suite's reference premise chain fills them."""
    value: bool
    method: str
    bound_n: int | None = None
    generator_degree_bound: object = None
    witness_walk: tuple | None = None
    witness_circuit: tuple | None = None
    witness_periodic: EventuallyPeriodicWalk | None = None
    witness_family: tuple | None = None

    def to_json(self):
        out = {"value": self.value, "method": self.method}
        if self.generator_degree_bound is not None:
            out["generator_degree_bound"] = self.generator_degree_bound
        witness = {}
        if self.witness_walk is not None:
            witness["indecomposable_walk"] = [format_word(v) for v in self.witness_walk]
        if self.witness_periodic is not None:
            witness["periodic_walk"] = self.witness_periodic.to_json()
        if self.witness_family is not None:
            witness["family"] = {
                part: [format_word(v) for v in path] for part, path in
                zip(("prefix", "cycle", "suffix"), self.witness_family)}
        out["witness"] = witness or None
        return out


def check_tail_conditions(g, w):
    """True when an eventually periodic walk defeats finite generation.

    The tail must contain no dense admissible edge and no two admissible
    edges of opposite index parity.  Positions past the prefix repeat
    with the cycle, so a window of the prefix plus two full turns covers
    every tail edge and both parities of every cycle position.  Raises
    ValueError when the window is not a walk of the graph.
    """
    window = len(w.prefix) - 1 + 2 * w.cycle_length
    vs = validate_walk(g, [w.vertex(i) for i in range(window + 1)])
    adm = [i for i in range(1, window) if g.admissible[(vs[i], vs[i + 1])]]
    if not adm:
        return True
    if any(i % 2 != adm[0] % 2 for i in adm):
        return False
    return not any(is_dense(g, w, i) for i in adm)


def finitely_generated(g, cap=None):
    """Finite generation, read off `WalkAutomaton` on every graph: its
    accepted paths are the indecomposable walks, so the algebra is
    finitely generated exactly when they are finitely many, as on every
    acyclic graph, and then the longest, of length n, puts the top
    generator in degree n+1 exactly.

    Otherwise a cycle runs through the states with an accepted path, and
    the automaton returns it as a lasso (P, C, S): P . C^k . S is an
    accepted path, so an indecomposable walk, for every k >= 0.  This is
    regular-language pumping (Bar-Hillel, Perles and Shamir), and the
    family is the certificate.  The witness walk is P . C . S, and P
    followed by C forever is the periodic witness when it passes the
    tail check.  It has no dense tail edge, since `is_dense` follows the
    partner chain that `_chain_step` would cut on a rejoin and each
    P . C^k . S is a path of the automaton, so the check rejects it only
    on parity: a cycle of odd length with an admissible edge puts
    admissible tail edges at both parities, whether it has one edge or
    several (3 and 7 edges on some two-letter inputs of degree 4).  The
    walk cap bounds the automaton's states.
    """
    found = WalkAutomaton(g, cap).longest_or_lasso()
    if isinstance(found, int):
        return FgVerdict(True, "finitely_many_indecomposables",
                         generator_degree_bound=found + 1)
    prefix, cycle, suffix = found
    walk = prefix + cycle[1:] + suffix[1:]
    assert not (is_decomposable(g, prefix + suffix[1:]) or
                is_decomposable(g, walk)), "pumped lasso paths are accepted"
    periodic = EventuallyPeriodicWalk(prefix, cycle)
    # best effort: the verdict stands on the family alone
    return FgVerdict(False, "infinitely_many_indecomposables",
                     witness_walk=walk, witness_family=found,
                     witness_periodic=periodic
                     if check_tail_conditions(g, periodic) else None)


class NoetherianVerdict(Record):
    side: str
    value: bool
    reason: str
    witness_vertex: tuple | None = None
    witness_edge: tuple | None = None

    def to_json(self):
        out = {"side": self.side, "value": self.value, "reason": self.reason}
        if self.witness_vertex is not None:
            out["witness_vertex"] = format_word(self.witness_vertex)
        if self.witness_edge is not None:
            out["witness_edge"] = _fmt_edge(self.witness_edge)
        return out


def noetherian(g, side):
    """Chain condition on one side: every circuit vertex must continue
    uniquely (out-edges for left, in-edges for right) and every circuit
    edge must be admissible.  The degree test runs first, in the vertex
    order, which names the witness; once it holds, the cycle components
    are simple cycles and their edges enumerable.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    summary = g.cycles
    on_circuit = {v for comp in summary.cyclic for v in comp}
    if not on_circuit:
        return NoetherianVerdict(side, True, "acyclic_graph")
    degree = ({v: len(ts) for v, ts in g.out.items()} if side == "left"
              else Counter(t for _, t in g.admissible))
    for v in g.vertices:
        if v in on_circuit and degree[v] != 1:
            return NoetherianVerdict(side, False, "circuit_vertex_with_branching",
                                     witness_vertex=v)
    assert not summary.shared_vertex, \
        "unique continuation forces simple cycle components"
    for comp in summary.cyclic:
        members = set(comp)
        for s in comp:
            for t in g.out[s]:
                if t in members and not g.admissible[(s, t)]:
                    return NoetherianVerdict(side, False,
                                             "non_admissible_circuit_edge",
                                             witness_edge=(s, t))
    return NoetherianVerdict(side, True, "unique_admissible_circuits")


class AnalysisReport(Record):
    graph: object
    params: object
    gldim: GlobalDimensionResult
    gk_dim: object
    fg: FgVerdict
    noetherian_left: NoetherianVerdict
    noetherian_right: NoetherianVerdict
    notes: tuple


def analyze(presentation, cap=None):
    g = build_marked_graph(presentation)
    params = graph_params(g)
    gldim = global_dimension(g)
    gk = gk_dimension(g)
    fg = finitely_generated(g, cap)
    noeth_l = noetherian(g, "left")
    noeth_r = noetherian(g, "right")

    # cross checks between the decisions
    if noeth_l.value or noeth_r.value:
        assert gk != INFINITY and gk <= 1, "chain conditions force linear growth"
    if gldim.value != INFINITY:
        assert fg.value and fg.generator_degree_bound <= gldim.value, \
            "Ext vanishes above the global dimension, so no generator does"

    notes = [GLDIM_NOTE]
    if params.l_defaulted:
        notes.append("no anchored simple path ends in an admissible edge with "
                     "non-admissible interior; the path bound defaulted to 1")
    if g.cycles.shared_vertex:
        notes.append("circuit enumeration refused: two circuits share a vertex")
    return AnalysisReport(g, params, gldim, gk, fg, noeth_l, noeth_r, tuple(notes))


def report_to_json(report):
    params = report.params
    return {
        "gldim": report.gldim.to_json(),
        "gk_dim": _fmt_dim(report.gk_dim),
        "finitely_generated": report.fg.to_json(),
        "noetherian_left": report.noetherian_left.to_json(),
        "noetherian_right": report.noetherian_right.to_json(),
        "params": {
            "edge_count": params.edge_count,
            "max_edge_class": params.max_edge_class,
            "max_leading_path": params.max_leading_path,
            "bound_N": params.bound_N,
            "weak_bound": params.weak_bound,
        },
        "notes": list(report.notes),
    }
