"""The annihilator graph of a monomial algebra.

Vertices are the generators together with every minimal left-annihilator
word reachable from them; there is an edge m1 -> m2 exactly when m2 is a
minimal left annihilator of m1.  The graph is finite (annihilator words
are shorter than the longest relation) and is built in one search from
the generators, which marks each edge as it adds it: an edge is
admissible when its edge word (target tensor source) is one of the
defining relations.  Walk-level admissibility lives in `walks`.
"""

from collections import Counter
from functools import cached_property
from itertools import repeat

from .monomial import MonomialIdeal, end_state, state_annihilators
from .presentation import Record, format_word

__all__ = [
    "CpsGraph",
    "GraphParams",
    "CircuitSummary",
    "build_marked_graph",
    "graph_params",
    "circuits_and_sccs",
    "export_dot",
    "export_json",
]


class CpsGraph(Record):
    ideal: MonomialIdeal
    vertices: tuple    # letter tuples, sorted by (degree, index sequence)
    g0: tuple          # the degree-1 vertices, always the whole alphabet
    admissible: dict   # edge (s, t) -> whether t + s is a relation; the
                       # keys are the edges, sorted by source, then target
    out: dict          # vertex -> tuple of successors, sorted
    succ: tuple        # succ[i] lists the positions in `vertices` of
                       # out[vertices[i]]: the passes' integer adjacency

    @cached_property
    def cycles(self):
        """The graph's CircuitSummary, computed once on first use."""
        return circuits_and_sccs(self)


def build_marked_graph(ideal):
    """The graph of a MonomialIdeal or a Presentation, every edge marked.

    A worklist adds each new vertex's minimal annihilators as its
    out-edges; it ends since annihilator words are shorter than the
    longest relation.  Each vertex is scanned once, by `end_state`,
    which checks that it is normal.  Past that check its minimal
    annihilators depend only on the state where the scan ends: the
    candidates are the left parts of the relations through the states
    on that state's failure chain, and each minimality scan starts from
    it (see `annihilator_generators`).  So `state_annihilators` runs
    once per distinct end state, and the vertices that share a state
    share its out-list and its `succ` row.

    An edge v -> t is admissible when t tensor v is a relation r.  Then
    rev(v) begins rev(r), so it is itself a state, and the scan of v,
    which ends at the longest state that is a suffix of what it read,
    ends there, at depth len(v); and t = r[:len(r) - len(v)] is a left
    part of a relation through that state, which `state_annihilators`
    flags.  Conversely, when the end state has depth len(v) the
    relations through it are those that end in v, so a flagged t makes
    t tensor v a relation.  So the edges out of v are admissible exactly
    as flagged when the end state has depth len(v), and none is
    otherwise; no edge word is built.

    The vertices are sorted once by `sort_key`, and their ranks order
    the rest.  Every out-neighbour is a vertex and `sort_key` gives
    distinct words distinct keys, so an out-list in rank order is sorted
    by `sort_key`.  `admissible` is filled in vertex order, then in
    out-list order, and a dict keeps insertion order: its keys are the
    edges sorted.
    """
    if not isinstance(ideal, MonomialIdeal):
        ideal = MonomialIdeal(ideal)
    relations = set(ideal.relations)
    depth = ideal.factor_index.depth
    g0 = tuple((name,) for name in ideal.presentation.generator_names)
    # seen maps each word to its first object, so that a word that is an
    # out-neighbour of many vertices is held once
    seen, state_of, annihilators = {m: m for m in g0}, {}, {}
    todo = list(g0)
    while todo:
        m = todo.pop()
        state_of[m] = s = end_state(ideal, m)
        if s not in annihilators:
            annihilators[s] = found = {}
            for w, own in state_annihilators(ideal, s).items():
                first = seen.setdefault(w, w)
                if first is w:
                    todo.append(w)
                found[first] = own
        if len(m) == 1:
            # Edges leaving a generator always straddle a whole relation.
            for w in annihilators[s]:
                assert w + m in relations, \
                    f"generator edge {format_word(m)}->{format_word(w)} must be admissible"

    vertices = tuple(sorted(state_of, key=ideal.sort_key))
    rank = {v: i for i, v in enumerate(vertices)}
    rows, outs, marks = {}, {}, {}
    for s, found in annihilators.items():
        rows[s] = row = sorted(map(rank.__getitem__, found))
        outs[s] = ts = tuple(map(vertices.__getitem__, row))
        marks[s] = tuple(map(found.__getitem__, ts))
    succ, out, admissible = [], {}, {}
    for v in vertices:
        s = state_of[v]
        succ.append(rows[s])
        out[v] = ts = outs[s]
        if ts:
            admissible.update(zip(zip(repeat(v), ts), marks[s] if depth[s] == len(v)
                                  else repeat(False)))
    succ = tuple(succ)
    return CpsGraph(ideal, vertices, g0, admissible, out, succ)


class GraphParams(Record):
    edge_count: int        # script-E, the number of edges
    max_edge_class: int    # M, size of the largest equal-edge-word class
    max_leading_path: int  # L, longest anchored simple path whose last edge
                           # is admissible and whose interior edges are not;
                           # exact, from the merged-state search below
    bound_N: int           # smallest even integer >= 2E(M-1)+L+1
    weak_bound: int        # the cruder 2E^2+E+1 bound, for comparison
    l_defaulted: bool      # no qualifying path existed; L fell back to 1


def graph_params(g):
    """E, M, L and the bounds built from them.

    L is the most edges on a simple path from a generator whose interior
    edges (all but the first and the last) are non-admissible and whose
    last edge is admissible.  Longest simple path is NP-hard, so the
    search is exact over merged states, as in Held & Karp (1962), rather
    than over paths:

    - After its first edge a path at v goes on only along non-admissible
      ("plain") edges and ends with one admissible edge, every vertex
      new.  So all it can still visit lies in rel[v]: v, the vertices
      plain edges reach from v, and their admissible targets.
    - Hence the state (v, visited & rel[v]) decides every continuation,
      and paths that reach one state merge, keeping the most edges.
      rel[t] is inside rel[v] for a plain edge v -> t, so the next state
      is (t, (mask | {t}) & rel[t]).  A state with k edges and an
      admissible edge off its mask ends a path of k + 1 edges; only
      vertices with an admissible out-edge are tested.
    - Each edge s -> t out of a generator, t != s, starts the state
      (t, {s, t} & rel[t]) with 1 edge, and is itself a path of 1 edge
      when admissible.
    - A path never returns to a plain component it has left.  The
      components run sources first, each from the states that enter it,
      and inside one the states step layer by layer, so every state has
      its final count before it steps.  Within a component each step
      adds one member to the mask; a state can recur one layer later
      only when a path's first vertex lies in the component, and is then
      stepped again, which costs time but not exactness.

    The states are kept as one table per vertex, mask -> most edges, so
    a plain edge v -> t steps v's whole table at once.  Two paths that
    reach one state merge into it, so a collision keeps the larger
    count: the state's continuations are the same, and the longer path
    gives the longer extensions.
    """
    e_count = len(g.admissible)
    m = max(Counter(t + s for s, t in g.admissible).values(), default=1)

    succ, vertices = g.succ, g.vertices
    plain = [[] for _ in succ]
    adm = [0] * len(succ)
    for s, ts in enumerate(succ):
        v = vertices[s]
        for t in ts:
            if g.admissible[v, vertices[t]]:
                adm[s] |= 1 << t
            else:
                plain[s].append(t)
    comps = _sccs(plain)
    comp_of, rel = [0] * len(plain), [0] * len(plain)
    for c, comp in enumerate(comps):
        reach = 0
        for v in comp:
            comp_of[v] = c
            reach |= 1 << v | adm[v]
            for t in plain[v]:
                reach |= rel[t]
        for v in comp:
            rel[v] = reach
    # Plain steps as (t, 1 << t), inside v's component or out of it.
    # Inside, rel[t] = rel[v] already holds the mask, so the step is
    # mask | 1 << t.
    inside = [[(t, 1 << t) for t in ts if comp_of[t] == comp_of[v]]
              for v, ts in enumerate(plain)]
    leave = [[(t, 1 << t) for t in ts if comp_of[t] != comp_of[v]]
             for v, ts in enumerate(plain)]

    best = 0
    entry = [{} for _ in succ]
    for i in range(len(g.g0)):    # the generators come first
        for j in succ[i]:
            if j != i:
                if adm[i] >> j & 1:
                    best = 1
                entry[j][(1 << i | 1 << j) & rel[j]] = 1
    for comp in reversed(comps):
        layer = {}
        for v in comp:
            if entry[v]:
                layer[v] = entry[v]
            entry[v] = None
        while layer:
            step = {}
            for v, masks in layer.items():
                exits = adm[v]
                if exits:
                    for mask, k in masks.items():
                        if k >= best and exits & ~mask:
                            best = k + 1
                for t, bit in inside[v]:
                    into = step.get(t)
                    if into is None:
                        new = {mask | bit: k + 1
                               for mask, k in masks.items() if not mask & bit}
                        if new:
                            step[t] = new
                    else:
                        for mask, k in masks.items():
                            if not mask & bit:
                                mask |= bit
                                if into.get(mask, 0) <= k:
                                    into[mask] = k + 1
                for t, bit in leave[v]:
                    into, cut = entry[t], rel[t]
                    for mask, k in masks.items():
                        if not mask & bit:
                            mask = (mask | bit) & cut
                            if into.get(mask, 0) <= k:
                                into[mask] = k + 1
            layer = step

    l_defaulted = best == 0
    l_value = 1 if l_defaulted else best
    raw = 2 * e_count * (m - 1) + l_value + 1
    bound_n = raw if raw % 2 == 0 else raw + 1
    weak = 2 * e_count * e_count + e_count + 1
    return GraphParams(e_count, m, l_value, bound_n, weak, l_defaulted)


class CircuitSummary(Record):
    sccs: tuple           # vertex tuples, each sorted, whole partition, sinks
                          # first: an edge between two components always goes
                          # from a later entry to an earlier one
    cyclic: tuple         # the SCCs that carry a cycle (size > 1 or a
                          # self-loop), ordered by (size, least vertex); the
                          # order picks the circuit and edge a verdict names
    shared_vertex: bool   # some cyclic SCC is not a simple cycle, so two
                          # circuits meet and no one circuit is named

    @property
    def has_cycle(self):
        return bool(self.cyclic)


def _sccs(succ):
    """Strongly connected components of the digraph on the positions
    0 ... len(succ) - 1 with out-neighbour lists succ, sinks first
    (Kosaraju).

    Pass 1 lists the vertices in depth-first finish order.  Pass 2
    sweeps the reversed edges from each unswept vertex, latest finish
    first; the sweeps find the components sources first, hence the
    final reversal.
    """
    n = len(succ)
    finished, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, succs = stack[-1]
            for t in succs:
                if not seen[t]:
                    seen[t] = True
                    stack.append((t, iter(succ[t])))
                    break
            else:
                stack.pop()
                finished.append(v)
    back = [[] for _ in range(n)]
    for v, ts in enumerate(succ):
        for t in ts:
            back[t].append(v)
    sccs, assigned = [], [False] * n
    for root in reversed(finished):
        if assigned[root]:
            continue
        assigned[root] = True
        comp, todo = [], [root]
        while todo:
            v = todo.pop()
            comp.append(v)
            for s in back[v]:
                if not assigned[s]:
                    assigned[s] = True
                    todo.append(s)
        sccs.append(comp)
    return sccs[::-1]


def circuits_and_sccs(g):
    """SCC partition, its cyclic components and the shared-vertex flag.

    The pass runs over positions in `g.vertices` (`g.succ`), which follow
    the vertex order, so sorting positions sorts vertices; the words are
    put back only in the summary.  shared_vertex is true when some cyclic
    component is not a simple cycle; two distinct circuits then meet at
    a vertex and the circuit count may be exponential, so no circuit is
    named (flagged, not raised).  A cyclic component is a simple cycle
    exactly when each member has one out-neighbour inside it: the members
    then carry as many inner edges as there are members, and each has an
    inner in-edge, the component being strongly connected, so each has
    exactly one.  `_sccs` lists each component after every component it
    reaches, which gives `sccs` its sinks-first order.
    """
    succ, vertices = g.succ, g.vertices
    sccs = [sorted(c) for c in _sccs(succ)]
    cyclic = sorted((c for c in sccs if len(c) > 1 or c[0] in succ[c[0]]),
                    key=lambda c: (len(c), c[0]))

    shared = any(sum(1 for t in succ[v] if t in members) != 1
                 for members in map(set, cyclic) for v in members)

    def words(groups):
        return tuple(tuple(vertices[i] for i in c) for c in groups)

    return CircuitSummary(words(sccs), words(cyclic), shared)


def _dot_id(v):
    """A vertex as a quoted DOT identifier, `\\` and `"` escaped."""
    word = format_word(v).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{word}"'


def export_dot(g):
    lines = ["digraph annihilator_graph {"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v)};")
    for (s, t), adm in g.admissible.items():
        style = "solid" if adm else "dashed"
        lines.append(f"  {_dot_id(s)} -> {_dot_id(t)} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g):
    return {
        "vertices": [
            {"word": format_word(v), "degree": len(v), "in_g0": len(v) == 1}
            for v in g.vertices
        ],
        "edges": [
            {
                "source": format_word(s),
                "target": format_word(t),
                "word": format_word(t + s),
                "admissible": adm,
            }
            for (s, t), adm in g.admissible.items()
        ],
    }
