"""The cohomology algebra presented by anchored walks.

Anchored walks of length n form a basis of the cohomological degree
n+1 part; the internal degree is the total letter count of the walk's
vertices.  Products are computed combinatorially: the parse of the left
factor's word continues from the right factor's last vertex along the
graph's edges, and the product walk is the right factor followed by
what it parses.

The Hilbert series is read off the walk counts in integer arithmetic,
counted on the graph's coarsest out-equitable quotient: its denominator
is their shortest linear recurrence, with constant term 1 by Fatou's
lemma, and its numerator the leading terms of one polynomial product.
"""

from .presentation import Record
from .walks import (AnchoredWalk, WalkAutomaton, canonical_anchored,
                    display_walk, greedy_parse, validate_walk, word_of)

__all__ = [
    "ExtClass",
    "BigradedTable",
    "ext_class",
    "yoneda_mul",
    "generators_up_to",
    "poincare_table",
    "hilbert_series",
]


class ExtClass(Record):
    walk: AnchoredWalk

    @property
    def cohomological_degree(self):
        return self.walk.cohomological_degree

    @property
    def internal_degree(self):
        return self.walk.internal_degree

    def to_json(self):
        return {
            "walk": display_walk(self.walk),
            "i": self.cohomological_degree,
            "j": self.internal_degree,
        }


def ext_class(g, w):
    """The basis class of an admissible walk, via its anchored partner."""
    vs = validate_walk(g, w)
    canon = canonical_anchored(g, vs)
    if canon is None:
        raise ValueError("walk is not admissible, so it represents no class")
    return ExtClass(AnchoredWalk(canon))


def yoneda_mul(g, p, q):
    """Product (class of p) * (class of q); None encodes zero.

    The product is q's walk followed by the walk that parses p's word
    after q's last vertex v, so its word is the two words concatenated
    (Green and Zacharia).  One parse continued from v finds it, and its
    steps read the graph, not the ideal: each takes the out-neighbour of
    the previous vertex, a minimal annihilator of it, that ends the
    unread part of p's word.  No minimal annihilator of v is a proper
    suffix of another, so at most one of them ends p's word: the vertex
    after v is forced, and when no edge out of v fits, the product is
    zero.

    The three assertions read the parsed tail alone.  The product's
    word is the tail's word followed by q's, so it is p's word followed
    by q's exactly when the tail's word is p's; the degrees add exactly
    when the tail has as many vertices as p's walk and as many letters
    as p's word, since a class's cohomological degree is its vertex
    count and its internal degree its letter count.
    """
    if not isinstance(p, ExtClass):
        p = ext_class(g, p)
    if not isinstance(q, ExtClass):
        q = ext_class(g, q)
    word_p = p.walk.word
    q_vs = q.walk.vertices
    parsed = greedy_parse(g, word_p, p.walk.length, after=q_vs[-1])
    if parsed is None:
        return None
    assert word_of(parsed) == word_p, \
        "product word must be the concatenation of the factor words"
    assert len(parsed) == len(p.walk.vertices), \
        "cohomological degrees must add"
    assert sum(map(len, parsed)) == len(word_p), "internal degrees must add"
    return ExtClass(AnchoredWalk(q_vs + parsed))


def generators_up_to(g, max_cohomological_degree):
    """Indecomposable basis classes of degree <= the bound, by degree:
    the generators, then the accepted walks of `WalkAutomaton`, the
    automaton whose language also decides finite generation."""
    if max_cohomological_degree < 1:
        return []
    walks = [(v,) for v in g.g0]
    if max_cohomological_degree > 1:
        found = WalkAutomaton(g).accepted(range(1, max_cohomological_degree))
        walks += sorted(found, key=len)
    return [ExtClass(AnchoredWalk(w)) for w in walks]


class BigradedTable(Record):
    entries: dict  # (cohomological, internal) -> dimension, zeros omitted
    truncation: int

    def to_json(self):
        return {
            "truncation": self.truncation,
            "entries": [
                {"i": i, "j": j, "dim": d}
                for (i, j), d in sorted(self.entries.items())
            ],
        }


def poincare_table(g, max_i, cap=None):
    """Bigraded dimensions dim Ext^(i,j) for i <= max_i.

    dim Ext^(i,j) counts the anchored walks of i - 1 edges whose
    vertices hold j letters in all.  A layer DP counts them without
    building one, the bigraded sibling of _walk_counts: layer i maps
    each vertex to {internal degree: walks ending there}.  So `cap`
    no longer binds; it is accepted and ignored.
    """
    entries = {(0, 0): 1}
    layer = {v: {1: 1} for v in g.g0}
    for i in range(1, max_i + 1):
        step = {}
        for v, by_j in layer.items():
            for j, c in by_j.items():
                entries[i, j] = entries.get((i, j), 0) + c
            if i < max_i:
                for t in g.out[v]:
                    into = step.setdefault(t, {})
                    for j, c in by_j.items():
                        into[j + len(t)] = into.get(j + len(t), 0) + c
        layer = step
    return BigradedTable(entries, max_i)


def _quotient(g):
    """The coarsest out-equitable partition of g's vertices, as the
    quotient digraph that counts walks: colour refinement over `g.succ`.
    A vertex's next colour is its colour and the sorted colours of its
    out-neighbours, and refinement stops once a round splits no class:
    every class then holds vertices with the same number of
    out-neighbours in each class.

    A round recomputes the sorted colours only for the in-neighbours of
    the vertices recoloured in the round before.  The other members of
    a class still share theirs, which no recomputed one equals, since
    each of those has an out-neighbour of a colour new in that round.
    So a class splits into its untouched members and its touched ones
    grouped by sorted colours.  The largest of these parts keeps the
    class's colour and each other part takes a new one, so a vertex is
    recoloured only into a class at most half its old one's size
    (Hopcroft 1971; Paige & Tarjan 1987), and a long path costs a few
    vertices a round, not all of them.

    Returns (colour, succ, starts): colour[v] is the class of
    g.vertices[v], succ[c] lists the class of each out-neighbour of one
    member of class c, with multiplicity, and starts[c] counts the
    generators in c."""
    pred = [[] for _ in g.succ]
    for v, ts in enumerate(g.succ):
        for t in ts:
            pred[t].append(v)
    colour, members = [0] * len(g.succ), [set(range(len(g.succ)))]
    recoloured = range(len(g.succ))    # the start: every colour is new
    while recoloured:
        groups = {}    # class -> sorted colours -> touched members
        for v in {s for t in recoloured for s in pred[t]}:
            key = tuple(sorted([colour[t] for t in g.succ[v]]))
            groups.setdefault(colour[v], {}).setdefault(key, []).append(v)
        recoloured = []
        for c, by_key in groups.items():
            parts = sorted(by_key.values(), key=len)
            if len(members[c]) - sum(map(len, parts)) < len(parts[-1]):
                keep = set(parts.pop())    # the untouched members move
                rest = members[c] - keep
                rest.difference_update(*parts)
                members[c] = keep
                if rest:
                    parts.append(rest)
            else:
                members[c].difference_update(*parts)
            for part in parts:
                for v in part:
                    colour[v] = len(members)
                members.append(set(part))
                recoloured += part
    succ, starts = [None] * len(members), [0] * len(members)
    for v, ts in enumerate(g.succ):
        if succ[colour[v]] is None:
            succ[colour[v]] = [colour[t] for t in ts]
    for v in range(len(g.g0)):    # the generators come first
        starts[colour[v]] += 1
    return colour, succ, starts


def _walk_counts(succ, starts, length):
    """The first `length` coefficients of 1 + sum_k w_k y^(k+1), where
    w_k counts the walks of k edges on the digraph `succ` that start at
    a vertex v, each counted starts[v] times."""
    counts = list(starts)
    h = [1]
    while len(h) < length and any(counts):
        h.append(sum(counts))
        step = [0] * len(succ)
        for v, c in enumerate(counts):
            if c:
                for t in succ[v]:
                    step[t] += c
        counts = step
    return h + [0] * (length - len(h))


def hilbert_series(g):
    """Exact Hilbert series of the cohomology algebra in one variable.

    Length-j walks are entries of the j-th power of the adjacency
    matrix A, so the series is H = 1 + y u (I - yA)^(-1) 1 with u the
    generator-row indicator (the transfer-matrix method, Stanley, EC1
    4.7).  The walks are counted on the quotient by the coarsest
    out-equitable partition, of k classes (`_quotient`): its class
    matrix P and quotient matrix B satisfy A P = P B, so A^j 1 =
    P B^j 1, and with s = u P the generator count per class, H =
    1 + y s (I - yB)^(-1) 1 (Godsil & Royle, Algebraic Graph Theory,
    9.3).  By Cramer's rule H = (det(I - yB) - y C) / det(I - yB),
    where C is the determinant of I - yB bordered by a column of ones
    and the row s with a zero corner.  So:

    - h_j = s B^j 1, and each term of C takes one constant from each
      border, so y C, like det(I - yB), has degree at most k, and
      deg N <= k.
    - I - yB is block triangular over the quotient's strongly connected
      components, and a component with no cycle is a block (1); so
      det(I - yB) has degree at most k_cyc, the class count of the
      quotient's cyclic components, and deg D <= k_cyc.
    - Every class on a quotient cycle holds a vertex on a graph cycle:
      each member of a class on it has an out-neighbour in the next
      class, so a walk from a member follows the quotient cycle for
      ever, and between two visits to one vertex it passes every class
      of that cycle.  So k_cyc <= n_cyc, the vertex count of the
      graph's cyclic components, and the k + 1 + 2 k_cyc terms asked
      for never exceed the n + 1 + 2 n_cyc of the whole graph.

    So H = N / D in lowest terms with deg N <= k, deg D <= k_cyc and
    D(0) != 0, D dividing det(I - yB).  If T is H truncated to degree
    k, then D (H - T) = N - D T is divisible by y^(k+1) and has degree
    at most k + deg D, so the tail y^-(k+1) (H - T) is M / D with
    deg M < deg D; and M is coprime to D, since a common factor would
    divide N.  The shortest recurrence of the tail is therefore D itself,
    of length deg D <= k_cyc, and 2 k_cyc terms of the tail determine it
    (Massey 1969): none on an acyclic quotient, where D = 1.  H has
    integer coefficients, so by Fatou's lemma D is integral once
    D(0) = 1; being primitive, it is then the recurrence exactly as
    shortest_recurrence returns it, and N = D H truncated to degree k
    is integral too.  This is the normal form the CLI prints: lowest
    terms, denominator with constant term 1, unique, so it does not
    depend on the partition.  Any other constant term would be an
    internal invariant violation.
    """
    from .graph import _sccs
    from .ratfun import RationalFunction, shortest_recurrence, trim
    _, succ, starts = _quotient(g)
    k = len(succ)
    k_cyc = sum(len(c) for c in _sccs(succ)
                if len(c) > 1 or c[0] in succ[c[0]])
    h = _walk_counts(succ, starts, k + 1 + 2 * k_cyc)
    den = shortest_recurrence(h[k + 1:])
    assert den[0] == 1, \
        "the reduced denominator of an integer series must be integral"
    num = trim(sum(den[i] * h[j - i] for i in range(min(j + 1, len(den))))
               for j in range(k + 1))
    return RationalFunction(tuple(num), tuple(den))
