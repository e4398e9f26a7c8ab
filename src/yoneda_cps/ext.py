"""The cohomology algebra presented by anchored walks.

Anchored walks of length n form a basis of the cohomological degree
n+1 part; the internal degree is the total letter count of the walk's
vertices.  Products are computed combinatorially: the parse of the left
factor's word continues from the right factor's last vertex along the
graph's edges, and the product walk is the right factor followed by
what it parses.

The Hilbert series is read off the walk counts in integer arithmetic,
counted on the graph's quotient by the partition of its vertices by
out-list, which is out-equitable: its denominator is their shortest
linear recurrence, with constant term 1 by Fatou's lemma, and its
numerator the leading terms of one polynomial product.  That partition
is nearly as coarse as the coarsest out-equitable one on random input
and much finer on relabelled copies of one presentation, which the
coarsest one merges.
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

    The two assertions read the parsed tail alone.  The product's
    word is the tail's word followed by q's, so it is p's word followed
    by q's exactly when the tail's word is p's; the cohomological
    degrees add exactly when the tail has as many vertices as p's walk,
    a class's cohomological degree being its vertex count.  The
    internal degree is the letter count, so the word assertion already
    makes the internal degrees add.
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
    """The partition of g's vertices by their out-lists, as the quotient
    digraph that counts walks: its classes are the distinct rows of
    `g.succ`.  Members of one class have the same out-neighbours, so
    each has as many out-neighbours in each class as any other, and the
    partition is out-equitable.  The vertices that share an automaton
    end state share one row (`build_marked_graph`), so a class holds
    all the vertices of each end state it meets, and one pass over the
    rows finds the classes.

    It is nearly as coarse as the coarsest out-equitable partition
    (1,412 classes against 1,314 over the benchmark pool), whose colour
    refinement costs more than its fewer classes save.  It is much
    finer where the coarsest one merges isomorphic pieces: ten copies
    of `sklyanin_leading` on disjoint letters have 40 classes, ten
    times one copy's 4, where the coarsest partition has 3.  It never
    has more classes than the graph has vertices.

    Returns (colour, succ, starts): colour[v] is the class of
    g.vertices[v], succ[c] lists the class of each out-neighbour of the
    members of class c, with multiplicity, and starts[c] counts the
    generators in c."""
    classes = {}    # row -> class, in order of first appearance
    colour = [classes.setdefault(tuple(ts), len(classes)) for ts in g.succ]
    succ = [[colour[t] for t in ts] for ts in classes]
    starts = [0] * len(succ)
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
    4.7).  The walks are counted on the quotient by an out-equitable
    partition, the vertices' partition by out-list, of k classes
    (`_quotient`; much finer than the coarsest one on relabelled copies
    of one presentation, never more classes than vertices): its class
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
