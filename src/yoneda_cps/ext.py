"""The cohomology algebra presented by anchored walks.

Anchored walks of length n form a basis of the cohomological degree
n+1 part; the internal degree is the total letter count of the walk's
vertices.  Products are computed combinatorially: the parse of the left
factor's word continues from the right factor's last vertex along the
graph's edges, and the product walk is the right factor followed by
what it parses.

The Hilbert series is read off the walk counts in integer arithmetic:
its denominator is their shortest linear recurrence, with constant term
1 by Fatou's lemma, and its numerator one polynomial product.
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
    """
    if not isinstance(p, ExtClass):
        p = ext_class(g, p)
    if not isinstance(q, ExtClass):
        q = ext_class(g, q)
    word_p = word_of(p.walk)
    q_vs = q.walk.vertices
    parsed = greedy_parse(g, word_p, p.walk.length, after=q_vs[-1])
    if parsed is None:
        return None
    product = q_vs + parsed
    result = ExtClass(AnchoredWalk(product))
    assert word_of(product) == word_p + word_of(q_vs), \
        "product word must be the concatenation of the factor words"
    assert result.cohomological_degree == p.cohomological_degree + q.cohomological_degree
    assert result.internal_degree == p.internal_degree + q.internal_degree
    return result


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


def _walk_counts(g, length):
    """The first `length` coefficients of 1 + sum_k w_k y^(k+1), where
    w_k counts the walks of k edges that start at a generator."""
    succ = g.succ
    counts = [int(len(v) == 1) for v in g.vertices]    # the generators
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

    Length-k walks are entries of the k-th power of the adjacency
    matrix A, so the series is H = 1 + y u (I - yA)^(-1) 1 with u the
    generator-row indicator (the transfer-matrix method).  By Cramer's
    rule H = (det(I - yA) - y B) / det(I - yA), where B is the
    determinant of I - yA bordered by a column of ones and the row u
    with a zero corner.  Each term of B takes one constant from the
    border row and another from the border column, so y B, like
    det(I - yA), has degree at most n, the vertex count.  Ordered by
    strongly connected components, I - yA is block triangular, and a
    component with no cycle is a block (1); so det(I - yA) has degree
    at most n_cyc, the vertex count of the cyclic components (Stanley,
    EC1 4.7).

    So H = N / D in lowest terms with deg N <= n, deg D <= n_cyc and
    D(0) != 0, D dividing det(I - yA).  If P is H truncated to degree n,
    then D (H - P) = N - D P is divisible by y^(n+1) and has degree at
    most n + deg D, so the tail y^-(n+1) (H - P) is M / D with
    deg M < deg D; and M is coprime to D, since a common factor would
    divide N.  The shortest recurrence of the tail is therefore D itself,
    of length deg D <= n_cyc, and 2 n_cyc terms of the tail determine it
    (Massey 1969): none on an acyclic graph, where D = 1.  H has integer
    coefficients, so by Fatou's lemma D is integral once D(0) = 1; being
    primitive, it is then the recurrence exactly as shortest_recurrence
    returns it, and N = D H truncated to degree n is integral too.  This
    is the normal form the CLI prints: lowest terms, denominator with
    constant term 1.  Any other constant term would be an internal
    invariant violation.
    """
    from .ratfun import RationalFunction, poly_mul, shortest_recurrence, trim
    n = len(g.vertices)
    n_cyc = sum(len(c) for c in g.cycles.cyclic)
    h = _walk_counts(g, n + 1 + 2 * n_cyc)
    den = shortest_recurrence(h[n + 1:])
    assert den[0] == 1, \
        "the reduced denominator of an integer series must be integral"
    num = trim(poly_mul(den, h)[: n + 1])
    return RationalFunction(tuple(num), tuple(den))
