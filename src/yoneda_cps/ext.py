"""The cohomology algebra presented by anchored walks.

Anchored walks of length n form a basis of the cohomological degree
n+1 part; the internal degree is the total letter count of the walk's
vertices.  Products are computed combinatorially: the class of the left
factor restarts its parse seeded with an annihilator of the right
factor's last vertex, and at most one seed can succeed.
"""

from dataclasses import dataclass

from .monomial import annihilator_generators
from .ratfun import bareiss_det, make_rational, poly_sub, poly_mul
from .walks import (AnchoredWalk, canonical_anchored, display_walk,
                    enumerate_anchored, greedy_parse, is_decomposable,
                    validate_walk, word_of)

__all__ = [
    "ExtClass",
    "BigradedTable",
    "ext_class",
    "yoneda_mul",
    "generators_up_to",
    "poincare_table",
    "hilbert_series",
]


@dataclass(frozen=True)
class ExtClass:
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

    Nonzero products re-parse the left word seeded with an annihilator
    of the right walk's last vertex; the seed must be a suffix of the
    left word and the parse must consume it exactly.  At most one seed
    can succeed, and the product word is the two words concatenated.
    """
    if not isinstance(p, ExtClass):
        p = ext_class(g, p)
    if not isinstance(q, ExtClass):
        q = ext_class(g, q)
    ideal = g.ideal
    word_p = word_of(p.walk)
    steps = p.walk.length
    q_vs = q.walk.vertices
    q_end = q_vs[-1]
    hits = []
    for seed in annihilator_generators(ideal, q_end):
        parsed = greedy_parse(ideal, word_p, steps, seed=seed)
        if parsed is not None:
            hits.append(parsed)
    assert len(hits) <= 1, "a product can have at most one surviving seed"
    if not hits:
        return None
    product = q_vs + hits[0]
    result = ExtClass(AnchoredWalk(product))
    assert word_of(product) == word_p + word_of(q_vs), \
        "product word must be the concatenation of the factor words"
    assert result.cohomological_degree == p.cohomological_degree + q.cohomological_degree
    assert result.internal_degree == p.internal_degree + q.internal_degree
    return result


def generators_up_to(g, max_cohomological_degree, cap=None):
    """Indecomposable basis classes with degree <= the bound.

    Degree 1 classes (single generators) are always indecomposable;
    higher ones survive when no proper suffix walk is admissible.
    """
    out = []
    for w in enumerate_anchored(g, max_cohomological_degree - 1, cap):
        if w.length == 0 or not is_decomposable(g, w):
            out.append(ExtClass(w))
    return out


@dataclass(frozen=True)
class BigradedTable:
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
    """Bigraded dimensions dim Ext^(i,j) for i <= max_i."""
    entries = {(0, 0): 1}
    for w in enumerate_anchored(g, max_i - 1, cap):
        key = (w.cohomological_degree, w.internal_degree)
        entries[key] = entries.get(key, 0) + 1
    return BigradedTable(entries, max_i)


def hilbert_series(g):
    """Exact Hilbert series of the cohomology algebra in one variable.

    Length-n walks are entries of the n-th power of the adjacency
    matrix, so the generating function is 1 + y u (I - yA)^(-1) 1 with
    u the generator-row indicator; the inner product is evaluated as a
    ratio of two determinants via a bordered matrix.
    """
    vs = list(g.vertices)
    n = len(vs)
    pos = {v: i for i, v in enumerate(vs)}
    m = [[[] for _ in range(n + 1)] for _ in range(n + 1)]
    for i, v in enumerate(vs):
        m[i][i] = [1]
        for t in g.out[v]:
            j = pos[t]
            base = m[i][j]
            m[i][j] = poly_sub(base, [0, 1])
        m[i][n] = [1]                      # column of ones
    for i, v in enumerate(vs):
        m[n][i] = [1] if len(v) == 1 else []
    m[n][n] = []
    det_m = bareiss_det([row[:n] for row in m[:n]])
    det_b = bareiss_det(m)
    num = poly_sub(det_m, poly_mul([0, 1], det_b))
    return make_rational(num, det_m)
