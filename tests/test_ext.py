import random

import pytest

from conftest import ALL, W, graph
from propcore import (bareiss_det, bordered_hilbert_series, census,
                      poly_divexact, product_mismatches, random_presentation,
                      reference_quotient, reference_quotient_cyclic,
                      reference_sccs, reference_walk_counts,
                      table_of_anchored, transfer_matrix)
from yoneda_cps import ext
from yoneda_cps.ext import (ext_class, generators_up_to, hilbert_series,
                            poincare_table, yoneda_mul)
from yoneda_cps.graph import build_marked_graph
from yoneda_cps.monomial import MonomialIdeal
from yoneda_cps.presentation import make_presentation
from yoneda_cps.walks import WalkCapExceeded, enumerate_anchored


def cls(name, *words):
    return ext_class(graph(name), W(*words))


def test_ext_class_fields():
    c = cls("abc_cdab", "b", "cda")
    assert c.walk.vertices == W("b", "cda")
    assert c.cohomological_degree == 2
    assert c.internal_degree == 4
    assert c.to_json() == {"walk": ["b", "cda"], "i": 2, "j": 4}


def test_ext_class_rejects_inadmissible():
    g = graph("abc_cdab")
    with pytest.raises(ValueError):
        ext_class(g, W("cd", "ab"))


def test_ext_class_canonicalizes():
    c = cls("abc_cdab", "ab", "cd")
    assert c.walk.vertices == W("b", "cda")


def test_product_with_a_generator():
    g = graph("abc_cdab")
    got = yoneda_mul(g, cls("abc_cdab", "b", "cda"), cls("abc_cdab", "c"))
    assert got.walk.vertices == W("c", "ab", "cd")
    assert got.cohomological_degree == 3
    assert got.internal_degree == 5


def test_product_zero():
    g = graph("abc_cdab")
    left = cls("abc_cdab", "ab", "cd")     # canonical form b -> cda
    right = cls("abc_cdab", "c", "ab")
    assert yoneda_mul(g, left, right) is None


def test_product_square_of_a_two_step_class():
    g = graph("abc_cdab")
    c = cls("abc_cdab", "b", "cda")
    got = yoneda_mul(g, c, c)
    assert got.walk.vertices == W("b", "cda", "ab", "cd")


def test_products_match_the_seed_search():
    """yoneda_mul against the seeded parses of `reference_product`, on
    every pair of anchored classes of length <= 4 on the fixtures and
    of length <= 3 on 300 random draws."""
    cases = [(graph(name), 4) for name in ALL]
    rng = random.Random(7)
    cases += [(build_marked_graph(MonomialIdeal(random_presentation(rng))), 3)
              for _ in range(300)]
    nonzero = 0
    for g, max_length in cases:
        count, misses = product_mismatches(g, max_length)
        assert misses == [], (g.ideal.relations, misses[:3])
        nonzero += count
    assert nonzero > 1000


def test_product_assertions_check_the_parsed_tail(monkeypatch):
    """yoneda_mul's assertions on the parsed tail still fire: a tail
    with one vertex swapped for another of the same length, a tail one
    vertex short, and a tail with an empty vertex added, whose word and
    letter count are right but whose vertex count is not."""
    g = graph("abc_cdab")
    p, q = cls("abc_cdab", "b", "cda"), cls("abc_cdab", "c")
    tail = yoneda_mul(g, p, q).walk.vertices[len(q.walk.vertices):]
    assert tail == W("ab", "cd")
    other = next(v for v in g.vertices
                 if len(v) == len(tail[0]) and v != tail[0])
    for wrong, message in (((other,) + tail[1:], "concatenation"),
                           (tail[:-1], "concatenation"),
                           (tail + ((),), "cohomological degrees")):
        monkeypatch.setattr(ext, "greedy_parse",
                            lambda *args, wrong=wrong, **kwargs: wrong)
        with pytest.raises(AssertionError, match=message):
            yoneda_mul(g, p, q)


def test_product_grading_is_additive():
    g = graph("abc_cdab")
    classes = [ext_class(g, w.vertices) for w in enumerate_anchored(g, 4)]
    for p in classes:
        for q in classes:
            got = yoneda_mul(g, p, q)
            if got is None:
                continue
            assert got.cohomological_degree == \
                p.cohomological_degree + q.cohomological_degree
            assert got.internal_degree == p.internal_degree + q.internal_degree


def test_identity_like_degree_zero():
    # no degree-0 class exists in this model; products start at generators
    g = graph("x_square")
    x = ext_class(g, W("x"))
    got = yoneda_mul(g, x, x)
    assert got.walk.vertices == W("x", "x")
    assert (got.cohomological_degree, got.internal_degree) == (2, 2)


def test_generators_up_to_known_list():
    g = graph("abc_cdab")
    out = [(c.cohomological_degree, display(c)) for c in generators_up_to(g, 6)]
    assert out == [
        (1, ["a"]), (1, ["b"]), (1, ["c"]), (1, ["d"]),
        (2, ["b", "cda"]), (2, ["c", "ab"]),
        (3, ["b", "cda", "ab"]),
    ]


def display(c):
    return ["".join(v) for v in c.walk.vertices]


def test_generators_enlarged_example_keep_appearing():
    """New indecomposable classes appear at every even degree here."""
    g = graph("abc_cdab_bcda")
    out = generators_up_to(g, 8)
    per_degree = {}
    for c in out:
        per_degree[c.cohomological_degree] = per_degree.get(c.cohomological_degree, 0) + 1
    assert per_degree == {1: 4, 2: 3, 4: 1, 6: 1, 8: 1}


def test_generators_up_to_honors_the_walk_cap(monkeypatch):
    monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", "10")
    with pytest.raises(WalkCapExceeded):
        generators_up_to(graph("sklyanin_leading"), 11)


def test_poincare_table_first_example():
    table = poincare_table(graph("abc_cdab"), 8)
    expect = {(0, 0): 1, (1, 1): 4}
    for i in range(2, 9):
        expect[(i, 2 * i - 1)] = 1
        expect[(i, 2 * i)] = 1
    assert table.entries == expect
    assert table.to_json() == {
        "truncation": 8,
        "entries": [{"i": i, "j": j, "dim": d}
                    for (i, j), d in sorted(expect.items())],
    }


def test_hilbert_series_first_example():
    h = hilbert_series(graph("abc_cdab"))
    assert str(h) == "(1 + 3*y - 2*y^2) / (1 - y)"
    assert h.series(12) == [1, 4] + [2] * 11


def test_hilbert_series_enlarged_example():
    h = hilbert_series(graph("abc_cdab_bcda"))
    assert str(h) == "(1 + 3*y - y^2) / (1 - y)"
    assert h.series(6) == [1, 4, 3, 3, 3, 3, 3]


def test_hilbert_series_polynomial_case():
    h = hilbert_series(graph("xy_single"))
    assert str(h) == "1 + 2*y + y^2"
    assert h.series(5) == [1, 2, 1, 0, 0, 0]


def test_poincare_table_matches_anchored_walks_on_every_fixture():
    for name in ALL:
        g = graph(name)
        for max_i in (0, 1, 9):
            walks = (w.vertices for w in enumerate_anchored(g, max_i - 1))
            table = poincare_table(g, max_i)
            assert table.entries == table_of_anchored(walks), (name, max_i)
            assert table.truncation == max_i


def test_poincare_table_ignores_the_walk_cap(monkeypatch):
    monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", "10")
    g = graph("sklyanin_leading")
    with pytest.raises(WalkCapExceeded):
        list(enumerate_anchored(g, 3))
    table = poincare_table(g, 16)
    by_i = [0] * 17
    for (i, _), d in table.entries.items():
        by_i[i] += d
    assert by_i == hilbert_series(g).series(16)


def test_hilbert_series_matches_table_on_every_fixture():
    for name in ("x_square", "xy_single", "abc_cdab", "abc_cdab_bcda",
                 "x2y_family", "two_chain_overlap", "sklyanin_leading"):
        g = graph(name)
        coeffs = hilbert_series(g).series(40)
        table = poincare_table(g, 40)
        by_i = {}
        for (i, _), d in table.entries.items():
            by_i[i] = by_i.get(i, 0) + d
        assert coeffs == [by_i.get(i, 0) for i in range(41)], name


def test_series_json_shape():
    out = hilbert_series(graph("abc_cdab")).to_json()
    assert out == {"numerator": [1, 3, -2], "denominator": [1, -1]}


def _graphs_with_long_cycles(count=40, seed=5):
    """Derandomized draws whose graph has a cyclic SCC of 3 or more
    vertices, where the denominator has a large determinant to divide."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        p = random_presentation(rng, max_gens=4, max_relations=6, max_degree=5)
        g = build_marked_graph(MonomialIdeal(p))
        if any(len(c) >= 3 for c in g.cycles.cyclic):
            found.append(g)
    return found


def _seeded_graphs(count=300, seed=9):
    rng = random.Random(seed)
    return [build_marked_graph(MonomialIdeal(random_presentation(
                rng, max_gens=4, max_relations=6, max_degree=5)))
            for _ in range(count)]


def _relabelled_copies(name, count):
    """The graph of `count` copies of fixture `name` on disjoint
    letters: isomorphic pieces, which the coarsest out-equitable
    partition merges and the out-list partition keeps apart."""
    g = graph(name)
    names = g.ideal.presentation.generator_names
    return build_marked_graph(MonomialIdeal(make_presentation(
        [f"{a}{i}" for i in range(count) for a in names],
        [tuple(f"{a}{i}" for a in r)
         for i in range(count) for r in g.ideal.relations])))


def test_hilbert_series_matches_bordered_reference():
    copies = _relabelled_copies("sklyanin_leading", 4)
    # 4 copies of 4 out-lists each, where the coarsest partition has 3
    assert len(ext._quotient(copies)[1]) == 16
    assert len(reference_quotient(copies)) == 3
    reduced = 0
    for g in ([graph(name) for name in ALL] + [copies]
              + _graphs_with_long_cycles() + _seeded_graphs()):
        got, expect = hilbert_series(g), bordered_hilbert_series(g)
        assert got.to_json() == expect.to_json(), g.ideal.relations
        assert str(got) == str(expect), g.ideal.relations
        det = bareiss_det(transfer_matrix(g))
        poly_divexact(det, got.denominator)  # asserts D | det(I - yA)
        assert got.denominator[0] == 1, g.ideal.relations
        reduced += len(got.denominator) < len(det)
    # some input must cancel a common factor of det(I - yA) and B
    assert reduced > 0


def _n_cyc(g):
    """The vertex count of g's cyclic components, read off the mutual
    reachability classes."""
    return sum(len(c) for c in reference_sccs(g)
               if len(c) > 1 or any(v in g.out[v] for v in c))


def _out_list_classes(g):
    """The partition of g's vertices by equal rows of `g.succ`, as a
    set of frozensets of vertex tuples."""
    classes = {}
    for v, ts in zip(g.vertices, g.succ):
        classes.setdefault(tuple(ts), set()).add(v)
    return {frozenset(c) for c in classes.values()}


def test_hilbert_series_asks_for_k_plus_1_plus_2_k_cyc_terms(monkeypatch):
    """deg N <= k and deg D <= k_cyc, the class counts of the out-list
    quotient and of its cyclic components, so the series needs the
    counts up to degree k and 2 k_cyc more: never more than the
    n + 1 + 2 n_cyc of the whole graph."""
    asked = []
    counts = ext._walk_counts

    def spy(succ, starts, length):
        asked.append(length)
        return counts(succ, starts, length)

    monkeypatch.setattr(ext, "_walk_counts", spy)
    acyclic = fewer = 0
    for g in ([graph(name) for name in ALL] + _graphs_with_long_cycles()
              + _seeded_graphs()):
        classes = _out_list_classes(g)
        k_cyc = len(reference_quotient_cyclic(g, classes))
        asked.clear()
        hilbert_series(g)
        assert asked == [len(classes) + 1 + 2 * k_cyc], g.ideal.relations
        whole = len(g.vertices) + 1 + 2 * _n_cyc(g)
        assert asked[0] <= whole, g.ideal.relations
        acyclic += k_cyc == 0
        fewer += asked[0] < whole
    # the draws include acyclic quotients, which ask for k + 1 terms,
    # and graphs whose quotient is smaller than the graph
    assert acyclic > 0 and fewer > 0


def _tier_draws(gens, relations, degree, seed, count):
    """The scale tier gens/relations/degree at `seed`: relations of
    random length 2 to `degree` over the first `gens` letters."""
    rng = random.Random(seed)
    names = [chr(ord("a") + i) for i in range(gens)]
    return [build_marked_graph(MonomialIdeal(make_presentation(
                names, [tuple(rng.choice(names)
                              for _ in range(rng.randint(2, degree)))
                        for _ in range(relations)])))
            for _ in range(count)]


def test_quotient_is_the_out_list_partition():
    """On the fixtures, the seeded draws, the census part x,y:2-3:3 and
    the 15 draws of the 16/200/12 tier: the classes are the distinct
    rows of `g.succ`, every member's out-list maps onto its class's
    row, each class lies in one class of the coarsest out-equitable
    partition, the generator counts are right, and the quotient counts
    the graph's walks for all n + 1 + 2 n_cyc terms the whole graph
    would need."""
    census_graphs = [build_marked_graph(MonomialIdeal(p))
                     for p in census(["x", "y"], 2, 3, 3)]
    for g in ([graph(name) for name in ALL] + _seeded_graphs()
              + census_graphs + _tier_draws(16, 200, 12, 3, 15)):
        colour, succ, starts = ext._quotient(g)
        classes = {}
        for v, c in zip(g.vertices, colour):
            classes.setdefault(c, set()).add(v)
        assert ({frozenset(c) for c in classes.values()}
                == _out_list_classes(g)), g.ideal.relations
        assert sorted(classes) == list(range(len(succ)))
        for v, ts in enumerate(g.succ):
            assert ([colour[t] for t in ts]
                    == succ[colour[v]]), g.ideal.relations
        coarsest = reference_quotient(g)
        assert all(any(c <= d for d in coarsest)
                   for c in classes.values()), g.ideal.relations
        assert starts == [sum(len(v) == 1 for v in classes[c])
                          for c in range(len(succ))]
        length = len(g.vertices) + 1 + 2 * _n_cyc(g)
        assert (ext._walk_counts(succ, starts, length)
                == reference_walk_counts(g, length)), g.ideal.relations


def test_series_on_a_long_acyclic_chain():
    # a1099 -> ... -> a0 has no cycle, so the denominator is 1 and the
    # numerator is the walk-count polynomial, of degree n.
    n = 1100
    names = [f"a{i}" for i in range(n)]
    p = make_presentation(names, [(names[i + 1], names[i]) for i in range(n - 1)])
    h = hilbert_series(build_marked_graph(MonomialIdeal(p)))
    assert h.denominator == (1,)
    assert h.series(n + 1) == [1] + list(range(n, 0, -1)) + [0]
