import random

import pytest

from conftest import ALL, graph, load
from propcore import (all_words, census, random_presentation,
                      reference_annihilators, reference_contains)
from yoneda_cps.monomial import (MonomialIdeal, PreconditionError,
                                 annihilator_generators, end_state,
                                 state_annihilators)
from yoneda_cps.presentation import (Presentation, format_word,
                                     make_presentation)


def brute_occurrences(relations, word):
    out = []
    for ri, r in enumerate(relations):
        for i in range(len(word) - len(r) + 1):
            if word[i:i + len(r)] == r:
                out.append((i, ri))
    return sorted(out)


def test_contains_and_occurrences_match_brute_scan():
    rng = random.Random(5)
    for draw in range(120):
        # half the draws name generators with two characters
        names = (("x", "y", "z"), ("xx", "yy", "z"))[draw % 2][: rng.randint(1, 3)]
        relations = tuple({tuple(rng.choice(names) for _ in range(rng.randint(2, 4)))
                           for _ in range(rng.randint(1, 4))})
        ideal = MonomialIdeal(make_presentation(names, relations))
        # the parser may prune, so scan against the surviving set
        rels = ideal.relations
        # words may hold letters outside the alphabet, which no relation
        # holds: "q", and "x" or "xx", whichever is not a generator
        letters = names + ("q", "x", "xx")
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 9)))
            assert ideal.contains(w) == reference_contains(rels, w), (rels, w)
            assert ideal.occurrences(w) == brute_occurrences(rels, w), (rels, w)
        assert ideal.contains(rels[0])


def test_contains_the_automaton_and_a_factor_scan_agree():
    """Membership by the ideal's index against a window scan.
    `contains` and `occurrences` share the one automaton over the
    reversed relations, the one stopping at the first relation that
    ends and the other listing every occurrence; the reference compares
    every window with every relation.  On census x,y:2-4:3 and on draws
    of degree up to 8, which have many distinct relation lengths, over
    the relations, each relation with a letter on either side, and
    random words up to twice the top degree."""
    rng = random.Random(3)
    draws = [random_presentation(rng, max_relations=6, max_degree=8)
             for _ in range(300)]
    answers = set()
    for p in census(["x", "y"], 2, 4, 3) + draws:
        ideal = MonomialIdeal(p)
        rels, names = ideal.relations, p.generator_names
        top = max(map(len, rels))
        words = list(rels) + [w for r in rels for x in names
                              for w in ((x,) + r, r + (x,))]
        words += [tuple(rng.choice(names) for _ in range(rng.randint(0, 2 * top)))
                  for _ in range(20)]
        for w in words:
            routes = (ideal.contains(w), bool(ideal.occurrences(w)),
                      reference_contains(rels, w))
            assert len(set(routes)) == 1, (rels, w, routes)
            answers.add(routes[0])
    assert answers == {True, False}


def test_overlapping_occurrences_all_found():
    ideal = MonomialIdeal(make_presentation("a", [("a", "a")]))
    assert ideal.occurrences(("a",) * 4) == [(0, 0), (1, 0), (2, 0)]


def test_automaton_tables_do_not_grow_with_the_alphabet():
    # a chain over 1,100 letters: the tables hold the trie moves alone,
    # one entry per state but the root, and no entry per state and
    # letter (4,397 states, 1,100 letters)
    names = [f"a{i}" for i in range(1100)]
    ideal = MonomialIdeal(make_presentation(
        names, [(names[i + 1], names[i + 1], names[i], names[i])
                for i in range(1099)]))
    goto = ideal.factor_index.goto
    assert len(goto) == 4397
    assert sum(map(len, goto)) < 2 * len(goto)
    assert ideal.contains(("a5", "a5", "a5", "a4", "a4"))
    assert not ideal.contains(("a5", "a5", "a4", "a5", "a4", "a4"))


def test_normal_count_matches_enumeration():
    presentations = [load(name) for name in (
        "x_square", "xy_single", "abc_cdab", "x2y_family", "sklyanin_leading")]
    # z is a generator that no relation holds
    presentations.append(make_presentation("xyz", [("x", "y", "x"), ("y", "y")]))
    for p in presentations:
        ideal = MonomialIdeal(p)
        names = p.generator_names
        for d in range(7):
            expect = sum(1 for w in all_words(names, d) if not ideal.contains(w))
            assert ideal.normal_count(d) == expect, (p.relations, d)


def test_normal_count_known_series():
    # one relation xx: normal words avoid double x
    ideal = MonomialIdeal(make_presentation("x", [("x", "x")]))
    assert [ideal.normal_count(d) for d in range(5)] == [1, 1, 0, 0, 0]
    ideal = MonomialIdeal(load("abc_cdab"))
    # dim 1, 4, 16, then two relations start cutting
    assert [ideal.normal_count(d) for d in range(5)] == [1, 4, 16, 63, 247]


def test_relations_are_the_minimal_generators():
    # a word is a minimal generator when it lies in the ideal and no
    # proper factor does; after pruning these are exactly the relations
    for name in ("abc_cdab", "x2y_family", "sklyanin_leading"):
        ideal = MonomialIdeal(load(name))
        names = ideal.presentation.generator_names
        minimal = set()
        for d in range(2, max(map(len, ideal.relations)) + 1):
            for w in all_words(names, d):
                if ideal.contains(w) and not ideal.contains(w[1:]) \
                        and not ideal.contains(w[:-1]):
                    minimal.add(w)
        assert minimal == set(ideal.relations), name


def test_min_suffix_known_values():
    """The shortest suffix of w annihilating the vertex m is the one
    out-neighbour of m that ends w."""
    g = graph("abc_cdab")
    for w, m, suffix in (("dab", "c", "ab"), ("dab", "cd", "ab"),
                         ("cda", "b", "cda"), ("ab", "cda", "ab")):
        w = tuple(w)
        assert [t for t in g.out[tuple(m)] if w[len(w) - len(t):] == t] == \
            [tuple(suffix)]


def test_annihilators_known_values():
    ideal = MonomialIdeal(load("abc_cdab"))
    assert annihilator_generators(ideal, "c") == {("a", "b")}
    assert annihilator_generators(ideal, "b") == {("c", "d", "a")}
    assert annihilator_generators(ideal, "ab") == {("c", "d")}
    assert annihilator_generators(ideal, "cda") == {("a", "b")}
    assert annihilator_generators(ideal, "a") == frozenset()


def test_annihilators_reject_ideal_member():
    ideal = MonomialIdeal(load("abc_cdab"))
    with pytest.raises(PreconditionError) as e:
        annihilator_generators(ideal, "abc")
    assert e.value.clause == "m_in_ideal"


def test_annihilators_match_brute_scan():
    """Against the scan of every normal word, on draws over up to three
    letters and on two-letter draws whose relations, of degree up to 7,
    are factors of one word and so overlap one another."""
    rng = random.Random(11)
    draws = []
    for _ in range(50):
        names = tuple("xyz"[: rng.randint(1, 3)])
        relations = [tuple(rng.choice(names) for _ in range(rng.randint(2, 4)))
                     for _ in range(rng.randint(1, 4))]
        draws.append((names, relations))
    rng = random.Random(13)
    for _ in range(80):
        base = tuple(rng.choice("xy") for _ in range(10))
        lengths = [rng.randint(2, 7) for _ in range(rng.randint(2, 4))]
        starts = [rng.randint(0, 10 - n) for n in lengths]
        draws.append((("x", "y"), [base[a:a + n] for a, n in zip(starts, lengths)]))
    for names, relations in draws:
        ideal = MonomialIdeal(make_presentation(names, relations))
        cap = max(map(len, ideal.relations)) - 1
        for d in range(6):
            for m in all_words(names, d):
                if ideal.contains(m):
                    continue
                got = annihilator_generators(ideal, m)
                assert got == set(reference_annihilators(ideal, m, cap)), \
                    (relations, m)


def test_end_state_is_the_last_state_of_the_scan():
    """`end_state` is the state `states` reaches over a normal word, and
    refuses a word in the ideal with the clause and message that
    `annihilator_generators` raises."""
    for name in ALL:
        ideal = MonomialIdeal(load(name))
        index, names = ideal.factor_index, ideal.presentation.generator_names
        for d in range(1, 5):
            for m in all_words(names, d):
                if ideal.contains(m):
                    with pytest.raises(PreconditionError) as e:
                        end_state(ideal, m)
                    assert e.value.clause == "m_in_ideal"
                    assert str(e.value) == f"m = {format_word(m)} lies in the ideal"
                else:
                    assert end_state(ideal, m) == list(index.states(m))[-1]


def test_state_flags_mark_the_edge_words_that_are_relations():
    """The minimal annihilators at a word's end state are the brute
    scan's, and u m is a relation exactly when u is flagged and the end
    state has depth len(m): on the fixtures and on draws whose
    relations overlap, for every normal word of degree up to 5."""
    rng = random.Random(17)
    presentations = [load(name) for name in ALL if name != "two_chain_overlap"]
    for _ in range(60):
        base = tuple(rng.choice("xy") for _ in range(8))
        lengths = [rng.randint(2, 6) for _ in range(rng.randint(1, 4))]
        presentations.append(make_presentation("xy", [
            base[a:a + n] for n in lengths for a in [rng.randint(0, 8 - n)]]))
    flagged = 0
    for p in presentations:
        ideal, relations = MonomialIdeal(p), set(p.relations)
        depth, cap = ideal.factor_index.depth, max(map(len, p.relations)) - 1
        for d in range(1, 6):
            for m in all_words(p.generator_names, d):
                if ideal.contains(m):
                    continue
                s = end_state(ideal, m)
                found = state_annihilators(ideal, s)
                assert sorted(found, key=ideal.sort_key) == \
                    list(reference_annihilators(ideal, m, cap)), (p.relations, m)
                for u, own in found.items():
                    assert (own and depth[s] == len(m)) == (u + m in relations), \
                        (p.relations, m, u)
                    flagged += u + m in relations
    assert flagged > 0


def test_minimality_reads_the_longest_relation_ending_at_a_state():
    """In a Presentation built directly, yx is a factor of yxxy and xyxxy.
    The candidates of y are yxx and xyxx, and xyxx is not minimal, since
    yxx is a suffix of it: the scan over xyxx reaches a state where both
    yxxy and yx end, and only yxxy, the longer, reaches into y."""
    p = Presentation(("x", "y"), (("y", "x"), ("y", "x", "x", "y"),
                                  ("x", "y", "x", "x", "y")))
    assert annihilator_generators(MonomialIdeal(p), "y") == {("y", "x", "x")}


def test_annihilator_degree_cap_on_fixtures():
    for name in ALL:
        g = graph(name)
        cap = max(map(len, g.ideal.relations)) - 1
        for v in g.vertices:
            for w in annihilator_generators(g.ideal, v):
                assert 1 <= len(w) <= cap
