import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL, W, graph, load
from dense_oracle import (factor_keys, factored_homology,
                          minimal_resolution_by_words,
                          minimal_resolution_dense,
                          reference_splitting_homology, word_homology)
from propcore import census, oracle_trie_mismatch, random_presentation
from yoneda_cps import oracle
from yoneda_cps.graph import build_marked_graph
from yoneda_cps.linalg import gf2_rank
from yoneda_cps.monomial import MonomialIdeal
from yoneda_cps.oracle import (BettiTable, _first_letter_cells,
                               _min_occurrence_ends, _RelationTrie,
                               _splitting_homology, chain_words,
                               cross_validate, minimal_resolution)
from yoneda_cps.presentation import Presentation, make_presentation


def ideal(name):
    return MonomialIdeal(load(name))


def test_algebra_basis_matches_counting():
    a = ideal("abc_cdab")
    names = a.presentation.generator_names
    for d, expect in enumerate([1, 4, 16, 63, 247]):
        basis = [w for w in itertools.product(names, repeat=d)
                 if not a.contains(w)]
        assert len(basis) == expect
        assert a.normal_count(d) == expect


def test_chain_words_single_relation():
    words, truncated = chain_words(ideal("xy_single"), 16)
    assert sorted(words) == [("x", "y")]
    assert not truncated


def test_chain_words_self_overlap():
    words, truncated = chain_words(ideal("x_square"), 5)
    assert sorted(words) == [W("xx")[0], W("xxx")[0], W("xxxx")[0],
                             W("xxxxx")[0]]
    assert truncated


def test_word_homology_known_values():
    xs = ideal("x_square")
    assert word_homology(ideal("xy_single"), ("x", "y"), 8, 2) == {2: 1}
    assert word_homology(xs, ("x", "x"), 8, 2) == {2: 1}
    assert word_homology(xs, ("x", "x", "x"), 8, 2) == {3: 1}
    assert word_homology(xs, ("x", "x", "x", "x"), 8, 2) == {4: 1}


def test_resolution_xy():
    t = minimal_resolution(ideal("xy_single"), 2, 8, 16)
    assert t.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert not t.truncation_reached


def test_resolution_abc_cdab_low_degrees():
    t = minimal_resolution(ideal("abc_cdab"), 2, 3, 8)
    assert t.entries == {(0, 0): 1, (1, 1): 4, (2, 3): 1, (2, 4): 1,
                         (3, 5): 1, (3, 6): 1}
    assert t.truncation_reached  # overlap chains keep growing past 8


def test_dense_route_agrees_with_splitting():
    cases = [("x_square", 4, 5), ("xy_single", 4, 6), ("abc_cdab", 2, 5)]
    for name, mi, mj in cases:
        a = ideal(name)
        dense = minimal_resolution_dense(a, 2, mi, mj)
        split = minimal_resolution(a, 2, mi, mj)
        assert dense.entries == split.entries, name


def test_dense_route_x_square_diagonal():
    t = minimal_resolution_dense(ideal("x_square"), 2, 4, 5)
    assert t.entries == {(i, i): 1 for i in range(5)}


@pytest.mark.parametrize("max_i,max_j", [(0, 0), (0, 5), (3, 0), (1, 1)])
@pytest.mark.parametrize("name", ALL)
def test_small_windows_hold_only_their_entries(name, max_i, max_j):
    """The generator count (1, 1) lies outside a window with a zero
    bound, so neither route may report it there."""
    a = ideal(name)
    dense = minimal_resolution_dense(a, 2, max_i, max_j).entries
    assert minimal_resolution(a, 2, max_i, max_j).entries == dense
    assert minimal_resolution_by_words(a, 2, max_i, max_j).entries == dense


@pytest.mark.parametrize("name", ["x_square", "xy_single", "abc_cdab",
                                  "x2y_family"])
def test_field_independence(name):
    a = ideal(name)
    t2 = minimal_resolution(a, 2, 6, 10)
    tp = minimal_resolution(a, 32003, 6, 10)
    assert t2.entries == tp.entries


@pytest.mark.parametrize("name", ["abc_cdab", "abc_cdab_bcda", "x2y_family"])
def test_walk_counts_match_betti(name):
    table = minimal_resolution(ideal(name), 2, 6, 12)
    assert cross_validate(graph(name), table) == []


@pytest.mark.parametrize("field_char", [0, 1, 4, 6, 9, 2 ** 31 + 11])
def test_resolution_rejects_a_field_that_is_not_prime(field_char):
    # a rank mod a composite means nothing, so the check comes first
    with pytest.raises(ValueError, match="field_char must be a prime"):
        minimal_resolution(ideal("abc_cdab"), field_char=field_char)


@pytest.mark.parametrize("max_i, max_j", [(-1, 16), (8, -1), (-2, -3)])
def test_resolution_rejects_a_negative_window(max_i, max_j):
    with pytest.raises(ValueError, match="must be non-negative"):
        minimal_resolution(ideal("abc_cdab"), 2, max_i, max_j)


def test_cross_validate_flags_corruption():
    a = ideal("abc_cdab")
    good = minimal_resolution(a, 2, 6, 12)
    bad_entries = dict(good.entries)
    bad_entries[(2, 3)] += 1
    bad = BettiTable(bad_entries, good.max_i, good.max_j,
                     good.field_char, good.truncation_reached)
    mm = cross_validate(graph("abc_cdab"), bad)
    assert mm == [{"i": 2, "j": 3, "walk_count": 1, "betti": 2}]


def test_mixed_degree_relations_cross_check():
    p = make_presentation("xy", [("y", "x"), ("x", "x", "x"), ("x", "x", "y")])
    a = MonomialIdeal(p)
    g = build_marked_graph(a)
    table = minimal_resolution(a, 2, 6, 10)
    assert table.truncation_reached
    assert cross_validate(g, table) == []


@pytest.mark.parametrize("name", ["abc_cdab", "x2y_family"])
def test_euler_characteristic_inverts_hilbert_series(name):
    """Alternating Betti sums are the coefficients of 1/H_A(y), an
    identity independent of everything the resolution code does."""
    a = ideal(name)
    J = 8
    table = minimal_resolution(a, 2, J, J)
    p = [0] * (J + 1)
    for (i, j), d in table.entries.items():
        if j <= J:
            p[j] += d if i % 2 == 0 else -d
    h = [a.normal_count(d) for d in range(J + 1)]
    conv = [sum(h[k] * p[d - k] for k in range(d + 1)) for d in range(J + 1)]
    assert conv == [1] + [0] * J


def test_betti_table_serialization():
    t = minimal_resolution(ideal("xy_single"), 2, 8, 16)
    js = t.to_json()
    assert js["field_char"] == 2
    assert js["truncation_reached"] is False
    assert {"i": 2, "j": 2, "dim": 1} in js["entries"]


def _occurrence_key(a, word):
    """(length, least occurrence end per start) from public occurrences."""
    n = len(word)
    ends = [n + 1] * (n + 1)
    for start, rel in a.occurrences(word):
        ends[start] = min(ends[start], start + len(a.relations[rel]))
    for s in range(n - 1, -1, -1):
        ends[s] = min(ends[s], ends[s + 1])
    return n, tuple(ends)


@pytest.mark.parametrize("field_char", [2, 32003])
@pytest.mark.parametrize("name,n_words,n_keys", [("x2y_family", 133, 105),
                                                 ("abc_cdab_bcda", 30, 29)])
def test_resolution_memo_is_exact(name, n_words, n_keys, field_char):
    """One complex per (length, min_end) key gives the table that
    reducing every chain word's complex on its own gives."""
    a = ideal(name)
    words, _ = chain_words(a, 16)
    assert len(words) == n_words
    assert len({_occurrence_key(a, w) for w in words}) == n_keys
    trie = _RelationTrie(a.relations)
    assert all(_occurrence_key(a, w) ==
               (len(w), tuple(_min_occurrence_ends(trie, [w])[0]))
               for w in words)
    expect = {(0, 0): 1, (1, 1): len(a.presentation.generator_names)}
    for w in words:
        for n, dim in word_homology(a, w, 8, field_char).items():
            expect[(n, len(w))] = expect.get((n, len(w)), 0) + dim
    assert minimal_resolution(a, field_char, 8, 16).entries == expect


def _fixture_keys():
    """Every distinct key of the fixtures' chain words, at max_j = 12
    and at 16 for x2y_family and abc_cdab_bcda."""
    windows = [(name, 12) for name in ALL]
    windows += [("x2y_family", 16), ("abc_cdab_bcda", 16)]
    keys = set()
    for name, max_j in windows:
        a = ideal(name)
        keys |= {_occurrence_key(a, w) for w in chain_words(a, max_j)[0]}
    return sorted(keys)


@pytest.mark.parametrize("field_char", [2, 32003])
def test_reduction_matches_reference_on_fixture_keys(field_char):
    """Cancelling unit-incidence pairs before the ranks gives the
    homology that ranking the whole complex gives, on every distinct key
    of the fixtures' chain words."""
    for key in _fixture_keys():
        assert (_splitting_homology(*key, 8, field_char)
                == reference_splitting_homology(*key, 8, field_char)), key


def _reference_k(n_len, min_end, max_parts):
    """The cells of K with at most max_parts parts, as the module
    docstring defines them, and their signed faces: every splitting into
    normal parts, by recursion, kept when it cuts at 1 and its second
    part ends at s2 >= min_end[0]; removing the t-th cut is a face when
    the merged part is normal, with incidence (-1)^(t + 1)."""
    splittings = []

    def rec(a, cuts):
        if n_len < min_end[a]:
            splittings.append(cuts)
        if len(cuts) + 1 < max_parts:
            for b in range(a + 1, min(min_end[a], n_len)):
                rec(b, cuts + (b,))

    rec(0, ())
    cells = sorted(cuts for cuts in splittings if cuts[:1] == (1,) and
                   (cuts + (n_len,))[1] >= min_end[0])
    faces = {}
    for cuts in cells:
        ext = (0,) + cuts + (n_len,)
        faces[cuts] = {cuts[:t - 1] + cuts[t:]: 1 if t % 2 else -1
                       for t in range(1, len(cuts) + 1)
                       if min_end[ext[t - 1]] > ext[t + 1]}
    return cells, faces


def _listing_mismatch(n_len, min_end, max_parts):
    """Where `_first_letter_cells` differs from `_reference_k`, or None:
    a cell in the wrong layer, the cells or their order (by number of
    parts, then lexicographic), a face, a sign, a removable mask, or a
    coface list."""
    layers, faces, cofaces = _first_letter_cells(n_len, min_end, max_parts)
    ref_cells, ref_faces = _reference_k(n_len, min_end, max_parts)
    listed = []
    for n, layer in enumerate(layers):
        for mask, removable in layer:
            cuts = tuple(b for b in range(1, n_len) if mask >> b & 1)
            if len(cuts) + 1 != n:
                return f"{cuts} in layer {n}"
            listed.append((cuts, removable))
    if [cuts for cuts, _ in listed] != sorted(ref_cells,
                                              key=lambda c: (len(c), c)):
        return "cells"
    for c, (cuts, removable) in enumerate(listed):
        got = {listed[f][0]: sign for f, sign in faces[c].items()}
        if got != ref_faces[cuts]:
            return f"faces of {cuts}: {got} against {ref_faces[cuts]}"
        if removable != sum(1 << b for b in cuts
                            if tuple(x for x in cuts if x != b) in got):
            return f"removable cuts of {cuts}"
    if cofaces != [[x for x in range(len(listed)) if c in faces[x]]
                   for c in range(len(listed))]:
        return "cofaces"
    return None


def test_listing_is_k_on_fixture_keys():
    """The cut-mask search lists exactly the cells and signed faces of K,
    every face inside K, on every key of the fixtures' chain words
    where K exists, at max_i = 8 and at max_i = 2."""
    keys = [key for key in _fixture_keys() if key[0] >= 2 and key[1][0] > 1]
    assert len(keys) > 2000
    for n_len, min_end in keys:
        for max_parts in {min(n_len, 9), min(n_len, 3)}:
            assert _listing_mismatch(n_len, min_end, max_parts) is None, \
                (n_len, min_end, max_parts)


def test_first_letter_base_cases():
    """The keys where no cut at 1 exists: a first letter in the ideal
    has no cell, and a lone normal letter is one cell in degree 1."""
    cases = [((1, (1, 2)), 8, {}), ((1, (2, 2)), 0, {}),
             ((1, (2, 2)), 1, {1: 1}), ((3, (1, 3, 4, 4)), 8, {})]
    for field_char in (2, 3):
        for key, max_i, expect in cases:
            assert _splitting_homology(*key, max_i, field_char) == expect
            assert reference_splitting_homology(
                *key, max_i, field_char) == expect


# the windows of the benchmark's oracle-validate workload
BENCH_WINDOWS = {"x_square": (8, 16), "xy_single": (8, 16),
                 "abc_cdab": (8, 16), "abc_cdab_bcda": (8, 16),
                 "x2y_family": (8, 16), "two_chain_overlap": (8, 13),
                 "sklyanin_leading": (8, 12)}


def test_first_letter_reduction_bounds_the_rank_rows(monkeypatch):
    """Listing only the cells that survive the first-letter reduction
    sends at most 8,935 rows to gf2_rank over the fixtures at the
    benchmark windows; listing every splitting sent 57,197."""
    rows = []

    def counting_rank(matrix):
        rows.append(len(matrix))
        return gf2_rank(matrix)

    monkeypatch.setattr(oracle, "gf2_rank", counting_rank)
    for name, (max_i, max_j) in BENCH_WINDOWS.items():
        minimal_resolution(ideal(name), 2, max_i, max_j)
    assert rows and sum(rows) <= 8935


@st.composite
def min_end_arrays(draw):
    """(n, min_end) with min_end non-decreasing, a < min_end[a] <= n + 1.

    As in a word, each start a carries at most one shortest occurrence,
    of length 1 to 5, and min_end is the suffix minimum of their ends.
    """
    n = draw(st.integers(1, 12))
    ends = [n + 1] * (n + 1)
    for a in range(n - 1, -1, -1):
        length = draw(st.one_of(st.none(), st.integers(1, 5)))
        ends[a] = min(ends[a + 1], a + length if length else n + 1)
    return n, tuple(ends)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(min_end_arrays(), st.integers(0, 12), st.sampled_from([2, 3, 32003]))
def test_reduction_matches_reference_on_random_complexes(key, max_i,
                                                         field_char):
    assert (_splitting_homology(*key, max_i, field_char)
            == reference_splitting_homology(*key, max_i, field_char))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(min_end_arrays(), st.integers(1, 12))
def test_listing_is_k_on_random_keys(key, max_i):
    n_len, min_end = key
    if n_len >= 2 and min_end[0] > 1:
        max_parts = min(n_len, max_i + 1)
        assert _listing_mismatch(n_len, min_end, max_parts) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(min_end_arrays(), st.integers(0, 12), st.sampled_from([2, 3, 32003]))
def test_factored_homology_matches_reference_on_random_keys(key, max_i,
                                                            field_char):
    """Splitting a key at its forced cuts and convolving its factors'
    homologies gives the homology of the whole complex."""
    n, min_end = key
    # v is forced when no normal part [a, b) straddles it
    forced = [v for v in range(1, n)
              if all(min_end[a] <= b for a in range(v)
                     for b in range(v + 1, n + 1))]
    ends = itertools.accumulate(length for length, _ in factor_keys(*key))
    assert list(ends) == forced + [n]
    assert (factored_homology(*key, max_i, field_char, {})
            == reference_splitting_homology(*key, max_i, field_char))


def test_factored_homology_at_max_i_0():
    key = (4, (2, 4, 5, 5, 5))    # relations at [0, 2) and [1, 4)
    assert factor_keys(*key) == [(1, (2, 2)), (3, (3, 4, 4, 4))]
    for field_char in (2, 3):
        for max_i, expect in [(0, {}), (2, {}), (3, {3: 1})]:
            assert factored_homology(*key, max_i, field_char, {}) == expect
            assert reference_splitting_homology(
                *key, max_i, field_char) == expect


def test_one_letter_relation_is_an_empty_factor():
    """A relation of degree 1 inside a word makes an empty factor, whose
    complex has no cell, so the word's homology vanishes."""
    key = (3, (2, 2, 4, 4))       # a w b with w a relation
    assert factor_keys(*key) == [(1, (2, 2)), (1, (1, 2)), (1, (2, 2))]
    assert _splitting_homology(1, (1, 2), 8, 2) == {}
    memo = {}
    assert factored_homology(*key, 8, 2, memo) == {}
    assert memo == {(1, (2, 2)): {1: 1}, (1, (1, 2)): {}}
    assert reference_splitting_homology(*key, 8, 2) == {}


def _split_counts(name, max_j):
    """(keys, distinct factors, keys that are their own single factor)."""
    a = ideal(name)
    keys = {_occurrence_key(a, w) for w in chain_words(a, max_j)[0]}
    factors = {f for key in keys for f in factor_keys(*key)}
    whole = sum(factor_keys(*key) == [key] for key in keys)
    return len(keys), len(factors), whole


def test_forced_cuts_split_sklyanin_leading():
    assert _split_counts("sklyanin_leading", 12) == (2054, 149, 148)


@pytest.mark.parametrize("name", ["abc_cdab", "abc_cdab_bcda", "x2y_family",
                                  "two_chain_overlap"])
def test_no_forced_cut_without_degree_2_relations(name):
    assert min(map(len, load(name).relations)) > 2
    n_keys, n_factors, whole = _split_counts(name, 16)
    assert whole == n_factors == n_keys


@pytest.mark.parametrize("name", ["x_square", "xy_single"])
def test_quadratic_relations_split_into_letters(name):
    """Every position of a chain word of quadratic relations is a forced
    cut, so every factor is one letter."""
    a = ideal(name)
    for w in chain_words(a, 12)[0]:
        key = _occurrence_key(a, w)
        assert factor_keys(*key) == [(1, (2, 2))] * len(w)


def test_resolution_progress_counts_chain_words():
    lines = []
    minimal_resolution(ideal("x2y_family"), 2, 8, 16, progress=lines.append)
    assert lines == ["50/133 words resolved", "100/133 words resolved",
                     "133 words resolved"]


def test_resolution_progress_counts_factor_words():
    """Chain words factor at their degree-2 relations, so the oracle
    lists 566 factor words for sklyanin_leading's 6,037 chain words."""
    lines = []
    a = ideal("sklyanin_leading")
    minimal_resolution(a, 2, 8, 12, progress=lines.append)
    assert lines[-1] == "566 words resolved"
    assert len(chain_words(a, 12)[0]) == 6037


@pytest.mark.parametrize("name", ALL)
def test_truncation_flag_is_a_chain_word_past_max_j(name):
    """The factor route flags truncation exactly when some chain word is
    longer than max_j, as chain_words does; x_square's only factor word
    is xx, so there the flag comes from the transfer steps alone."""
    a = ideal(name)
    for max_j in range(17 if name == "x_square" else 13):
        table = minimal_resolution(a, 2, 2, max_j)
        assert table.truncation_reached == chain_words(a, max_j)[1], max_j


def _same_table(ideal_, field_char, max_i, max_j):
    by_factors = minimal_resolution(ideal_, field_char, max_i, max_j)
    by_words = minimal_resolution_by_words(ideal_, field_char, max_i, max_j)
    assert by_factors.entries == by_words.entries
    assert by_factors.truncation_reached == by_words.truncation_reached


@pytest.mark.parametrize("field_char,max_i,max_j", [(2, 8, 16), (32003, 8, 16),
                                                    (3, 6, 12)])
@pytest.mark.parametrize("name", ALL)
def test_factor_sequences_match_the_chain_words(name, field_char, max_i,
                                                max_j):
    """The transfer-matrix sum over factor sequences gives the table of
    the per-chain-word route."""
    if name == "sklyanin_leading":
        max_j = min(max_j, 12)
    _same_table(ideal(name), field_char, max_i, max_j)


def test_factor_sequences_match_the_chain_words_on_random_presentations():
    rng = random.Random(5)
    for _ in range(300):
        a = MonomialIdeal(random_presentation(rng))
        _same_table(a, 2, 8, 10)
        _same_table(a, 3, 4, 9)


@pytest.mark.parametrize("name", ALL)
def test_relation_trie_matches_the_slicing_references(name):
    """The trie lists the chain words and factor words of the slicing
    references in the same order, and reads the same min_end arrays,
    here also on every word of length 4 over the alphabet."""
    a = ideal(name)
    words = itertools.product(a.presentation.generator_names, repeat=4)
    assert oracle_trie_mismatch(a, 12 if name == "sklyanin_leading" else 16,
                                list(words)) is None


def test_relation_trie_matches_the_slicing_references_on_the_census():
    for p in census(["x", "y"], 2, 4, 3):
        assert oracle_trie_mismatch(MonomialIdeal(p), 10) is None, p.relations


def test_relation_trie_matches_the_slicing_references_on_random_draws():
    rng = random.Random(11)
    for _ in range(300):
        p = random_presentation(rng, max_gens=4, max_relations=6,
                                max_degree=6)
        names = p.generator_names
        extra = [tuple(rng.choice(names) for _ in range(rng.randint(0, 12)))
                 for _ in range(5)]
        assert oracle_trie_mismatch(MonomialIdeal(p), 11, extra) is None, \
            p.relations


@pytest.mark.parametrize("relations", [
    (("x", "y"), ("x", "y", "x")),           # a relation is a prefix
    (("y", "x"), ("x", "y", "x"), ("y", "x")),   # a factor, and a repeat
    (("x",), ("x", "x", "y"), ("y", "y")),
    (("x", "y", "x"), ("y", "y"), ("x", "y")),  # the longer listed first
])
def test_relation_trie_needs_no_pruned_presentation(relations):
    """A Presentation built directly keeps a relation that has another
    as a factor; the trie still lists what the references list."""
    a = MonomialIdeal(Presentation(("x", "y"), relations))
    words = [w for n in range(7) for w in itertools.product("xy", repeat=n)]
    assert oracle_trie_mismatch(a, 9, words) is None
