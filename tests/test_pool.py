"""The 210 presentations of the decide-corpus benchmark's pool
(perfbench/pool.json, read and never written) against the reference
routes of the two per-graph stages that search or count the most."""

import json
from pathlib import Path

import pytest

from propcore import bordered_hilbert_series, reference_leading_path
from yoneda_cps.ext import hilbert_series
from yoneda_cps.graph import build_marked_graph, graph_params
from yoneda_cps.presentation import make_presentation

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"


@pytest.fixture(scope="module")
def pool_graphs():
    entries = json.loads(POOL.read_text())["presentations"]
    assert len(entries) == 210
    return [build_marked_graph(make_presentation(
                e["generators"], [tuple(r) for r in e["relations"]]))
            for e in entries]


def test_pool_leading_path_matches_the_path_search(pool_graphs):
    for i, g in enumerate(pool_graphs):
        p = graph_params(g)
        assert (p.max_leading_path, p.l_defaulted) == \
            reference_leading_path(g), i


def test_pool_hilbert_series_matches_the_bordered_determinants(pool_graphs):
    for i, g in enumerate(pool_graphs):
        got, expect = hilbert_series(g), bordered_hilbert_series(g)
        assert got.to_json() == expect.to_json(), i
