import random
import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
sys.path.insert(0, str(Path(__file__).parent))

from propcore import random_presentation
from yoneda_cps.graph import build_marked_graph
from yoneda_cps.monomial import MonomialIdeal
from yoneda_cps.presentation import parse_presentation

ALL = ("x_square", "xy_single", "abc_cdab", "abc_cdab_bcda",
       "x2y_family", "two_chain_overlap", "sklyanin_leading")

_presentations = {}
_graphs = {}


def fixture_path(name):
    return str(FIXTURES / f"{name}.json")


def load(name):
    if name not in _presentations:
        _presentations[name] = parse_presentation((FIXTURES / f"{name}.json").read_text())
    return _presentations[name]


def graph(name):
    if name not in _graphs:
        _graphs[name] = build_marked_graph(MonomialIdeal(load(name)))
    return _graphs[name]


def sample_graphs():
    """The fixtures, 600 draws of Random(7) and 400 of Random(9) at
    4/6/5."""
    graphs = [graph(name) for name in ALL]
    for seed, draws, sizes in ((7, 600, (3, 4, 4)), (9, 400, (4, 6, 5))):
        rng = random.Random(seed)
        graphs += [build_marked_graph(random_presentation(rng, *sizes))
                   for _ in range(draws)]
    return graphs


def W(*words):
    """Walk as letter tuples, from display strings of one-char generators."""
    return tuple(tuple(w) for w in words)
