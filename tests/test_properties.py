"""Randomized invariants over small monomial presentations.

The generators mirror the acceptance sweep: up to 3 letters, up to 4
relations of degree 2 to 4.  The stronger parity extension law is
logged, never asserted; its status is reported by the acceptance
criterion, and the sound closures are asserted here unconditionally.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from propcore import ALPHABET, run_sample
from yoneda_cps.presentation import (make_presentation, parse_presentation,
                                     serialize_presentation)


@st.composite
def presentations(draw):
    names = list(ALPHABET[: draw(st.integers(1, 3))])
    letters = st.sampled_from(names)
    relation = st.lists(letters, min_size=2, max_size=4).map(tuple)
    rels = draw(st.lists(relation, min_size=1, max_size=4))
    return make_presentation(names, rels)


COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])


@settings(max_examples=200, **COMMON)
@given(presentations(), st.randoms(use_true_random=False))
def test_walk_calculus_invariants(p, rng):
    run_sample(p, rng, parity_log=[])


@settings(max_examples=200, **COMMON)
@given(presentations())
def test_serialization_round_trip(p):
    again = parse_presentation(serialize_presentation(p))
    assert again.generator_names == p.generator_names
    assert again.relations == p.relations
