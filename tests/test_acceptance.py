"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Criterion 6 is expected to fail: the literal parity
extension law it pins is false, and the failure output names the first
counterexample.  Everything else must pass within its stated budget.
"""

import random
import time

from conftest import W, graph, load
from propcore import random_presentation, run_sample
from yoneda_cps.decide import (INFINITY, check_tail_conditions,
                               finitely_generated, gk_dimension, noetherian)
from yoneda_cps.ext import hilbert_series, poincare_table
from yoneda_cps.graph import build_marked_graph, graph_params
from yoneda_cps.monomial import MonomialIdeal
from yoneda_cps.oracle import cross_validate, minimal_resolution
from yoneda_cps.presentation import parse_presentation
from yoneda_cps.walks import (EventuallyPeriodicWalk, enumerate_anchored,
                              is_decomposable, is_dense)


def _finish(num, name, failures, details=()):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num}] {name}: {status}")
    for line in details:
        print(f"    {line}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"criterion {num} ({name}): {failures}"


def test_criterion_1_graph_fixtures():
    failures = []
    start = time.perf_counter()
    built = {}
    for name in ("abc_cdab", "abc_cdab_bcda"):
        built[name] = build_marked_graph(MonomialIdeal(load(name)))
    elapsed = time.perf_counter() - start

    ga = built["abc_cdab"]
    if set(ga.vertices) != set(W("a", "b", "c", "d", "ab", "cd", "cda")):
        failures.append(f"first graph vertices: {ga.vertices}")
    expect_a = {(s, t) for s, t in
                [W("b", "cda"), W("c", "ab"), W("ab", "cd"),
                 W("cd", "ab"), W("cda", "ab")]}
    if set(ga.admissible) != expect_a:
        failures.append(f"first graph edges: {sorted(ga.admissible)}")

    gb = built["abc_cdab_bcda"]
    if set(gb.vertices) != set(W("a", "b", "c", "d", "ab", "bcd", "cd", "cda")):
        failures.append(f"second graph vertices: {gb.vertices}")
    expect_b = (expect_a - {W("cda", "ab")}) | {
        (s, t) for s, t in [W("cda", "b"), W("a", "bcd"), W("bcd", "a")]}
    if set(gb.admissible) != expect_b:
        failures.append(f"second graph edges: {sorted(gb.admissible)}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _finish(1, "graph fixtures rebuilt exactly", failures,
            [f"built both graphs in {elapsed:.3f}s"])


def test_criterion_2_admissibility():
    failures = []
    for name in ("abc_cdab", "abc_cdab_bcda"):
        g = graph(name)
        if not g.admissible[W("ab", "cd")]:
            failures.append(f"{name}: ab->cd should be admissible")
        if g.admissible[W("cd", "ab")]:
            failures.append(f"{name}: cd->ab should not be admissible")
    _finish(2, "edge admissibility", failures)


def test_criterion_3_density():
    failures = []
    w = EventuallyPeriodicWalk(W("c", "ab"), W("ab", "cd", "ab"))
    if not is_dense(graph("abc_cdab"), w, 1):
        failures.append("ab->cd should be dense in the first graph")
    if is_dense(graph("abc_cdab_bcda"), w, 1):
        failures.append("ab->cd should not be dense in the second graph")

    g = graph("two_chain_overlap")
    alt = EventuallyPeriodicWalk(
        W("p", "wxyz"), W("wxyz", "pq", "WXYZ", "pq", "wxyz"))
    window = (len(alt.prefix) - 1) + 2 * alt.cycle_length
    admissible = [i for i in range(1, window)
                  if g.admissible[(alt.vertex(i), alt.vertex(i + 1))]]
    if not admissible:
        failures.append("alternating walk lost its admissible edges")
    dense = [i for i in admissible if is_dense(g, alt, i)]
    if dense:
        failures.append(f"alternating walk has dense edges at {dense}")
    _finish(3, "edge density", failures,
            [f"alternating walk admissible tail edges: {admissible}"])


def test_criterion_4_decisions():
    failures = []
    start = time.perf_counter()

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    expect("fg first", finitely_generated(graph("abc_cdab")).value, True)
    expect("fg second", finitely_generated(graph("abc_cdab_bcda")).value, False)
    expect("fg overlap", finitely_generated(graph("two_chain_overlap")).value,
           False)
    expect("gk first", gk_dimension(graph("abc_cdab")), 1)
    expect("gk second", gk_dimension(graph("abc_cdab_bcda")), 1)
    expect("gk overlap", gk_dimension(graph("two_chain_overlap")), INFINITY)
    expect("gk x2y", gk_dimension(graph("x2y_family")), 2)
    expect("gk lex", gk_dimension(graph("sklyanin_leading")), INFINITY)
    for name in ("abc_cdab", "abc_cdab_bcda"):
        for side in ("left", "right"):
            expect(f"noetherian {side} {name}",
                   noetherian(graph(name), side).value, False)
    for side in ("left", "right"):
        expect(f"noetherian {side} x_square",
               noetherian(graph("x_square"), side).value, True)

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    _finish(4, "decision procedures", failures, [f"{elapsed:.2f}s"])


def test_criterion_5_oracle_equivalence():
    failures = []
    start = time.perf_counter()
    for name in ("x_square", "xy_single", "abc_cdab", "abc_cdab_bcda",
                 "x2y_family", "sklyanin_leading"):
        ideal = MonomialIdeal(load(name))
        gf2 = minimal_resolution(ideal, field_char=2, max_i=8, max_j=16)
        mismatches = cross_validate(graph(name), gf2)
        if mismatches:
            failures.append(f"{name}: walk counts disagree: {mismatches[:3]}")
        gfp = minimal_resolution(ideal, field_char=32003, max_i=8, max_j=16)
        if gf2.entries != gfp.entries:
            failures.append(f"{name}: GF(2) and GF(32003) tables differ")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, budget 60s")
    _finish(5, "resolution oracle equivalence", failures, [f"{elapsed:.2f}s"])


def test_criterion_6_property_suite():
    failures = []
    rng = random.Random(20260819)
    samples, checks = 0, 0
    parity_log = []
    while samples < 200:
        p = random_presentation(rng)
        done = run_sample(p, rng, parity_log=parity_log)
        if done:
            samples += 1
            checks += done
    details = [f"{samples} samples, {checks} assertions on the sound laws",
               f"parity extension law violations: {len(parity_log)}"]
    if parity_log:
        rels, vs, n = parity_log[0]
        walk = "->".join("".join(v) for v in vs)
        details.append("the literal parity law (admissible length-n prefix "
                       "with n or s-n even extends) is false; first "
                       "counterexample:")
        details.append(f"  relations {sorted(''.join(r) for r in rels)}, "
                       f"walk {walk}, prefix length n={n}")
        failures.append(f"{len(parity_log)} parity law violations; the other "
                        "checks all passed")
    _finish(6, "randomized walk-calculus suite", failures, details)


def test_criterion_7_bound_consistency():
    failures = []
    for name in ("x_square", "xy_single", "abc_cdab", "x2y_family"):
        g = graph(name)
        out = finitely_generated(g)
        if not out.value:
            failures.append(f"{name}: expected finitely generated")
            continue
        lo = out.bound_n if out.bound_n is not None else graph_params(g).bound_N
        for w in enumerate_anchored(g, lo + 3):
            if lo <= w.length <= lo + 3 and not is_decomposable(g, w.vertices):
                failures.append(f"{name}: indecomposable at {w.length}: "
                                f"{w.vertices}")
    for name in ("abc_cdab_bcda", "two_chain_overlap", "sklyanin_leading"):
        g = graph(name)
        out = finitely_generated(g)
        if out.value:
            failures.append(f"{name}: expected not finitely generated")
            continue
        if out.witness_periodic is None:
            failures.append(f"{name}: no eventually periodic witness")
        elif not check_tail_conditions(g, out.witness_periodic):
            failures.append(f"{name}: witness fails the tail check")
    _finish(7, "decision bound consistency", failures)


def test_criterion_8_series_agreement():
    failures = []
    for name in ("x_square", "xy_single", "abc_cdab", "abc_cdab_bcda",
                 "x2y_family", "two_chain_overlap", "sklyanin_leading"):
        g = graph(name)
        coeffs = hilbert_series(g).series(12)
        by_i = {}
        for (i, _), d in poincare_table(g, 12).entries.items():
            by_i[i] = by_i.get(i, 0) + d
        table_dims = [by_i.get(i, 0) for i in range(13)]
        if coeffs != table_dims:
            failures.append(f"{name}: series {coeffs} vs table {table_dims}")
    a_dims = {}
    for (i, _), d in poincare_table(graph("abc_cdab"), 12).entries.items():
        a_dims[i] = a_dims.get(i, 0) + d
    bad = {i: a_dims.get(i) for i in range(2, 13) if a_dims.get(i) != 2}
    if bad:
        failures.append(f"first example dims off the expected 2: {bad}")
    _finish(8, "cohomology series agreement", failures)
