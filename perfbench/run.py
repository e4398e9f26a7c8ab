"""yoneda-cps benchmark: one workload per process, one JSON line out.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: decide-corpus, oracle-validate, walks-table, cli-fixtures.
The run imports the package from src/ of the checkout it sits in, sets
up (timed several times; setup_s is the median), then runs whole rounds
of the workload's operations until S seconds have passed, checks the
outputs against the reference routines, and prints one JSON object as
its last line: correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
every time taken at the reference speed of speed.py, so that the
changing speed of a shared machine does not show in them.
With --trace 1 the run alternates untraced and traced passes of the
same work and prints the per-layer metrics, taken from the traced
passes, with the tracing overhead; the spans of the first traced pass
are written to .perfbench/ in the checkout.
"""

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time

from harness import (ROOT, SETUP_REPEATS, SetupError, declared_metrics,
                     end_to_end_metrics, peak_rss_mb, require_checkout)
from reference import self_check
from speed import SpeedProbe
from tracing import LAYERS, Tracer
from workloads import (CLI_VERBS, FG_METHODS, WORKLOADS, Workload,
                       homology_keys)

PROBE_COUNT = 500   # speed probes behind machine.probe_us


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setup(workload):
    """Set up SETUP_REPEATS times; the (seconds, probes) of each, whose
    median at the reference speed is setup_s."""
    spans = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        mark = workload.probe.begin()
        workload.setup()
        spans.append(workload.probe.end(mark))
    return spans


def keep(workload, rounds, r):
    """Append a round.  Only the first round with outputs keeps them;
    every round with outputs keeps a hash of them, so memory does not
    grow with the number of rounds and the rounds can be compared."""
    if r.outputs is not None:
        canonical = repr(workload.canonical(r.outputs)).encode()
        r.digest = hashlib.sha256(canonical).hexdigest()
        if any(x.outputs is not None for x in rounds):
            r.outputs = None
    rounds.append(r)


def check(workload, rounds):
    failures = self_check(workload.fixture_graph) + workload.check(rounds)
    if len({r.digest for r in rounds if r.digest}) > 1:
        failures.append(f"{type(workload).__name__}: rounds disagree")
    return failures


def run_untraced(workload, seconds):
    """(rounds, peak resident MB through the first timed round).

    The peak is taken there because the rounds a run fits in depend on
    the machine's speed, and each round adds to what the run keeps.
    """
    for _ in range(workload.warmup_rounds):
        workload.run_round()
    rounds = []
    start = time.perf_counter()
    while (len(rounds) < workload.min_rounds
           or time.perf_counter() - start < seconds):
        keep(workload, rounds, workload.run_round())
        if len(rounds) == 1:
            peak_mb = peak_rss_mb()
    return rounds, peak_mb


def run_traced(workload, seconds, tracer):
    """Alternate untraced and traced passes until seconds have passed.

    Returns (rounds, passes): every round run, for the operation counts
    and the checks, and one (untraced, traced, record) triple per traced
    pass.  A workload whose traced pass is not its round (cli-fixtures)
    also runs its rounds, for the checks and the timings they give.
    """
    prog = workload.prog
    rounds = []
    passes = []
    if type(workload).trace_pass is not Workload.trace_pass:
        for _ in range(workload.min_rounds):
            keep(workload, rounds, workload.run_round())
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain = workload.trace_pass()
        tracer.reset()
        with tracer.tracing(prog.modules, also=[prog.package]):
            traced = workload.trace_pass()
        passes.append((plain, traced, tracer.record))
        keep(workload, rounds, plain)
        keep(workload, rounds, traced)
    return rounds, passes


def layer_metrics(passes, extras):
    """Every per-layer metric; the median over traced passes."""
    per_pass = []
    for plain, traced, rec in passes:
        ms, tot, calls = rec.self_ms, rec.total_ms, rec.calls

        def c(name):
            return rec.counts.get(name, 0)
        m = {
            "presentation.parse_ms": tot("presentation.parse_presentation"),
            "monomial.ideal_ms": ms(*(f"monomial.MonomialIdeal.{f}" for f in
                                      ("__init__", "contains", "occurrences",
                                       "normal_count"))),
            "monomial.automaton_states": c("monomial.automaton_states"),
            "graph.build_ms": ms("graph.build_graph", "graph.build_marked_graph"),
            "graph.mark_ms": ms("graph.mark_admissible_edges"),
            "graph.vertices": c("graph.vertices"),
            "graph.edges": c("graph.edges"),
            "graph.bound_N_max": c("graph.bound_N_max"),
            "graph.params_ms": ms("graph.graph_params"),
            "graph.params_deadline_hits": c("graph.params_deadline_hits"),
            "graph.scc_ms": ms("graph.circuits_and_sccs"),
            "graph.scc_calls": calls("graph.circuits_and_sccs"),
            "decide.gldim_ms": ms("decide.global_dimension"),
            "decide.gk_ms": ms("decide.gk_dimension"),
            "decide.fg_ms": ms("decide.finitely_generated",
                               "decide.check_tail_conditions"),
            "decide.noetherian_ms": ms("decide.noetherian"),
            "decide.fg_cap_trips": c("decide.fg_cap_trips"),
            "walks.anchored_walks": c("walks.anchored_walks"),
            "walks.greedy_parse_calls": calls("walks.greedy_parse"),
            "walks.greedy_parse_hits": c("walks.greedy_parse_hits"),
            "walks.greedy_parse_ms": ms("walks.greedy_parse"),
            "ext.poincare_ms": ms("ext.poincare_table"),
            "ext.generators_ms": ms("ext.generators_up_to"),
            "ext.mul_ms": ms("ext.yoneda_mul", "ext.ext_class"),
            "ext.hilbert_ms": ms("ext.hilbert_series"),
            "ratfun.bareiss_ms": tot("ratfun.bareiss_det"),
            "ratfun.bareiss_calls": calls("ratfun.bareiss_det"),
            "ratfun.make_rational_ms": tot("ratfun.make_rational"),
            "oracle.chain_words_ms": ms("oracle.chain_words"),
            "oracle.chain_words": c("oracle.chain_words"),
            "oracle.word_homology_ms": ms("oracle.word_homology"),
            "oracle.cross_validate_ms": ms("oracle.cross_validate"),
            "oracle.zero_homology_words": c("oracle.zero_homology_words"),
            "oracle.homology_keys": homology_keys(rec.notes),
            "linalg.rank_calls": calls("linalg.gf2_rank", "linalg.gfp_rank"),
            "linalg.rank_rows": c("linalg.rank_rows"),
            "linalg.rank_ms": ms("linalg.gf2_rank", "linalg.gfp_rank"),
            "trace.untraced_s": plain.wall,
            "trace.traced_s": traced.wall,
            "trace.overhead_s": traced.wall - plain.wall,
            "trace.overhead_pct": 100.0 * (traced.wall - plain.wall) / plain.wall,
            "trace.spans": len(rec.spans) + rec.dropped,
            "trace.spans_dropped": rec.dropped,
        }
        for method in FG_METHODS:
            m[f"decide.fg.{method}"] = c(f"decide.fg.{method}")
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = rec.layer_self_ms(layer)
        m["cli.interpreter_ms"] = 0.0
        m["cli.import_ms"] = 0.0
        for verb in CLI_VERBS:
            m[f"cli.{verb}_ms"] = 0.0
        m.update(extras)
        per_pass.append(m)
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def write_spans(workload_name, seed, passes):
    rec = passes[0][2]
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload_name}-{seed}.json"
    with path.open("w") as fh:
        json.dump({"workload": workload_name, "seed": seed,
                   "fields": ["id", "name", "start", "end", "parent"],
                   "dropped": rec.dropped, "spans": rec.spans}, fh)


def main(argv=None):
    args = parse_args(argv)
    try:
        require_checkout()
        end_to_end, per_layer = declared_metrics()
    except (SetupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    probe = SpeedProbe()
    workload = WORKLOADS[args.workload](args.seed, probe)
    if not args.trace:
        probe.start()
    try:
        setup_spans = timed_setup(workload)
    except SetupError as e:
        probe.stop()
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.trace:
        tracer = Tracer()
        workload.install_hooks(tracer)
        rounds, passes = run_traced(workload, args.seconds, tracer)
        failures = check(workload, rounds)
        values = layer_metrics(passes, workload.trace_extras(rounds))
        values["machine.probe_us"] = probe.measure(PROBE_COUNT)
        write_spans(args.workload, args.seed, passes)
        units = per_layer
    else:
        rounds, peak_mb = run_untraced(workload, args.seconds)
        probe.stop()
        for r in rounds:
            r.scale()
        setup_s = statistics.median(probe.scale(*span) for span in setup_spans)
        failures = check(workload, rounds)
        values = end_to_end_metrics(rounds, setup_s, peak_mb,
                                    workload.work_kinds)
        units = end_to_end

    missing = set(units) - set(values)
    extra = set(values) - set(units)
    if missing or extra:
        print(f"error: metrics out of step with BENCHMARK.json: "
              f"missing {sorted(missing)}, undeclared {sorted(extra)}",
              file=sys.stderr)
        return 1
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(op.failed for r in rounds for op in r.ops)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
