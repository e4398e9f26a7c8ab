"""Shared pieces of the workloads: loading the program, rounds, metrics."""

import importlib
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
FIXTURE_NAMES = ("x_square", "xy_single", "abc_cdab", "abc_cdab_bcda",
                 "x2y_family", "two_chain_overlap", "sklyanin_leading")
MODULES = ("presentation", "monomial", "graph", "walks", "ext", "decide",
           "ratfun", "oracle", "linalg", "cli")
SETUP_REPEATS = 11


class SetupError(Exception):
    """The checkout does not hold the program the benchmark measures."""


def require_checkout():
    missing = [str(p.relative_to(ROOT)) for p in
               (SRC / "yoneda_cps" / "__init__.py", FIXTURES)
               if not p.exists()]
    if missing:
        raise SetupError("not a yoneda-cps checkout: missing "
                         + ", ".join(missing))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Program:
    """The package's modules, imported afresh from the checkout.

    Workloads call the program through these module objects at call
    time, so the tracer's wrappers are seen when they are installed.
    """

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "yoneda_cps" or n.startswith("yoneda_cps.")]:
            del sys.modules[name]
        self.package = importlib.import_module("yoneda_cps")
        origin = Path(self.package.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise SetupError(f"yoneda_cps imported from {origin}, "
                             f"not from {SRC}")
        self.modules = {name: importlib.import_module(f"yoneda_cps.{name}")
                        for name in MODULES}
        for name, mod in self.modules.items():
            setattr(self, name, mod)

    def load_fixture(self, name):
        text = (FIXTURES / f"{name}.json").read_text()
        return self.presentation.parse_presentation(text)


class Op:
    """Outcome of one operation: its latency and whether it failed.

    seconds is wall time less the speed probes inside it until
    Round.scale puts it at the reference speed; probes is the range of
    probes that ran inside it, None for a time that is not measured.
    """
    __slots__ = ("kind", "seconds", "failed", "probes")

    def __init__(self, kind, seconds, failed=False, probes=None):
        self.kind = kind
        self.seconds = seconds
        self.failed = failed
        self.probes = probes


class Round:
    """One pass over a workload's fixed set of operations, timed with
    a speed.SpeedProbe."""

    def __init__(self, probe):
        self.probe = probe
        self.ops = []
        self.work = 0          # units of work done (workload-defined)
        self.wall = 0.0
        self.probes = None
        self.outputs = None    # what the checks read
        self.digest = None     # hash of the outputs, to compare rounds
        self._mark = probe.begin()

    def finish(self):
        """Take the round's wall time, from its creation until now."""
        self.wall, self.probes = self.probe.end(self._mark)

    def scale(self):
        """Put every time of the round at the reference speed."""
        self.wall = self.probe.scale(self.wall, self.probes)
        for op in self.ops:
            if op.probes is not None:
                op.seconds = self.probe.scale(op.seconds, op.probes)

    def timed(self, kind, fn, *args, fail_on=(), failed_seconds=None,
              **kwargs):
        """Run fn, record its latency; exceptions in fail_on fail the op.

        Returns (result, failed).  A failed op enters at failed_seconds
        when given (a deadline), else at the time it took.
        """
        mark = self.probe.begin()
        try:
            result = fn(*args, **kwargs)
        except fail_on as exc:
            took, probes = self.probe.end(mark)
            if failed_seconds is not None:
                took, probes = failed_seconds, None
            self.ops.append(Op(kind, took, failed=True, probes=probes))
            return exc, True
        took, probes = self.probe.end(mark)
        self.ops.append(Op(kind, took, probes=probes))
        return result, False


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end_metrics(rounds, setup_s, peak_mb, work_kinds=None):
    """Every end-to-end metric from the untraced rounds of one run.

    Every round runs the same operations in the same order, so an
    operation's latency is its median over the rounds; the latency
    quantiles are taken over operations.  Work is timed by the
    operations of work_kinds (all when None).
    """
    latencies = [1000.0 * statistics.median(op.seconds for op in same)
                 for same in zip(*(r.ops for r in rounds))]
    work = sum(r.work for r in rounds)
    work_seconds = sum(op.seconds for r in rounds for op in r.ops
                       if work_kinds is None or op.kind in work_kinds)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "round_s": statistics.median(r.wall for r in rounds),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "work_per_s": work / work_seconds,
    }


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})
