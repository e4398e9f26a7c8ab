"""Rerun one workload N times and summarise each metric against its bound.

Usage:
    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark command of BENCHMARK.json once per seed, one run at
a time, with the run length of BENCHMARK.json, and prints for each
end-to-end metric the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) as a
share of the median, and the metric's bound from BENCHMARK.json.  A
spread at or over the bound is marked.  It also prints the failed share
of each run, which must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10,
                        help="at least 2, for quartiles")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        shares.append(Fraction(result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]
        mark = " over" if spread >= bound else ""
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{bound:>6}{mark}")
    print(f"\nfailed share the same in every run: {len(set(shares)) == 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
