"""Analyze every presentation in a directory and print a summary table.

Usage: python3 scripts/analyze_corpus.py [directory]

The directory defaults to tests/fixtures.  Each row shows the graph
size, both dimensions, the finite generation verdict with the deciding
method, and the two chain conditions.
"""

import argparse
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from yoneda_cps.decide import analyze
from yoneda_cps.presentation import parse_presentation
from yoneda_cps.walks import WalkCapExceeded


def fmt(value):
    if value == math.inf:
        return "inf"
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?",
                        default=str(Path(__file__).resolve().parent.parent
                                    / "tests" / "fixtures"))
    args = parser.parse_args(argv)

    paths = sorted(Path(args.directory).glob("*.json"))
    if not paths:
        print(f"no presentation files in {args.directory}", file=sys.stderr)
        return 1
    header = (f"{'name':22s} {'edges':>5s} {'gldim':>5s} {'gk':>4s} "
              f"{'fg':>5s} {'method':30s} {'noeth l/r'}")
    print(header)
    print("-" * len(header))
    for path in paths:
        p = parse_presentation(path.read_text())
        try:
            rep = analyze(p)
        except WalkCapExceeded as e:
            print(f"{path.stem:22s} walk cap exceeded: {e}")
            continue
        nl = "T" if rep.noetherian_left.value else "F"
        nr = "T" if rep.noetherian_right.value else "F"
        print(f"{path.stem:22s} {rep.params.edge_count:>5d} "
              f"{fmt(rep.gldim.value):>5s} {fmt(rep.gk_dim):>4s} "
              f"{str(rep.fg.value):>5s} {rep.fg.method:30s} {nl}/{nr}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`... | head`): stop quietly,
        # with stdout on devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
