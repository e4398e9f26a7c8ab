"""Command line interface.

All results go to stdout as JSON with sorted keys; progress and errors
go to stderr.  Exit codes: 0 success, 1 a usage error, bad input, an
exceeded walk cap, exhausted memory or an input file nested too deep
for the JSON parser (no search of the package recurses), 2 a broken
internal invariant (a failed assertion, or the precondition of
`monomial.end_state`, the vertex scan that only the graph build runs, on
vertices).

The module imports at its top only what every verb runs: parsing, the
annihilator graph and the walk cap.  Each `cmd_*` imports the modules
of its own verb, so `graph` never loads the walk calculus, the decision
procedures, the Hilbert series or the resolution oracle.
"""

import argparse
import json
import sys

from .graph import build_marked_graph, export_dot, export_json
from .monomial import PreconditionError
from .presentation import (PresentationError, WalkCapExceeded,
                           parse_presentation, walk_cap)


def _load(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as e:
            raise PresentationError(f"cannot read {path}: {e.strerror}")
        except UnicodeDecodeError as e:
            raise PresentationError(f"cannot read {path}: {e.reason}")
    return parse_presentation(text)


def _emit(obj):
    """obj as JSON, keys sorted, indent 2, written in blocks of 64 KiB
    or more: the whole text is never held at once, and few writes reach
    an unbuffered stdout."""
    block, size = [], 0
    for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj):
        block.append(chunk)
        size += len(chunk)
        if size >= 1 << 16:
            sys.stdout.write("".join(block))
            block, size = [], 0
    block.append("\n")
    sys.stdout.write("".join(block))


def _progress(msg):
    print(msg, file=sys.stderr)


def cmd_analyze(args):
    from .decide import analyze, report_to_json
    report = analyze(_load(args.presentation))
    _emit(report_to_json(report))
    return 0


def cmd_graph(args):
    g = build_marked_graph(_load(args.presentation))
    if args.format == "dot":
        sys.stdout.write(export_dot(g))
    else:
        _emit(export_json(g))
    return 0


def cmd_ext_basis(args):
    from .ext import generators_up_to, poincare_table
    g = build_marked_graph(_load(args.presentation))
    table = poincare_table(g, args.max_degree)
    classes = generators_up_to(g, args.max_degree)
    _emit({
        "max_cohomological_degree": args.max_degree,
        "dimensions": table.to_json(),
        "generators": [c.to_json() for c in classes],
    })
    return 0


def _parse_walk_arg(g, text, name):
    from .walks import parse_display_walk
    try:
        items = json.loads(text)
    except json.JSONDecodeError as e:
        raise PresentationError(f"{name} is not a JSON array: {e.msg}")
    if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
        raise PresentationError(f"{name} must be a JSON array of vertex words")
    try:
        return parse_display_walk(g, items)
    except ValueError as e:
        raise PresentationError(f"{name}: {e}")


def cmd_multiply(args):
    from .ext import ext_class, yoneda_mul
    g = build_marked_graph(_load(args.presentation))
    try:
        left = ext_class(g, _parse_walk_arg(g, args.left, "--left"))
        right = ext_class(g, _parse_walk_arg(g, args.right, "--right"))
    except ValueError as e:
        raise PresentationError(str(e))
    product = yoneda_mul(g, left, right)
    _emit({
        "left": left.to_json(),
        "right": right.to_json(),
        "product": product.to_json() if product else None,
        "zero": product is None,
    })
    return 0


def cmd_decide_fg(args):
    from .decide import finitely_generated
    g = build_marked_graph(_load(args.presentation))
    verdict = finitely_generated(g)
    _emit(verdict.to_json())
    return 0


def cmd_decide_noetherian(args):
    from .decide import noetherian
    g = build_marked_graph(_load(args.presentation))
    _emit(noetherian(g, args.side).to_json())
    return 0


def cmd_series(args):
    from .ext import hilbert_series
    g = build_marked_graph(_load(args.presentation))
    series = hilbert_series(g)
    out = series.to_json()
    out["pretty"] = str(series)
    if args.truncate is not None:
        out["coefficients"] = series.series(args.truncate)
    _emit(out)
    return 0


def cmd_validate(args):
    from .oracle import cross_validate, minimal_resolution
    g = build_marked_graph(_load(args.presentation))
    table = minimal_resolution(g.ideal, field_char=args.field_char,
                               max_i=args.max_i, max_j=args.max_j,
                               progress=_progress)
    mismatches = cross_validate(g, table)
    _emit({
        "betti": table.to_json(),
        "mismatches": mismatches,
        "params": {
            "edge_count": len(g.admissible),
        },
    })
    if mismatches:
        print("cross validation failed: walk counts disagree with the "
              "resolution", file=sys.stderr)
        return 2
    return 0


def _argument_error(args):
    """Why a command-line value or the walk cap is out of range, or None."""
    for name in ("max_i", "max_j", "max_degree", "truncate"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            return f"--{name.replace('_', '-')} must be >= 0, got {value}"
    if hasattr(args, "field_char"):
        from .linalg import is_small_prime
        if not is_small_prime(args.field_char):
            return ("--field-char must be a prime below 2^31, "
                    f"got {args.field_char}")
    try:
        walk_cap()
    except ValueError as e:
        return str(e)
    return None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _reject_option_before_verb(argv):
    """Name an unknown option before the verb as an unrecognized argument.

    The top-level parser takes no option but --help.  argparse would set
    `--jobs` in `--jobs 2 validate f` aside and read `2` as the verb.
    """
    first = argv[0] if argv else ""
    is_help = first == "-h" or "--help".startswith(first)
    if first.startswith("-") and not is_help:
        raise argparse.ArgumentError(None, f"unrecognized arguments: {first}")


def build_parser():
    parser = _Parser(
        prog="yoneda-cps",
        description="Finiteness properties of the cohomology of graded "
                    "monomial algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on one presentation")
    p.add_argument("presentation")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="export the annihilator graph")
    p.add_argument("presentation")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("ext-basis", help="basis and generators by degree")
    p.add_argument("presentation")
    p.add_argument("--max-degree", type=int, default=6)
    p.set_defaults(func=cmd_ext_basis)

    p = sub.add_parser("multiply", help="product of two basis classes")
    p.add_argument("presentation")
    p.add_argument("--left", required=True,
                   help='JSON walk, e.g. \'["b","cda"]\'')
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("decide-fg", help="finite generation verdict")
    p.add_argument("presentation")
    p.set_defaults(func=cmd_decide_fg)

    p = sub.add_parser("decide-noetherian", help="one-sided chain condition")
    p.add_argument("presentation")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.set_defaults(func=cmd_decide_noetherian)

    p = sub.add_parser("series", help="Hilbert series of the cohomology")
    p.add_argument("presentation")
    p.add_argument("--truncate", type=int, default=None,
                   help="also expand this many coefficients")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("validate", help="cross-check walks against the "
                                        "resolution oracle")
    p.add_argument("presentation")
    p.add_argument("--field-char", type=int, default=2)
    p.add_argument("--max-i", type=int, default=8)
    p.add_argument("--max-j", type=int, default=16)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        _reject_option_before_verb(argv)
        args = build_parser().parse_args(argv)
        problem = _argument_error(args)
    except argparse.ArgumentError as e:    # a usage error
        problem = str(e)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (PresentationError, WalkCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError as e:
        print(f"error: input too deep to process ({e})", file=sys.stderr)
        return 1
    except MemoryError:
        # Reported after the handler: until it ends, the traceback keeps
        # alive the frames that hold the exhausted memory, and printing
        # could fail for want of it.
        pass
    except (AssertionError, PreconditionError) as e:
        # A PreconditionError comes only from `end_state`, which only the
        # graph build runs, on vertices: a bug, not bad input.
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 2
    print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
