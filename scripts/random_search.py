"""Sweep random monomial presentations for noteworthy specimens.

Usage: python3 scripts/random_search.py [--samples N] [--seed S] [--hunt KIND]
       python3 scripts/random_search.py --census LETTERS:MIN-MAX:K [--hunt KIND]

--census x,y:2-4:3 runs the hunt over every presentation on the letters
x and y whose relations are 1 to 3 distinct words of degree 2 to 4, none
a factor of another, whose letters form a prefix of the alphabet
(`propcore.census`), in place of random draws.

Hunts:
  fg-false   presentations whose cohomology is not finitely generated,
             printed with the certifying lasso and, when one passes the
             tail check, an eventually periodic walk
  parity     walks with an admissible even-remainder prefix that fail
             to extend (counterexamples to the naive parity closure)
  fg-check   presentations on which the automaton of indecomposable
             walks disagrees with the reference routes of
             tests/propcore.py: on the generators up to degree 8
             (against the listing of every anchored walk), on finite
             generation (against the premise chain), on the top
             generator degree of a yes (against the listing one degree
             past it), or on its first walk of length N or N+1
             (against the pruned walk search); or whose "no" carries a
             lasso (P, C, S) that fails: paths that do not join, a
             decomposable P . C^k . S for some k <= 8, a dense tail
             edge on the periodic walk P . C C C ..., or no periodic
             walk where the premise chain has one; or with an
             admissible edge v -> t whose greedy parse is not the
             closed form (v[-1:], t v[:-1]); or with an automaton state
             whose partner steps or acceptance, read off the graph,
             differ from the suffix scans over the ideal; exits 1 if
             there is one
  n-bound    counterexamples to the two laws observed of the bound N:
             a "no" with no indecomposable walk of length N or N+1, or
             a "yes" whose top generator degree exceeds 2E(M-1)+L+3
  oracle-check
             presentations on which the resolution oracle's sum over
             factor sequences disagrees with the per-chain-word route
             of tests/dense_oracle.py, on the table or the truncation
             flag, or the homology of a factor key, which both routes
             reduce alike, disagrees with the whole-complex ranks of
             tests/dense_oracle.py, in GF(2) at (i, j) <= (8, 10) or
             in GF(3) at (4, 9); or on which the oracle's relation trie
             lists other chain words or factor words up to length 10,
             or other min_end arrays, than the slicing references of
             tests/propcore.py; exits 1 if there is one
  product-check
             presentations on which the Yoneda product disagrees with
             the seed search of tests/propcore.py on some pair of
             anchored classes of length <= 3, or the greedy parse with
             the suffix scan over the ideal on the walks of up to 3
             edges from every vertex; exits 1 if there is one
  series-check
             presentations on which the graph build or a graph pass
             disagrees with its reference route of tests/propcore.py:
             membership by `contains`, by `occurrences`, which
             share the ideal's automaton over the reversed relations,
             and by comparing every window, on each
             vertex and on each relation with a letter on either side;
             a vertex's out-list with the minimal annihilators that a
             scan of every normal word finds, `succ` with the positions
             of the out-lists, the key order of `admissible` with the
             edges sorted by `sort_key`, the Hilbert series
             with the bordered determinants of Cramer's rule, the L
             search with the search over whole paths, the SCC summary
             with the pass over vertex tuples, the walk counts on the
             coarsest out-equitable quotient with those on the whole
             graph for n + 1 + 2 n_cyc terms, the noetherian verdict on
             either side with the sort by `sort_key` over in-lists, or
             the circuit that global dimension names with the one the
             reference traces; exits 1 if there is one
  cli-fuzz   inputs on which a console verb misbehaves.  Each drawn
             presentation is renamed and broken by a small grammar:
             names with quotes, backslashes, spaces, arrows, control
             characters, lone surrogates, 300 letters or none; wrong
             types; malformed JSON; and out-of-range window flags.
             Every verb runs on it in process under a walk cap of
             CLI_FUZZ_CAP, writing to UTF-8 streams as a terminal
             would.  A call misbehaves when it exits other than 0 or 1,
             raises, prints a traceback, prints on exit 1, or prints on
             exit 0 JSON that does not parse or DOT whose identifiers
             are not well-formed quoted strings.  Specimens print as
             the input file, after a line naming the call; exits 1 if
             there is one
  summary    no specimens, just the verdict method distribution

Specimens print as one JSON presentation per line, ready to be saved
as fixture files.
"""

import argparse
import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from dense_oracle import (factor_keys, minimal_resolution_by_words,
                          reference_splitting_homology)
from propcore import (bordered_hilbert_series, census,
                      closed_form_misses, collect_walks, dense_tail_edges,
                      indecomposable_walks, oracle_trie_mismatch,
                      parity_extension_violations,
                      parse_cases, parse_mismatches, partner_mismatches,
                      product_mismatches,
                      random_presentation, reference_annihilators,
                      reference_circuit_summary, reference_contains,
                      reference_finitely_generated, reference_generators,
                      reference_leading_path, reference_noetherian,
                      reference_walk_counts)
from yoneda_cps import cli
from yoneda_cps.decide import analyze, global_dimension, noetherian
from yoneda_cps.ext import (_quotient, _walk_counts, generators_up_to,
                            hilbert_series)
from yoneda_cps.graph import build_marked_graph, graph_params
from yoneda_cps.monomial import MonomialIdeal
from yoneda_cps.oracle import (_min_occurrence_ends, _RelationTrie,
                               _splitting_homology, chain_words,
                               minimal_resolution)
from yoneda_cps.presentation import format_word, serialize_presentation
from yoneda_cps.walks import (EventuallyPeriodicWalk, WalkAutomaton,
                              WalkCapExceeded, is_decomposable)


def fg_disagreement(g, fg, cap):
    """How the automaton disagrees with the reference routes, or None:
    on the generators up to degree 8, on finite generation, on the top
    generator degree of a yes and, on a cyclic graph, on the first walk
    at lengths N and N+1; on a "no", how its lasso fails; whether an
    edge's partner leaves its closed form; and whether a state's partner
    steps or acceptance differ from the suffix scans over the ideal."""
    if closed_form_misses(g):
        return "an admissible edge's partner against its closed form"
    misses = partner_mismatches(g, cap)[1]
    if misses:
        return (f"a partner {misses[0][0]} against the suffix scan, "
                f"and {len(misses) - 1} more")
    if generators_up_to(g, 8) != reference_generators(g, 8, cap):
        return "generators up to degree 8"
    reference = reference_finitely_generated(g, cap)
    if reference.value != fg.value:
        return "the verdict against the premise chain"
    if not fg.value:
        prefix, cycle, suffix = fg.witness_family
        if not prefix[-1] == cycle[0] == cycle[-1] == suffix[0]:
            return "the lasso's paths do not join"
        for k in range(9):
            if is_decomposable(g, prefix + cycle[1:] * k + suffix[1:]):
                return f"the lasso is decomposable at k = {k}"
        if dense_tail_edges(g, EventuallyPeriodicWalk(prefix, cycle)):
            return "a dense tail edge on the lasso's periodic walk"
        if reference.witness_periodic and not fg.witness_periodic:
            return "no periodic walk where the premise chain has one"
    if fg.value:
        bound = fg.generator_degree_bound
        top = max(c.walk.cohomological_degree
                  for c in reference_generators(g, bound + 1, cap))
        if top != bound:
            return f"top generator degree {bound}, listed {top}"
    if not g.cycles.has_cycle:
        return None
    n = graph_params(g).bound_N
    searched = next(indecomposable_walks(g, (n, n + 1), cap), None)
    if next(WalkAutomaton(g, cap).accepted((n, n + 1)), None) != searched:
        return f"first walk at lengths ({n}, {n + 1})"
    return None


def n_bound_counterexample(rep, cap):
    """Which observed law of the bound N the report breaks, or None: a
    "no" has an indecomposable walk of length N or N+1, and a "yes" has
    its top generator in degree at most 2E(M-1)+L+3."""
    p = rep.params
    if not rep.fg.value:
        n = p.bound_N
        if next(WalkAutomaton(rep.graph, cap).accepted((n, n + 1)),
                None) is None:
            return f"a no without an indecomposable walk at N = {n} or N+1"
        return None
    law = 2 * p.edge_count * (p.max_edge_class - 1) + p.max_leading_path + 3
    if rep.fg.generator_degree_bound > law:
        return (f"a yes with top generator degree "
                f"{rep.fg.generator_degree_bound} > 2E(M-1)+L+3 = {law}")
    return None


ORACLE_WINDOWS = ((2, 8, 10), (3, 4, 9))   # (field, max_i, max_j)
ORACLE_TRIE_LENGTH = 10   # the longest word the trie check lists


def oracle_disagreement(ideal, checked):
    """Where the relation trie differs from the slicing references (see
    `propcore.oracle_trie_mismatch`), or the first window where the
    factor route and the per-chain-word route of the resolution oracle
    differ, or where `_splitting_homology`, which both routes share,
    differs from the whole-complex ranks of
    `reference_splitting_homology` on a factor key of the window's chain
    words; or None.  checked holds the (key, window) pairs already
    compared, and grows by the new ones."""
    problem = oracle_trie_mismatch(ideal, ORACLE_TRIE_LENGTH)
    if problem:
        return f"the relation trie on {problem}"
    trie = _RelationTrie(ideal.relations)
    for window in ORACLE_WINDOWS:
        field_char, max_i, max_j = window
        by_factors = minimal_resolution(ideal, *window)
        by_words = minimal_resolution_by_words(ideal, *window)
        if (by_factors.entries != by_words.entries or
                by_factors.truncation_reached != by_words.truncation_reached):
            return "GF({}) at ({}, {})".format(*window)
        words = chain_words(ideal, max_j)[0]
        for w, min_end in zip(words, _min_occurrence_ends(trie, words)):
            for key in factor_keys(len(w), min_end):
                if (key, window) in checked:
                    continue
                checked.add((key, window))
                if (_splitting_homology(*key, max_i, field_char) !=
                        reference_splitting_homology(*key, max_i,
                                                     field_char)):
                    return "factor key {} in GF({}) at ({}, {})".format(
                        key, *window)
    return None


def series_disagreement(g):
    """Which of membership, the out-lists, `succ`, the edge order, the
    Hilbert series, L, the SCC summary, the quotient's walk counts, the
    noetherian verdicts and the global dimension circuit differs from
    its reference route, or None.  A series that trips its own
    invariant counts."""
    ideal, rels = g.ideal, g.ideal.relations
    extended = [w for r in rels for x in ideal.presentation.generator_names
                for w in ((x,) + r, r + (x,))]
    for w in list(g.vertices) + extended:
        routes = (ideal.contains(w), bool(ideal.occurrences(w)),
                  reference_contains(rels, w))
        if len(set(routes)) > 1:
            return (f"membership of {format_word(w)}: `contains`, "
                    f"`occurrences` and the window scan say {routes}")
    cap = max(map(len, rels)) - 1
    for v in g.vertices:
        if g.out[v] != reference_annihilators(g.ideal, v, cap):
            return (f"the out-list of {format_word(v)} against the scan "
                    "of every normal word")
    position = {v: i for i, v in enumerate(g.vertices)}
    if list(g.succ) != [[position[t] for t in g.out[v]] for v in g.vertices]:
        return "succ against the positions of the out-lists"
    key = g.ideal.sort_key
    if list(g.admissible) != sorted(g.admissible,
                                    key=lambda e: (key(e[0]), key(e[1]))):
        return "the edge order against the sort by `sort_key`"
    try:
        series = hilbert_series(g)
    except AssertionError as e:
        return f"the Hilbert series: {e}"
    if series != bordered_hilbert_series(g):
        return "the Hilbert series against the bordered determinants"
    p = graph_params(g)
    if (p.max_leading_path, p.l_defaulted) != reference_leading_path(g):
        return "L against the search over whole paths"
    summary, circuits = reference_circuit_summary(g)
    if g.cycles != summary:
        return "the SCC summary against the pass over vertex tuples"
    _, succ, starts = _quotient(g)
    length = len(g.vertices) + 1 + 2 * sum(map(len, summary.cyclic))
    if _walk_counts(succ, starts, length) != reference_walk_counts(g, length):
        return "the quotient's walk counts against the whole graph's"
    for side in ("left", "right"):
        if noetherian(g, side) != reference_noetherian(g, side):
            return f"the {side} noetherian verdict against the sorted scan"
    if summary.has_cycle and global_dimension(g).witness != \
            (circuits[0] if circuits else None):
        return "the global dimension circuit against the traced one"
    return None


def product_disagreement(g):
    """The first pair of anchored classes of length <= 3 on which
    yoneda_mul and the seed search differ, or the first walk query on
    which the greedy parse and the suffix scan over the ideal differ, or
    None.  A seed search that finds two seeds counts."""
    parses = parse_mismatches(g, parse_cases(g))
    if parses:
        word, length, after = parses[0]
        after = "" if after is None else f" after {''.join(after)}"
        return (f"the parse of {''.join(word)} at length {length}{after} "
                f"and {len(parses) - 1} more queries")
    try:
        misses = product_mismatches(g, 3)[1]
    except AssertionError as e:
        return f"the seed search: {e}"
    if misses:
        left, right = ("->".join("".join(v) for v in vs) for vs in misses[0])
        return f"({left}) * ({right}) and {len(misses) - 1} more pairs"
    return None


HOSTILE_NAMES = ('a"b', "c\\d", "a b", "->", "x->y", "\t", "\n", "\x00",
                 "\x1b[1m", "\ud800", "\udcff", "n" * 300, "", "*", "xy",
                 "\u00e9")
WRONG_TYPES = (None, 1, 1.5, True, "x", {}, [], [[]], ["x", 1])
BROKEN_TEXTS = (b"", b"{", b"\xff\xfe", b"[]", b"null", b'{"generators": ')
BROKEN_WALKS = ("[", "{}", "[1]", "[]", '"x"', "", '["\\ud800"]')
WINDOW_VALUES = ("0", "1", "2", "3", "5")
BROKEN_WINDOWS = ("-1", "", "x", "1.5")
FIELD_VALUES = ("2", "3", "32003", str(2 ** 31 - 1))
BROKEN_FIELDS = ("-2", "0", "1", "4", str(2 ** 31), "x")
CLI_FUZZ_CAP = 1000    # small, so that a tripped cap is among the outcomes
_DOT_ID = r'"(?:[^"\\]|\\.)*"'
_DOT = re.compile(r"digraph annihilator_graph \{\n"
                  rf"(?:  {_DOT_ID};\n)*"
                  rf"(?:  {_DOT_ID} -> {_DOT_ID} \[style=(?:solid|dashed)\];\n)*"
                  r"\}\n")


def hostile_input(p, rng):
    """p's input file and one call of every verb on it, each made
    hostile by the grammar of the cli-fuzz hunt; the calls name the file
    as FILE."""
    rename = {name: rng.choice(HOSTILE_NAMES) if rng.random() < 0.5 else name
              for name in p.generator_names}
    names = [rename[name] for name in p.generator_names]
    doc = {"generators": names,
           "relations": [[rename[name] for name in r] for r in p.relations]}
    roll = rng.random()
    if roll < 0.15:
        key = rng.choice(("generators", "relations", "generator_order"))
        doc[key] = rng.choice(WRONG_TYPES)
    elif roll < 0.25 and doc["relations"]:
        doc["relations"][0][0] = rng.choice(WRONG_TYPES)
    text = json.dumps(doc).encode()
    if roll > 0.9:
        text = rng.choice((text[:rng.randrange(len(text))],
                           rng.choice(BROKEN_TEXTS)))

    def pick(values, broken):
        return rng.choice(broken if rng.random() < 0.2 else values)

    def walk():
        return pick([json.dumps([rng.choice(names) for _ in range(k)])
                     for k in (1, 2)], BROKEN_WALKS)

    def window():
        return pick(WINDOW_VALUES, BROKEN_WINDOWS)

    calls = [["analyze"], ["graph"], ["graph", "--format", "dot"],
             ["ext-basis", "--max-degree", window()],
             ["multiply", "--left", walk(), "--right", walk()],
             ["decide-fg"],
             ["decide-noetherian", "--side", rng.choice(("left", "right"))],
             ["series", "--truncate", window()],
             ["validate", "--field-char", pick(FIELD_VALUES, BROKEN_FIELDS),
              "--max-i", window(), "--max-j", window()]]
    return text, [argv + ["FILE"] for argv in calls]


def cli_misbehaviour(argv):
    """How `cli.main(argv)` misbehaves, or None.  stdout encodes as
    strict UTF-8 and stderr with backslash escapes, as a terminal's
    streams do, so that an unprintable name fails here as it would
    there."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                           errors="backslashreplace")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
            out.flush()
            err.flush()
    except Exception as e:    # the hunt reports what escapes and goes on
        return f"raised {type(e).__name__}: {e}"
    stdout = out.buffer.getvalue().decode("utf-8")
    stderr = err.buffer.getvalue().decode("utf-8")
    if code not in (0, 1):
        return f"exit {code}: {stderr.strip()}"
    if "Traceback" in stdout + stderr:
        return "a traceback"
    if code == 1:
        return "output on exit 1" if stdout else None
    if "dot" in argv:
        return None if _DOT.fullmatch(stdout) else "malformed DOT"
    try:
        json.loads(stdout)
    except json.JSONDecodeError as e:
        return f"malformed JSON: {e}"
    return None


def cli_fuzz_problem(p, rng):
    """The first call of the cli-fuzz hunt on p that misbehaves, as
    (argv, input file, how), or None."""
    text, calls = hostile_input(p, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(text)
        for argv in calls:
            problem = cli_misbehaviour([path if a == "FILE" else a
                                        for a in argv])
            if problem:
                return argv, text, problem
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--census", metavar="LETTERS:MIN-MAX:K",
                        help="every presentation of the census part, "
                        "e.g. x,y:2-4:3, in place of random draws")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hunt", choices=("cli-fuzz", "fg-false", "fg-check",
                                           "n-bound", "oracle-check",
                                           "parity", "product-check",
                                           "series-check", "summary"),
                        default="summary")
    parser.add_argument("--max-gens", type=int, default=3)
    parser.add_argument("--max-relations", type=int, default=4)
    parser.add_argument("--max-degree", type=int, default=4)
    parser.add_argument("--cap", type=int, default=200000,
                        help="walk enumeration ceiling per sample")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    if args.census:
        try:
            letters, degrees, k = args.census.split(":")
            low, high = degrees.split("-")
            presentations = census(letters.split(","), int(low), int(high),
                                   int(k))
        except ValueError as e:
            parser.error(f"--census wants LETTERS:MIN-MAX:K such as "
                         f"x,y:2-4:3, got {args.census!r}: {e}")
    else:
        presentations = [random_presentation(rng, args.max_gens,
                                             args.max_relations,
                                             args.max_degree)
                         for _ in range(args.samples)]
    if args.hunt == "cli-fuzz":
        os.environ["YONEDA_CPS_MAX_WALK_CAP"] = str(CLI_FUZZ_CAP)
    checked = set()    # oracle-check: (factor key, window) pairs compared
    methods = {}
    skipped = 0
    hits = 0
    for p in presentations:
        if args.hunt == "parity":
            g = build_marked_graph(MonomialIdeal(p))
            # walks of length up to 4, or None past the enumeration cap
            collected = collect_walks(g)
            if collected is None:
                skipped += 1
                continue
            specimens = parity_extension_violations(g, collected[0])
            if specimens:
                hits += 1
                vs, n = specimens[0]
                walk = "->".join("".join(v) for v in vs)
                print(f"# walk {walk} inadmissible, prefix n={n} admissible")
                print(json.dumps(serialize_presentation(p)))
            continue
        if args.hunt == "cli-fuzz":
            found = cli_fuzz_problem(p, rng)
            if found:
                hits += 1
                call, text, problem = found
                print(f"# {problem}: yoneda-cps {json.dumps(call)}")
                print(text.decode("utf-8", "backslashreplace"))
            continue
        if args.hunt == "oracle-check":
            problem = oracle_disagreement(MonomialIdeal(p), checked)
            if problem:
                hits += 1
                print(f"# the oracle's routes disagree: {problem}")
                print(json.dumps(serialize_presentation(p)))
            continue
        if args.hunt == "product-check":
            problem = product_disagreement(build_marked_graph(MonomialIdeal(p)))
            if problem:
                hits += 1
                print(f"# the products disagree: {problem}")
                print(json.dumps(serialize_presentation(p)))
            continue
        if args.hunt == "series-check":
            problem = series_disagreement(build_marked_graph(MonomialIdeal(p)))
            if problem:
                hits += 1
                print(f"# the routes disagree: {problem}")
                print(json.dumps(serialize_presentation(p)))
            continue
        try:
            rep = analyze(p, cap=args.cap)
        except WalkCapExceeded:
            skipped += 1
            continue
        methods[rep.fg.method] = methods.get(rep.fg.method, 0) + 1
        if args.hunt == "fg-check":
            try:
                problem = fg_disagreement(rep.graph, rep.fg, args.cap)
            except WalkCapExceeded:
                skipped += 1
                continue
            if problem:
                hits += 1
                print(f"# the automaton disagrees: {problem}")
                print(json.dumps(serialize_presentation(p)))
        if args.hunt == "n-bound":
            try:
                problem = n_bound_counterexample(rep, args.cap)
            except WalkCapExceeded:
                skipped += 1
                continue
            if problem:
                hits += 1
                print(f"# {problem}")
                print(json.dumps(serialize_presentation(p)))
        if args.hunt == "fg-false" and not rep.fg.value:
            hits += 1
            witness = rep.fg.to_json()["witness"]
            print(f"# method {rep.fg.method}, witness {witness}")
            print(json.dumps(serialize_presentation(p)))
    print(f"# {len(presentations)} samples, {skipped} over the cap",
          file=sys.stderr)
    if args.hunt == "oracle-check":
        keys = len({key for key, _ in checked})
        print(f"# {keys} distinct factor keys checked against the "
              "whole-complex ranks", file=sys.stderr)
    if args.hunt == "summary":
        for method, count in sorted(methods.items(), key=lambda kv: -kv[1]):
            print(f"{method:32s} {count}")
    else:
        print(f"# {hits} specimens", file=sys.stderr)
    checks = ("cli-fuzz", "fg-check", "oracle-check", "product-check",
              "series-check")
    return 1 if args.hunt in checks and hits else 0


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
