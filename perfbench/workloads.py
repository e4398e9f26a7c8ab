"""The four workloads: what each runs in a round and how it is checked.

Every workload runs whole rounds of one fixed set of operations, so a
run's failed operations are always the same share of its attempted
ones.  `check` reads the first round's outputs against the reference
routines in `reference.py`; `canonical` gives what every round must
repeat, which run.py compares by hash.
"""

import contextlib
import io
import json
import os
import random
import signal
import statistics
import string
import subprocess
import sys
import time

from harness import FIXTURE_NAMES, FIXTURES, ROOT, SRC, Program, Round
from reference import (counts_by_degree, euler_defect, euler_degree,
                       normal_counts, walk_of_edges, walk_table)

HERE = ROOT / "perfbench"
FG_METHODS = ("finite_global_dimension", "all_circuits_meet_generators",
              "circuit_avoiding_generators", "no_indecomposables_at_bound",
              "indecomposable_at_bound")
CLI_VERBS = ("analyze", "graph", "ext-basis", "multiply", "decide-fg",
             "decide-noetherian", "series", "validate")


def fixture_json(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


class Workload:
    min_rounds = 1
    warmup_rounds = 0   # untimed rounds before the timed ones
    work_kinds = None   # the operations that time the work; None for all

    def __init__(self, seed, probe):
        self.seed = seed
        self.probe = probe
        self.tracer = None

    def setup(self):
        """Import the program and build the inputs; timed as setup_s."""
        self.prog = Program()
        self.fixtures = {n: self.prog.load_fixture(n) for n in FIXTURE_NAMES}

    def run_round(self):
        raise NotImplementedError

    def trace_pass(self):
        """The work the traced run times with and without tracing."""
        return self.run_round()

    def check(self, rounds):
        """Failures found in the outputs of rounds[0], as messages."""
        raise NotImplementedError

    def canonical(self, outputs):
        """A round's outputs as plain data that every round must repeat."""
        raise NotImplementedError

    def install_hooks(self, tracer):
        self.tracer = tracer
        install_common_hooks(tracer)

    def trace_extras(self, rounds):
        """Per-layer values measured outside the tracer."""
        return {}

    def fixture_graph(self, name):
        prog = self.prog
        return prog.graph.build_marked_graph(
            prog.monomial.MonomialIdeal(self.fixtures[name]))


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM when one decide-corpus operation runs too long.

    A BaseException, so no handler inside the program swallows it.
    """


class DecideCorpus(Workload):
    """analyze, then series, on every presentation of the pool.

    The pool (pool.json) is a fixed draw of the three size tiers; the
    seed relabels each presentation with fresh generator letters,
    shuffles its generators and relations, and shuffles the corpus
    order.  The program sees only the relabelled JSON text.
    """

    DEADLINE_S = 30.0
    SERIES_TERMS = 12

    def setup(self):
        super().setup()
        pool = json.loads((HERE / "pool.json").read_text())
        rng = random.Random(self.seed)
        corpus = []
        for entry in pool["presentations"]:
            data = relabel(rng, entry)
            text = json.dumps(data)
            corpus.append((entry["tier"], data,
                           self.prog.presentation.parse_presentation(text)))
        rng.shuffle(corpus)
        self.corpus = corpus

    def _on_alarm(self, signum, frame):
        if self.tracer is not None and self.tracer.active("graph.graph_params"):
            self.tracer.count("graph.params_deadline_hits")
        raise DeadlineExceeded()

    def _guarded(self, fn, *args):
        signal.setitimer(signal.ITIMER_REAL, self.DEADLINE_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def _series(self, p):
        prog = self.prog
        g = prog.graph.build_marked_graph(prog.monomial.MonomialIdeal(p))
        return g, prog.ext.hilbert_series(g)

    def run_round(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        r = Round(self.probe)
        outputs = []
        try:
            for _, _, p in self.corpus:
                report, bad_a = r.timed("analyze", self._guarded,
                                        self.prog.decide.analyze, p,
                                        fail_on=DeadlineExceeded,
                                        failed_seconds=self.DEADLINE_S)
                series, bad_s = r.timed("series", self._guarded,
                                        self._series, p,
                                        fail_on=DeadlineExceeded,
                                        failed_seconds=self.DEADLINE_S)
                r.work += 1
                outputs.append((None if bad_a else report,
                                None if bad_s else series))
        finally:
            signal.signal(signal.SIGALRM, previous)
        r.finish()
        r.outputs = outputs
        return r

    def canonical(self, outputs):
        to_json = self.prog.decide.report_to_json
        return [(to_json(rep) if rep else None,
                 s[1].to_json() if s else None) for rep, s in outputs]

    def check(self, rounds):
        failures = []
        inf = self.prog.decide.INFINITY
        for (tier, data, _), (report, series) in zip(self.corpus,
                                                     rounds[0].outputs):
            label = f"{tier} {json.dumps(data)}"
            if series is not None:
                g, hs = series
                d = euler_degree(len(data["generators"]))
                hilbert = normal_counts(data["generators"], data["relations"], d)
                defect = euler_defect(hilbert, walk_table(g.out, g.g0, d, d), d)
                if any(defect):
                    failures.append(f"{label}: Euler identity defect {defect}")
                k = self.SERIES_TERMS
                ref = counts_by_degree(walk_table(g.out, g.g0, k), k)
                if hs.series(k) != ref:
                    failures.append(f"{label}: series {hs.series(k)} != "
                                    f"walk counts {ref}")
            if report is None:
                continue
            g = report.graph
            gd = report.gldim.value
            if gd != inf:
                dims = counts_by_degree(walk_table(g.out, g.g0, gd + 1), gd + 1)
                if not (dims[gd] > 0 and dims[gd + 1] == 0):
                    failures.append(f"{label}: gldim {gd} but dims {dims}")
            if (report.gk_dim == 0) != (gd != inf):
                failures.append(f"{label}: gk_dim {report.gk_dim} with "
                                f"gldim {gd}")
            if report.gldim.witness and not walk_of_edges(g.out, report.gldim.witness):
                failures.append(f"{label}: gldim witness is not a walk")
            fg = report.fg
            walks = [w for w in (fg.witness_walk, fg.witness_circuit) if w]
            if fg.witness_periodic is not None:
                walks += [fg.witness_periodic.prefix, fg.witness_periodic.cycle]
            if fg.witness_circuit and fg.witness_circuit[0] != fg.witness_circuit[-1]:
                failures.append(f"{label}: fg witness circuit is not closed")
            if not all(walk_of_edges(g.out, w) for w in walks):
                failures.append(f"{label}: fg witness leaves the graph's edges")
        return failures


def relabel(rng, entry):
    names = entry["generators"]
    letters = rng.sample(string.ascii_letters, len(names))
    mapping = dict(zip(names, letters))
    generators = [mapping[n] for n in names]
    rng.shuffle(generators)
    relations = [[mapping[x] for x in rel] for rel in entry["relations"]]
    rng.shuffle(relations)
    return {"generators": generators, "relations": relations}


class OracleValidate(Workload):
    """The validate path on every fixture, in both fields.

    One operation is what `yoneda-cps validate` computes: the minimal
    resolution over one field, then cross_validate of its table against
    the walk counts.  Windows are (max_i, max_j).  sklyanin_leading's
    6,037 chain words at j <= 12 make up most of the work;
    two_chain_overlap has few chain words but large complexes.
    """

    WINDOWS = {"x_square": (8, 16), "xy_single": (8, 16),
               "abc_cdab": (8, 16), "abc_cdab_bcda": (8, 16),
               "x2y_family": (8, 16), "two_chain_overlap": (8, 13),
               "sklyanin_leading": (8, 12)}
    FIELDS = (2, 32003)

    def setup(self):
        super().setup()
        order = list(self.WINDOWS)
        random.Random(self.seed).shuffle(order)
        self.order = order

    def _validate(self, ideal, g, field_char, max_i, max_j):
        oracle = self.prog.oracle
        table = oracle.minimal_resolution(ideal, field_char=field_char,
                                          max_i=max_i, max_j=max_j)
        return table, oracle.cross_validate(g, table)

    def run_round(self):
        prog = self.prog
        r = Round(self.probe)
        outputs = {}
        for name in self.order:
            max_i, max_j = self.WINDOWS[name]
            ideal = prog.monomial.MonomialIdeal(self.fixtures[name])
            g = prog.graph.build_marked_graph(ideal)
            results = []
            for p in self.FIELDS:
                result, _ = r.timed("validate", self._validate, ideal, g, p,
                                    max_i, max_j)
                results.append(result)
            outputs[name] = (ideal, g, results)
        r.finish()
        r.outputs = outputs
        return r

    def check(self, rounds):
        failures = []
        words = 0
        for name, (ideal, g, results) in rounds[0].outputs.items():
            max_i, max_j = self.WINDOWS[name]
            words += len(self.prog.oracle.chain_words(ideal, max_j)[0])
            (gf2, mismatches2), (gfp, mismatches_p) = results
            if mismatches2 or mismatches_p:
                failures.append(f"{name}: cross_validate "
                                f"{(mismatches2 or mismatches_p)[:3]}")
            if gf2.entries != gfp.entries:
                failures.append(f"{name}: GF(2) and GF(32003) tables differ")
            if gf2.entries != walk_table(g.out, g.g0, max_i, max_j):
                failures.append(f"{name}: oracle table differs from the "
                                "reference walk counts")
            data = fixture_json(name)
            d = min(max_i, max_j, euler_degree(len(data["generators"])))
            hilbert = normal_counts(data["generators"], data["relations"], d)
            defect = euler_defect(hilbert, gf2.entries, d)
            if any(defect):
                failures.append(f"{name}: Euler identity defect {defect}")
        for r in rounds:
            r.work = words * len(self.FIELDS)
        return failures

    def canonical(self, outputs):
        return {name: [(sorted(t.entries.items()), mismatches)
                       for t, mismatches in out[2]]
                for name, out in outputs.items()}


class WalksTable(Workload):
    """poincare_table, generators_up_to and all-pairs Yoneda products.

    Per fixture: (poincare degree, generators degree, product window).
    The capped call materialises sklyanin_leading's walks through i = 16
    under a cap of 50,000 walks and fails every round: poincare_table
    enumerates walks where counting them would do.
    """

    SPECS = {"sklyanin_leading": (13, 11, 4),
             "x2y_family": (60, 60, 6),
             "two_chain_overlap": (24, 18, 5)}
    CAPPED = ("sklyanin_leading", 16, 50_000)
    TRIPLES = 300
    work_kinds = ("multiply",)
    # The first round grows the heap to about 100 MB and takes a tenth
    # longer than the rounds after it.
    warmup_rounds = 1

    def setup(self):
        super().setup()
        prog = self.prog
        self.graphs = {}
        self.classes = {}
        for name, (_, _, window) in self.SPECS.items():
            g = self.graphs[name] = self.fixture_graph(name)
            self.classes[name] = [prog.ext.ExtClass(w) for w in
                                  prog.walks.enumerate_anchored(g, window - 1)]

    def run_round(self):
        prog = self.prog
        ext = prog.ext
        r = Round(self.probe)
        outputs = {}
        for name, (deg_p, deg_g, _) in self.SPECS.items():
            g = self.graphs[name]
            table, _ = r.timed("poincare", ext.poincare_table, g, deg_p)
            gens, _ = r.timed("generators", ext.generators_up_to, g, deg_g)
            cls = self.classes[name]
            products = []
            for a in cls:
                for b in cls:
                    prod, _ = r.timed("multiply", ext.yoneda_mul, g, a, b)
                    products.append(prod)
            r.work += len(cls) ** 2
            outputs[name] = (table, gens, products)
        name, deg, cap = self.CAPPED
        capped, failed = r.timed("poincare", ext.poincare_table,
                                 self.graphs[name], deg, cap=cap,
                                 fail_on=prog.walks.WalkCapExceeded)
        outputs["capped"] = None if failed else capped
        r.finish()
        r.outputs = outputs
        return r

    def check(self, rounds):
        failures = []
        mul = self.prog.ext.yoneda_mul
        rng = random.Random(self.seed)
        out = rounds[0].outputs
        for name, (deg_p, _, window) in self.SPECS.items():
            g = self.graphs[name]
            table, gens, products = out[name]
            if table.entries != walk_table(g.out, g.g0, deg_p):
                failures.append(f"{name}: poincare_table differs from the "
                                "reference walk counts")
            everything = {c.walk.vertices for c in self.classes[name]}
            decomposable = {p.walk.vertices for p in products
                            if p is not None and p.cohomological_degree <= window}
            generators = {c.walk.vertices for c in gens
                          if c.cohomological_degree <= window}
            if generators & decomposable:
                failures.append(f"{name}: a generator is a product")
            if generators | decomposable != everything:
                failures.append(f"{name}: a non-generator class is no "
                                "product of lower classes")
            cls = self.classes[name]
            for _ in range(self.TRIPLES):
                a, b, c = (rng.choice(cls) for _ in range(3))
                ab, bc = mul(g, a, b), mul(g, b, c)
                left = mul(g, ab, c) if ab is not None else None
                right = mul(g, a, bc) if bc is not None else None
                if (left and left.walk) != (right and right.walk):
                    failures.append(f"{name}: (ab)c != a(bc) for "
                                    f"{a.walk.vertices}, {b.walk.vertices}, "
                                    f"{c.walk.vertices}")
                    break
        capped = out["capped"]
        if capped is not None:
            name, deg, _ = self.CAPPED
            g = self.graphs[name]
            if capped.entries != walk_table(g.out, g.g0, deg):
                failures.append("capped poincare_table differs from the "
                                "reference walk counts")
        return failures

    def canonical(self, outputs):
        out = {}
        for name in self.SPECS:
            table, gens, products = outputs[name]
            out[name] = (sorted(table.entries.items()),
                         [c.walk.vertices for c in gens],
                         [p and p.walk.vertices for p in products])
        capped = outputs["capped"]
        out["capped"] = capped and sorted(capped.entries.items())
        return out


class CliFixtures(Workload):
    """Every console verb on every fixture, each call a fresh process."""

    min_rounds = 2   # at least 100 calls, so p90 has ten beyond it
    PROBES = 9

    def setup(self):
        super().setup()
        calls = []
        for name in FIXTURE_NAMES:
            path = f"tests/fixtures/{name}.json"
            calls += [["analyze", path], ["graph", path],
                      ["ext-basis", "--max-degree", "4", path],
                      ["decide-fg", path],
                      ["decide-noetherian", "--side", "left", path],
                      ["decide-noetherian", "--side", "right", path],
                      ["series", "--truncate", "8", path],
                      ["validate", "--max-i", "4", "--max-j", "8", path]]
        calls.append(["multiply", "--left", '["b","cda"]', "--right", '["c"]',
                      "tests/fixtures/abc_cdab.json"])
        random.Random(self.seed).shuffle(calls)
        self.calls = calls
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _spawn(self, args):
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def run_round(self):
        # The calls run on the CPU whose speed the round's probes measure.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        r = Round(self.probe)
        outputs = []
        for argv in self.calls:
            self.probe.sample()
            proc, _ = r.timed(argv[0], self._spawn,
                              ["-m", "yoneda_cps.cli", *argv])
            r.ops[-1].failed = proc.returncode != 0
            r.work += 1
            outputs.append((argv, proc.returncode, proc.stdout))
        r.finish()
        # A call runs in a child process, with no probe inside it, and the
        # probes next to one call time this process just woken: every call
        # is scaled by all the probes of its round.
        for op in r.ops:
            op.probes = r.probes
        r.outputs = outputs
        return r

    def trace_pass(self):
        """The same calls through cli.main inside this process."""
        r = Round(self.probe)
        for argv in self.calls:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(io.StringIO()):
                code, _ = r.timed("main", self.prog.cli.main, argv)
            r.ops[-1].failed = code != 0
            r.work += 1
        r.finish()
        return r

    def trace_extras(self, rounds):
        extras = {}
        by_verb = {}
        for op in (op for r in rounds for op in r.ops):
            by_verb.setdefault(op.kind, []).append(op.seconds * 1000.0)
        for verb in CLI_VERBS:
            extras[f"cli.{verb}_ms"] = statistics.median(by_verb[verb])

        def probe(code):
            times = []
            for _ in range(self.PROBES):
                start = time.perf_counter()
                self._spawn(["-c", code])
                times.append(time.perf_counter() - start)
            return 1000.0 * statistics.median(times)
        bare = probe("pass")
        extras["cli.interpreter_ms"] = bare
        extras["cli.import_ms"] = probe("import yoneda_cps.cli") - bare
        return extras

    def _library_answer(self, argv):
        prog = self.prog
        path = argv[-1]
        name = path.rsplit("/", 1)[-1][:-len(".json")]
        p = self.fixtures[name]
        ideal = prog.monomial.MonomialIdeal(p)
        g = prog.graph.build_marked_graph(ideal)
        verb = argv[0]
        ext, decide = prog.ext, prog.decide
        if verb == "analyze":
            return decide.report_to_json(decide.analyze(p))
        if verb == "graph":
            return prog.graph.export_json(g)
        if verb == "ext-basis":
            k = int(argv[2])
            return {"max_cohomological_degree": k,
                    "dimensions": ext.poincare_table(g, k).to_json(),
                    "generators": [c.to_json()
                                   for c in ext.generators_up_to(g, k)]}
        if verb == "multiply":
            walk = prog.walks.parse_display_walk
            left = ext.ext_class(g, walk(g, json.loads(argv[2])))
            right = ext.ext_class(g, walk(g, json.loads(argv[4])))
            prod = ext.yoneda_mul(g, left, right)
            return {"left": left.to_json(), "right": right.to_json(),
                    "product": prod.to_json() if prod else None,
                    "zero": prod is None}
        if verb == "decide-fg":
            return decide.finitely_generated(g).to_json()
        if verb == "decide-noetherian":
            return decide.noetherian(g, argv[2]).to_json()
        if verb == "series":
            s = ext.hilbert_series(g)
            out = s.to_json()
            out["pretty"] = str(s)
            out["coefficients"] = s.series(int(argv[2]))
            return out
        if verb == "validate":
            max_i, max_j = int(argv[2]), int(argv[4])
            table = prog.oracle.minimal_resolution(ideal, 2, max_i, max_j)
            return {"betti": table.to_json(),
                    "mismatches": prog.oracle.cross_validate(g, table),
                    "params": {"edge_count": prog.graph.graph_params(g).edge_count}}
        raise ValueError(verb)

    # acceptance criterion 4: (verb, fixture, side) -> expected answer
    CRITERION_4 = {
        ("decide-fg", "abc_cdab"): True,
        ("decide-fg", "abc_cdab_bcda"): False,
        ("decide-fg", "two_chain_overlap"): False,
        ("gk", "abc_cdab"): 1, ("gk", "abc_cdab_bcda"): 1,
        ("gk", "two_chain_overlap"): "infinity", ("gk", "x2y_family"): 2,
        ("gk", "sklyanin_leading"): "infinity",
        ("left", "abc_cdab"): False, ("right", "abc_cdab"): False,
        ("left", "abc_cdab_bcda"): False, ("right", "abc_cdab_bcda"): False,
        ("left", "x_square"): True, ("right", "x_square"): True,
    }

    def check(self, rounds):
        failures = []
        seen = {}
        for argv, code, stdout in rounds[0].outputs:
            label = " ".join(argv)
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            try:
                got = json.loads(stdout)
            except json.JSONDecodeError:
                failures.append(f"{label}: stdout is not JSON")
                continue
            want = json.loads(json.dumps(self._library_answer(argv)))
            if got != want:
                failures.append(f"{label}: output differs from the library")
            name = argv[-1].rsplit("/", 1)[-1][:-len(".json")]
            if argv[0] == "decide-fg":
                seen[("decide-fg", name)] = got["value"]
            elif argv[0] == "analyze":
                seen[("gk", name)] = got["gk_dim"]
            elif argv[0] == "decide-noetherian":
                seen[(argv[2], name)] = got["value"]
        for key, want in self.CRITERION_4.items():
            if seen.get(key) != want:
                failures.append(f"criterion 4 {key}: got {seen.get(key)}, "
                                f"want {want}")
        return failures

    def canonical(self, outputs):
        return [(code, stdout) for _, code, stdout in outputs]


def install_common_hooks(tracer):
    """Counters read from arguments and results at layer boundaries."""
    def states(args, _):
        tracer.count("monomial.automaton_states",
                     len(args[0].factor_index.goto))

    def graph_size(_, g):
        tracer.count("graph.vertices", len(g.vertices))
        tracer.count("graph.edges", len(g.edges))

    def fg_method(_, verdict):
        tracer.count(f"decide.fg.{verdict.method}")

    def fg_raise(_, exc):
        if type(exc).__name__ == "WalkCapExceeded":
            tracer.count("decide.fg_cap_trips")

    def homology(args, result):
        if not result:
            tracer.count("oracle.zero_homology_words")
        ideal, word, max_i, field_char = args[:4]
        tracer.record.notes.append((ideal, tuple(word), max_i, field_char))

    tracer.on_return("monomial.MonomialIdeal.__init__", states)
    tracer.on_return("graph.build_graph", graph_size)
    tracer.on_return("graph.graph_params", lambda _, params: tracer.maximum(
        "graph.bound_N_max", params.bound_N))
    tracer.on_return("decide.finitely_generated", fg_method)
    tracer.on_raise("decide.finitely_generated", fg_raise)
    tracer.on_return("walks.enumerate_anchored",
                     lambda *_: tracer.count("walks.anchored_walks"))
    tracer.on_return("walks.greedy_parse", lambda _, parsed: tracer.count(
        "walks.greedy_parse_hits", parsed is not None))
    tracer.on_return("oracle.chain_words", lambda _, result: tracer.count(
        "oracle.chain_words", len(result[0])))
    tracer.on_return("oracle.word_homology", homology)
    for rank in ("linalg.gf2_rank", "linalg.gfp_rank"):
        tracer.on_return(rank, lambda args, _: tracer.count(
            "linalg.rank_rows", len(args[0])))


def homology_keys(notes):
    """Distinct (length, least occurrence end) keys per resolution call.

    word_homology depends on a word only through these, so this is the
    number of complexes an exact memo would still have to reduce.  The
    least-end array comes from the public `occurrences`.
    """
    keys = set()
    for ideal, word, max_i, field_char in notes:
        n = len(word)
        ends = [n + 1] * (n + 1)
        for start, rel in ideal.occurrences(word):
            ends[start] = min(ends[start], start + len(ideal.relations[rel]))
        for a in range(n - 1, -1, -1):
            ends[a] = min(ends[a], ends[a + 1])
        keys.add((id(ideal), max_i, field_char, n, tuple(ends)))
    return len(keys)


WORKLOADS = {"decide-corpus": DecideCorpus,
             "oracle-validate": OracleValidate,
             "walks-table": WalksTable,
             "cli-fixtures": CliFixtures}
