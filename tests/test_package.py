import ast
import builtins
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import yoneda_cps
from conftest import ALL, fixture_path, graph, load
from yoneda_cps import cli
from yoneda_cps.decide import (GLDIM_NOTE, FgVerdict, GlobalDimensionResult,
                               NoetherianVerdict, analyze)
from yoneda_cps.ext import generators_up_to, hilbert_series, poincare_table
from yoneda_cps.oracle import minimal_resolution
from yoneda_cps.walks import EventuallyPeriodicWalk

SRC = Path(yoneda_cps.__file__).resolve().parent.parent


def test_all_lists_resolvable_names_and_no_modules():
    names = yoneda_cps.__all__
    assert len(set(names)) == len(names)
    for name in names:
        value = getattr(yoneda_cps, name)
        assert not isinstance(value, types.ModuleType), name


def test_public_api_is_pinned():
    """Adding or removing a public name must be a deliberate edit here."""
    assert sorted(yoneda_cps.__all__) == [
        "AnalysisReport", "AnchoredWalk", "BettiTable", "BigradedTable",
        "CpsGraph", "EventuallyPeriodicWalk", "ExtClass", "GraphParams",
        "INFINITY", "MonomialIdeal", "PreconditionError", "Presentation",
        "PresentationError", "WalkCapExceeded",
        "analyze", "annihilator_generators", "build_marked_graph",
        "canonical_anchored", "circuits_and_sccs",
        "cross_validate", "enumerate_anchored", "export_dot", "export_json",
        "ext_class", "finitely_generated", "generators_up_to",
        "gk_dimension", "global_dimension", "graph_params", "hilbert_series",
        "is_decomposable", "is_dense", "make_presentation",
        "minimal_resolution", "noetherian",
        "parse_presentation", "poincare_table", "report_to_json",
        "serialize_presentation", "word_of",
        "yoneda_mul",
    ]


def test_every_exported_function_is_reached():
    """Every exported function runs under some CLI verb on the fixtures."""
    unreached_by_design = {
        "enumerate_anchored",      # the benchmark's walks-table setup calls it
        "serialize_presentation",  # the scripts write presentations with it
    }
    calls = []
    for name in ALL:
        path = fixture_path(name)
        calls += [["analyze", path], ["graph", path],
                  ["graph", "--format", "dot", path],
                  ["ext-basis", "--max-degree", "3", path],
                  ["decide-fg", path],
                  ["decide-noetherian", "--side", "left", path],
                  ["decide-noetherian", "--side", "right", path],
                  ["series", "--truncate", "8", path],
                  ["validate", "--max-i", "3", "--max-j", "6", path]]
    calls.append(["multiply", "--left", '["b","cda"]', "--right", '["c"]',
                  fixture_path("abc_cdab")])

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sink = io.StringIO()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [cli.main(argv) for argv in calls]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(calls)
    unreached = sorted(
        name for name in yoneda_cps.__all__
        if inspect.isfunction(getattr(yoneda_cps, name))
        and getattr(yoneda_cps, name).__code__ not in called)
    assert unreached == sorted(unreached_by_design)


def test_nothing_recurses():
    """No function of the package calls itself by name.  Recursion depth
    grows with the input, so a recursive function would bring
    RecursionError back."""
    recursive = set()
    for path in Path(yoneda_cps.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Name) and callee.id == fn.name or \
                        isinstance(callee, ast.Attribute) and \
                        callee.attr == fn.name and \
                        isinstance(callee.value, ast.Name) and \
                        callee.value.id in ("self", "cls"):
                    recursive.add(fn.name)
    assert recursive == set()


def test_oracle_reads_no_walk_calculus():
    """The oracle is an independent check: only cross_validate may use a
    name from ext, graph or walks, and the resolution itself, the
    relation trie included, reads only the ideal, linalg and its own
    functions and classes."""
    tree = ast.parse((SRC / "yoneda_cps" / "oracle.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    functions = {fn.name: fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)}
    classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}
    assert set(classes) == {"BettiTable", "_RelationTrie"}
    resolution = {"chain_words", "_overlap_words", "_min_occurrence_ends",
                  "_first_letter_cells", "_splitting_homology", "_kunneth",
                  "_add_into", "minimal_resolution"}
    assert set(functions) == resolution | {"cross_validate"}
    allowed = (set(dir(builtins)) | resolution | set(classes)
               | {name for name, module in imported.items()
                  if module == "linalg"})
    # the relation trie's methods are held to the resolution's rule
    for fn in classes["_RelationTrie"].body:
        if isinstance(fn, ast.FunctionDef):
            functions[f"_RelationTrie.{fn.name}"] = fn
            resolution.add(f"_RelationTrie.{fn.name}")
    for name, fn in functions.items():
        bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        bound |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)}
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)} - bound
        assert not any(isinstance(n, (ast.Import, ast.ImportFrom))
                       for n in ast.walk(fn)), name
        if name in resolution:
            assert read <= allowed, (name, sorted(read - allowed))
    walk_calculus = {name for name, module in imported.items()
                     if module in ("ext", "graph", "walks")}
    assert walk_calculus == {"poincare_table"}
    users = {name for name, fn in functions.items()
             if walk_calculus & {n.id for n in ast.walk(fn)
                                 if isinstance(n, ast.Name)}}
    assert users == {"cross_validate"}


def _fresh(code):
    """What `code`, run in a new interpreter that imports the package
    from this checkout, prints as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_start_up_loads_only_what_runs():
    """The package loads no module until a name is used, records need
    no dataclasses, and a verb loads only the modules it runs."""
    loaded = _fresh(f"""if True:
        import contextlib, io, json, sys
        def ours():
            return sorted(m for m in sys.modules if m.startswith("yoneda_cps."))
        import yoneda_cps
        after_package = ours()
        import yoneda_cps.cli
        dataclasses = "dataclasses" in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            code = yoneda_cps.cli.main(["graph", {fixture_path("abc_cdab")!r}])
        print(json.dumps([after_package, dataclasses, code, ours()]))
        """)
    after_package, dataclasses, code, after_graph = loaded
    assert after_package == []
    assert dataclasses is False
    assert code == 0
    assert after_graph == ["yoneda_cps.cli", "yoneda_cps.graph",
                           "yoneda_cps.monomial", "yoneda_cps.presentation"]


@pytest.mark.parametrize("argv,absent", [
    (["graph"], ["yoneda_cps.ratfun", "yoneda_cps.walks"]),
    (["ext-basis", "--max-degree", "4"], ["yoneda_cps.ratfun"]),
])
def test_verbs_skip_the_walk_calculus_and_series_they_do_not_run(argv,
                                                                  absent):
    """`graph` walks nothing, and `ext-basis` reads no Hilbert series."""
    argv = argv + [fixture_path("two_chain_overlap")]
    loaded = _fresh(f"""if True:
        import contextlib, io, json, sys
        import yoneda_cps.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = yoneda_cps.cli.main({argv!r})
        print(json.dumps([code, sorted(sys.modules)]))
        """)
    code, modules = loaded
    assert code == 0
    assert [m for m in absent if m in modules] == []


def test_every_public_name_resolves_lazily():
    by_getattr = _fresh("""if True:
        import json, yoneda_cps
        print(json.dumps([name for name in yoneda_cps.__all__
                          if getattr(yoneda_cps, name, None) is None]))
        """)
    by_star = _fresh("""if True:
        import json
        from yoneda_cps import *
        import yoneda_cps
        print(json.dumps([name for name in yoneda_cps.__all__
                          if name not in globals()]))
        """)
    assert by_getattr == [] and by_star == []
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        getattr(yoneda_cps, "nonesuch")


RECORD_FIELDS = {
    "Presentation": ("generator_names", "relations"),
    "CpsGraph": ("ideal", "vertices", "g0", "admissible", "out", "succ"),
    "GraphParams": ("edge_count", "max_edge_class", "max_leading_path",
                    "bound_N", "weak_bound", "l_defaulted"),
    "CircuitSummary": ("sccs", "cyclic", "shared_vertex"),
    "AnchoredWalk": ("vertices",),
    "EventuallyPeriodicWalk": ("prefix", "cycle"),
    "ExtClass": ("walk",),
    "BigradedTable": ("entries", "truncation"),
    "RationalFunction": ("numerator", "denominator"),
    "GlobalDimensionResult": ("value", "witness", "note"),
    "FgVerdict": ("value", "method", "bound_n", "generator_degree_bound",
                  "witness_walk", "witness_circuit", "witness_periodic",
                  "witness_family"),
    "NoetherianVerdict": ("side", "value", "reason", "witness_vertex",
                          "witness_edge"),
    "AnalysisReport": ("graph", "params", "gldim", "gk_dim", "fg",
                       "noetherian_left", "noetherian_right", "notes"),
    "BettiTable": ("entries", "max_i", "max_j", "field_char",
                   "truncation_reached"),
}


def _records(name):
    g = graph(name)
    report = analyze(load(name))
    out = [load(name), g, report.params, g.cycles, report.gldim, report.fg,
           report.noetherian_left, report.noetherian_right, report,
           poincare_table(g, 3), hilbert_series(g),
           minimal_resolution(g.ideal, max_i=2, max_j=4)]
    classes = generators_up_to(g, 2)
    out += classes + [c.walk for c in classes]
    if report.fg.witness_periodic is not None:
        out.append(report.fg.witness_periodic)
    return out


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", ALL)
def test_records_behave_as_values(name):
    """Each record class the fixtures reach: construction by position
    and by keyword, value equality and hash, repr, and no assignment."""
    for record in _records(name):
        cls = type(record)
        fields = RECORD_FIELDS[cls.__name__]
        values = [getattr(record, f) for f in fields]
        twin = cls(*values)
        assert twin == record and not twin != record
        assert cls(**dict(zip(fields, values))) == record
        assert record != values
        if all(_hashable(v) for v in values):
            assert hash(twin) == hash(record)
        else:
            with pytest.raises(TypeError):
                hash(record)
        assert repr(record) == f"{cls.__name__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(record, f, None)
            with pytest.raises(AttributeError):
                delattr(record, f)
        assert [getattr(record, f) for f in fields] == values


def test_fixtures_reach_every_record_class():
    reached = {type(r).__name__ for name in ALL for r in _records(name)}
    assert reached == set(RECORD_FIELDS)


def test_record_defaults_and_normalisation():
    fg = FgVerdict(True, "finite_global_dimension")
    assert fg == FgVerdict(value=True, method="finite_global_dimension",
                           bound_n=None, generator_degree_bound=None,
                           witness_walk=None,
                           witness_circuit=None, witness_periodic=None,
                           witness_family=None)
    noeth = NoetherianVerdict("left", True, "acyclic_graph")
    assert (noeth.witness_vertex, noeth.witness_edge) == (None, None)
    assert GlobalDimensionResult(3, None).note == GLDIM_NOTE
    assert GlobalDimensionResult(3, None, note="n").note == "n"
    with pytest.raises(TypeError):
        FgVerdict(True)
    with pytest.raises(TypeError):
        FgVerdict(True, "m", method="m")
    with pytest.raises(TypeError):
        FgVerdict(True, "m", bogus=1)
    w = EventuallyPeriodicWalk(["ab"], ["ab", "cd", "ab"])
    assert w.prefix == (("a", "b"),) and w.cycle[1] == ("c", "d")
    with pytest.raises(ValueError, match="closed"):
        EventuallyPeriodicWalk(["ab"], ["ab", "cd"])
    g = graph("abc_cdab")
    assert g.cycles is g.cycles
