import ast
import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

import yoneda_cps
from conftest import ALL, fixture_path
from yoneda_cps import cli


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
        "is_decomposable", "is_dense",
        "left_min_annihilating_suffix", "make_presentation",
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
