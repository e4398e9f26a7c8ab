import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import fixture_path
from propcore import random_presentation
from yoneda_cps import cli, decide
from yoneda_cps import graph as graph_module
from yoneda_cps.cli import main
from yoneda_cps.monomial import PreconditionError
from yoneda_cps.presentation import serialize_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_analyze_report(capsys):
    js = run_json(capsys, "analyze", fixture_path("abc_cdab"))
    assert set(js) == {"gldim", "gk_dim", "finitely_generated",
                       "noetherian_left", "noetherian_right", "params",
                       "notes"}
    assert js["gk_dim"] == 1
    assert js["finitely_generated"]["value"] is True
    assert js["noetherian_left"]["value"] is False
    assert js["params"]["edge_count"] == 5


def test_graph_json(capsys):
    js = run_json(capsys, "graph", fixture_path("abc_cdab"))
    words = {v["word"] for v in js["vertices"]}
    assert {"a", "d"} <= words  # isolated generators stay in the export
    assert {"source": "ab", "target": "cd", "word": "cdab",
            "admissible": True} in js["edges"]


def test_graph_dot(capsys):
    code, out, err = run(capsys, "graph", "--format", "dot",
                         fixture_path("abc_cdab"))
    assert code == 0
    assert out.startswith("digraph")
    assert '"cd" -> "ab"' in out


def test_graph_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps({"generators": ['a"b', "c\\d"],
                                "relations": [['a"b', "c\\d"]]}))
    code, out, err = run(capsys, "graph", "--format", "dot", str(path))
    assert (code, err) == (0, "")
    assert out == ('digraph annihilator_graph {\n'
                   '  "a\\"b";\n'
                   '  "c\\\\d";\n'
                   '  "c\\\\d" -> "a\\"b" [style=solid];\n'
                   '}\n')


def test_ext_basis(capsys):
    js = run_json(capsys, "ext-basis", "--max-degree", "4",
                  fixture_path("x_square"))
    assert js["max_cohomological_degree"] == 4
    dims = {e["i"]: e["dim"] for e in js["dimensions"]["entries"]}
    assert dims == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    # E is a polynomial ring on one degree (1,1) class
    assert js["generators"] == [{"walk": ["x"], "i": 1, "j": 1}]


def test_multiply_square(capsys):
    js = run_json(capsys, "multiply", fixture_path("x_square"),
                  "--left", '["x"]', "--right", '["x"]')
    assert js["zero"] is False
    assert js["product"] == {"walk": ["x", "x"], "i": 2, "j": 2}


def test_multiply_zero(capsys):
    js = run_json(capsys, "multiply", fixture_path("abc_cdab"),
                  "--left", '["ab", "cd"]', "--right", '["c", "ab"]')
    assert js["zero"] is True
    assert js["product"] is None
    assert js["left"] == {"walk": ["b", "cda"], "i": 2, "j": 4}


def test_decide_fg(monkeypatch, capsys):
    _forbid_graph_params(monkeypatch)
    js = run_json(capsys, "decide-fg", fixture_path("abc_cdab_bcda"))
    assert js["value"] is False
    assert js["method"] == "infinitely_many_indecomposables"
    assert js["witness"]["periodic_walk"] == {"prefix": ["c", "ab", "cd"],
                                              "cycle": ["cd", "ab", "cd"]}
    assert js["witness"]["family"] == {"prefix": ["c", "ab", "cd"],
                                       "cycle": ["cd", "ab", "cd"],
                                       "suffix": ["cd", "ab"]}


def test_decide_noetherian(capsys):
    js = run_json(capsys, "decide-noetherian", "--side", "left",
                  fixture_path("abc_cdab"))
    assert js == {"side": "left", "value": False,
                  "reason": "non_admissible_circuit_edge",
                  "witness_edge": {"source": "cd", "target": "ab"}}


def test_series(capsys):
    js = run_json(capsys, "series", "--truncate", "6",
                  fixture_path("abc_cdab"))
    assert js["pretty"] == "(1 + 3*y - 2*y^2) / (1 - y)"
    assert js["numerator"] == [1, 3, -2]
    assert js["coefficients"] == [1, 4, 2, 2, 2, 2, 2]


def test_validate(capsys):
    code, out, err = run(capsys, "validate", "--max-i", "6", "--max-j", "8",
                         fixture_path("xy_single"))
    assert code == 0
    js = json.loads(out)
    assert js["mismatches"] == []
    assert js["betti"]["field_char"] == 2


@pytest.mark.parametrize("window", [("0", "16"), ("8", "0")])
def test_validate_window_with_a_zero_bound(capsys, window):
    # the generator count sits at (1, 1), outside both windows
    js = run_json(capsys, "validate", "--max-i", window[0],
                  "--max-j", window[1], fixture_path("x_square"))
    assert js["betti"]["entries"] == [{"dim": 1, "i": 0, "j": 0}]
    assert js["mismatches"] == []


@pytest.mark.parametrize("argv", [
    ["graph"], ["multiply", "--left", '["ab"]', "--right", '["ab"]'],
])
def test_names_that_would_share_a_display_exit_1(tmp_path, capsys, argv):
    # the word a*b and the generator ab would both display as ab
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({"generators": ["a", "b", "ab"],
                                "relations": [["a", "b", "a"], ["ab", "ab"]]}))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: generator name 'ab' is spelled by")


def test_a_name_that_does_not_encode_as_utf8_exits_1(tmp_path, capsys):
    # a lone surrogate survives json.loads but no UTF-8 stream prints it
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps({"generators": ["\ud800"],
                                "relations": [["\ud800", "\ud800"]]}))
    for argv in (_fuzz_calls(str(path), "\ud800")
                 + [["graph", "--format", "dot", str(path)]]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == ("error: generator name '\\ud800' does not encode "
                       "as UTF-8\n"), argv


def test_missing_file(capsys):
    code, out, err = run(capsys, "analyze", "no_such_file.json")
    assert code == 1
    assert err.startswith("error:")


def test_malformed_presentation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": ["x"], "relations": [["x"]]}')
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "degree" in err


def test_unknown_vertex_in_multiply(capsys):
    code, out, err = run(capsys, "multiply", fixture_path("x_square"),
                         "--left", '["q"]', "--right", '["x"]')
    assert code == 1
    assert err.startswith("error:")


def test_walk_cap_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", "5")
    code, out, err = run(capsys, "decide-fg", fixture_path("abc_cdab_bcda"))
    assert code == 1
    assert err.startswith("error:")
    assert "cap" in err


@pytest.mark.parametrize("cap,stage", [("5", "state count"),
                                       ("9", "search")])
def test_a_tripped_fg_cap_names_its_stage(monkeypatch, capsys, cap, stage):
    # the automaton of abc_cdab_bcda has 9 states; ext-basis at degree 20
    # lists its accepted walks of up to 19 edges, while decide-fg reads
    # its lasso off the states and runs no search
    monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", cap)
    tripped = [["ext-basis", "--max-degree", "20"]]
    if stage == "state count":
        tripped.append(["decide-fg"])
    else:
        js = run_json(capsys, "decide-fg", fixture_path("abc_cdab_bcda"))
        assert js["value"] is False
    for verb in tripped:
        code, out, err = run(capsys, *verb, fixture_path("abc_cdab_bcda"))
        assert (code, out) == (1, ""), verb
        assert err.startswith("error: the walk automaton's " + stage), verb


@pytest.mark.parametrize("window", [("4", "8"), ("8", "16")])
def test_counting_never_trips_the_walk_cap(monkeypatch, capsys, window):
    monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", "10")
    code, out, err = run(capsys, "validate", "--max-i", window[0],
                         "--max-j", window[1], fixture_path("abc_cdab"))
    assert code == 0, err
    assert json.loads(out)["mismatches"] == []


def test_analyze_is_deterministic(capsys):
    first = run(capsys, "analyze", fixture_path("two_chain_overlap"))
    second = run(capsys, "analyze", fixture_path("two_chain_overlap"))
    assert first == second


X = fixture_path("x_square")


@pytest.mark.parametrize("env,argv,message", [
    (None, ["validate", "--field-char", "1", X], "--field-char must be a prime"),
    (None, ["validate", "--field-char", "4", X], "--field-char must be a prime"),
    (None, ["validate", "--field-char", "9", X], "--field-char must be a prime"),
    (None, ["validate", "--max-i", "-1", X], "--max-i must be >= 0"),
    (None, ["validate", "--max-j", "-1", X], "--max-j must be >= 0"),
    (None, ["ext-basis", "--max-degree", "-1", X], "--max-degree must be >= 0"),
    (None, ["series", "--truncate", "-1", X], "--truncate must be >= 0"),
    # an unknown option before the verb is named, not its value
    (None, ["--jobs", "2", "validate", X], "unrecognized arguments: --jobs"),
    ("abc", ["decide-fg", X], "YONEDA_CPS_MAX_WALK_CAP must be a positive"),
    ("0", ["decide-fg", X], "YONEDA_CPS_MAX_WALK_CAP must be a positive"),
    ("-5", ["analyze", X], "YONEDA_CPS_MAX_WALK_CAP must be a positive"),
    (None, ["analyze"], "the following arguments are required: presentation"),
    (None, ["frobnicate", X], "argument command: invalid choice: 'frobnicate'"),
    (None, ["validate", "--max-i", "x", X], "argument --max-i: invalid int"),
    (None, ["--bogus", "analyze", X], "unrecognized arguments: --bogus"),
])
def test_out_of_range_arguments(monkeypatch, capsys, env, argv, message):
    # usage errors the argument parser finds exit 1 as well, not 2
    if env is not None:
        monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", env)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["analyze", X], ["graph", X], ["ext-basis", X], ["decide-fg", X],
    ["decide-noetherian", "--side", "left", X], ["series", X],
    ["validate", X], ["multiply", "--left", '["x"]', "--right", '["x"]', X],
])
def test_a_bad_walk_cap_exits_1_on_every_verb(monkeypatch, capsys, argv):
    monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", "0")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: YONEDA_CPS_MAX_WALK_CAP must be a positive")


def test_precondition_error_is_an_internal_fault(monkeypatch, capsys):
    # Every verb hands the annihilator routines graph vertices or parse
    # states, never user words, so a failed precondition is a bug.
    def broken(ideal, m):
        raise PreconditionError("m_in_ideal", "m = x lies in the ideal")
    monkeypatch.setattr(graph_module, "annihilator_generators", broken)
    code, out, err = run(capsys, "analyze", fixture_path("x_square"))
    assert code == 2
    assert out == ""
    assert err.splitlines() == \
        ["internal invariant violated: m = x lies in the ideal"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "validate" in capsys.readouterr().out


def test_deep_oracle_window_answers(capsys):
    # chain words x^n up to n = 1100, each with one cell of n parts:
    # deeper than the interpreter's recursion limit
    js = run_json(capsys, "validate", "--max-i", "1100", "--max-j", "1100",
                  fixture_path("x_square"))
    assert js["mismatches"] == []
    assert {"dim": 1, "i": 1100, "j": 1100} in js["betti"]["entries"]


# Runs the console entry point on its arguments in a child process that
# caps its own address space at 512 MiB, as the L search check of
# tests/test_graph.py does.
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS,
                   (512 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
from yoneda_cps.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_json_capped(*argv):
    """run_json in a child under the 512 MiB cap: a runaway search fails
    this one test instead of exhausting the test run's memory."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv],
                           env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    return json.loads(child.stdout)


def test_deep_input_answers(tmp_path):
    # The L search of graph_params runs along paths of 1,099 edges on
    # this chain, far past the interpreter's recursion limit.
    gens = [f"a{i}" for i in range(1100)] + ["x"]
    rels = [[f"a{i + 1}", f"a{i + 1}", f"a{i}", f"a{i}"] for i in range(1099)]
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({"generators": gens,
                                "relations": rels + [["x", "x", "x"]]}))
    js = run_json_capped("analyze", str(deep))
    assert js["params"] == {"edge_count": 5491, "max_edge_class": 2,
                            "max_leading_path": 1099, "bound_N": 12082,
                            "weak_bound": 60307654}
    # walks of 1,099 edges from a0 up the chain are indecomposable, so
    # the top generator has degree 1100
    assert js["finitely_generated"] == {
        "value": True, "method": "finitely_many_indecomposables",
        "generator_degree_bound": 1100, "witness": None}


def test_memory_error_exits_cleanly(monkeypatch, capsys):
    def exhausted(presentation):
        raise MemoryError
    monkeypatch.setattr(cli, "build_marked_graph", exhausted)
    code, out, err = run(capsys, "graph", fixture_path("abc_cdab"))
    assert (code, out) == (1, "")
    assert err == "error: out of memory\n"
    assert "Traceback" not in err


def test_deep_fg_search_answers(tmp_path, monkeypatch, capsys):
    # x2y_family plus 150 cycles a_i -> a_i a_i -> a_i: bound_N is 1240,
    # but the verdict reads neither it nor L.
    _forbid_graph_params(monkeypatch)
    gens = ["x", "y"] + [f"a{i}" for i in range(150)]
    rels = [["x", "x", "y"], ["x", "y", "y"], ["y", "y", "y"],
            ["x", "x", "x", "x"]] + [[f"a{i}"] * 3 for i in range(150)]
    deep = tmp_path / "deep_fg.json"
    deep.write_text(json.dumps({"generators": gens, "relations": rels}))
    js = run_json(capsys, "decide-fg", str(deep))
    assert js == {"value": True, "method": "finitely_many_indecomposables",
                  "generator_degree_bound": 2, "witness": None}


def _forbid_graph_params(monkeypatch):
    def refuse(g):
        raise RuntimeError("graph_params must not run")
    for module in (cli, decide):
        monkeypatch.setattr(module, "graph_params", refuse, raising=False)


def test_acyclic_decide_fg_skips_the_l_search(tmp_path, monkeypatch, capsys):
    # The chain of test_deep_input_answers without its x x x cycle:
    # acyclic, and the walk automaton reads neither L nor bound_N.
    _forbid_graph_params(monkeypatch)
    gens = [f"a{i}" for i in range(1100)]
    rels = [[f"a{i + 1}", f"a{i + 1}", f"a{i}", f"a{i}"] for i in range(1099)]
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"generators": gens, "relations": rels}))
    js = run_json(capsys, "decide-fg", str(chain))
    # walks of 1,099 edges from a0 up the chain are indecomposable
    assert js == {"value": True, "method": "finitely_many_indecomposables",
                  "generator_degree_bound": 1100, "witness": None}


def test_acyclic_decide_fg_names_a_tripped_cap(tmp_path, monkeypatch, capsys):
    # the automaton of a five-generator chain has 16 states
    monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", "10")
    gens = [f"a{i}" for i in range(5)]
    rels = [[f"a{i + 1}", f"a{i + 1}", f"a{i}", f"a{i}"] for i in range(4)]
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"generators": gens, "relations": rels}))
    code, out, err = run(capsys, "decide-fg", str(chain))
    assert (code, out) == (1, "")
    assert err.startswith("error: the walk automaton's state count")


def test_validate_skips_the_l_search(monkeypatch, capsys):
    _forbid_graph_params(monkeypatch)
    code, out, err = run(capsys, "validate", "--max-i", "2", "--max-j", "4",
                         fixture_path("abc_cdab"))
    assert code == 0, err
    expect = {
        "betti": {
            "entries": [{"dim": 1, "i": 0, "j": 0}, {"dim": 4, "i": 1, "j": 1},
                        {"dim": 1, "i": 2, "j": 3}, {"dim": 1, "i": 2, "j": 4}],
            "field_char": 2, "max_i": 2, "max_j": 4,
            "truncation_reached": True,
        },
        "mismatches": [],
        "params": {"edge_count": 5},
    }
    assert out == json.dumps(expect, indent=2, sort_keys=True) + "\n"


def _fuzz_calls(path, generator):
    walk = json.dumps([generator])
    return [["analyze", path], ["graph", path],
            ["ext-basis", "--max-degree", "3", path],
            ["multiply", "--left", walk, "--right", walk, path],
            ["decide-fg", path],
            ["decide-noetherian", "--side", "left", path],
            ["decide-noetherian", "--side", "right", path],
            ["series", "--truncate", "4", path],
            ["validate", "--max-i", "3", "--max-j", "5", path]]


def _run_every_verb(content, generator="x"):
    """Every verb on one input file: exit 0, 1 or 2, and JSON on exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(content)
        for argv in _fuzz_calls(str(path), generator):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code, err.getvalue())
            if code == 0:
                json.loads(out.getvalue())
            else:
                assert out.getvalue() == "", argv


def test_cli_fuzz_hunt_finds_nothing():
    # hostile names, wrong types, malformed JSON and out-of-range window
    # flags through every verb, as `random_search.py --hunt cli-fuzz`
    script = Path(__file__).resolve().parent.parent / "scripts" / "random_search.py"
    run = subprocess.run([sys.executable, str(script), "--hunt", "cli-fuzz",
                          "--samples", "120", "--seed", "1"],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (
        0, "", "# 120 samples, 0 over the cap\n# 0 specimens\n")


FUZZ = dict(max_examples=25, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow])


@settings(**FUZZ)
@given(st.randoms(use_true_random=False))
def test_cli_fuzz_random_presentations(rng):
    # at most 3 generators and 4 relations of degree at most 4
    p = random_presentation(rng)
    _run_every_verb(json.dumps(serialize_presentation(p)).encode(),
                    p.generator_names[0])


_json_values = st.recursive(
    st.none() | st.integers(-1, 2) | st.sampled_from(["x", "y", ""]),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)
# Documents near the schema, so that most get past the first checks.
_documents = st.fixed_dictionaries(
    {"generators": st.lists(st.sampled_from(["x", "y", ""]), min_size=1,
                            max_size=3),
     "relations": st.lists(st.lists(_json_values, max_size=3), max_size=3)},
    optional={"generator_order": _json_values})


@settings(**FUZZ)
@given(st.one_of(st.binary(max_size=24),
                 _json_values.map(lambda v: json.dumps(v).encode()),
                 _documents.map(lambda v: json.dumps(v).encode())))
def test_cli_fuzz_malformed_files(content):
    _run_every_verb(content)
