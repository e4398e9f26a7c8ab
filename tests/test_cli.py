import json

import pytest

from conftest import fixture_path
from yoneda_cps.cli import main


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


def test_decide_fg(capsys):
    js = run_json(capsys, "decide-fg", fixture_path("abc_cdab_bcda"))
    assert js["value"] is False
    assert js["method"] == "indecomposable_at_bound"
    assert js["witness"]["periodic_walk"] == {"prefix": ["c", "ab"],
                                              "cycle": ["ab", "cd", "ab"]}


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


def test_analyze_is_deterministic(capsys):
    first = run(capsys, "analyze", fixture_path("two_chain_overlap"))
    second = run(capsys, "analyze", fixture_path("two_chain_overlap"))
    assert first == second


@pytest.mark.parametrize("env,argv,message", [
    (None, ["validate", "--field-char", "1"], "--field-char must be a prime"),
    (None, ["validate", "--field-char", "4"], "--field-char must be a prime"),
    (None, ["validate", "--field-char", "9"], "--field-char must be a prime"),
    (None, ["validate", "--max-i", "-1"], "--max-i must be >= 0"),
    (None, ["validate", "--max-j", "-1"], "--max-j must be >= 0"),
    (None, ["ext-basis", "--max-degree", "-1"], "--max-degree must be >= 0"),
    (None, ["series", "--truncate", "-1"], "--truncate must be >= 0"),
    (None, ["--jobs", "0", "validate"], "--jobs must be >= 1"),
    ("abc", ["decide-fg"], "YONEDA_CPS_MAX_WALK_CAP must be a positive"),
    ("0", ["decide-fg"], "YONEDA_CPS_MAX_WALK_CAP must be a positive"),
    ("-5", ["analyze"], "YONEDA_CPS_MAX_WALK_CAP must be a positive"),
])
def test_out_of_range_arguments(monkeypatch, capsys, env, argv, message):
    if env is not None:
        monkeypatch.setenv("YONEDA_CPS_MAX_WALK_CAP", env)
    code, out, err = run(capsys, *argv, fixture_path("x_square"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1
