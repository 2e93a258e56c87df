"""Command line surface: subcommands, formats, and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqcolor import Coloring, FormatError, Hypergraph, is_equitable, mc_estimate, parse_hypergraph
from eqcolor import cli, hypergraph
from eqcolor.cli import run_cli
from eqcolor.montecarlo import _SPECS, QUANTITIES

K4_TEXT = "4 2 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PATH_TEXT = "4 2 3\n0 1\n1 2\n2 3\n"


@pytest.fixture
def path_file(tmp_path):
    f = tmp_path / "path.txt"
    f.write_text(PATH_TEXT)
    return str(f)


@pytest.fixture
def k4_file(tmp_path):
    f = tmp_path / "k4.txt"
    f.write_text(K4_TEXT)
    return str(f)


def test_gen_text_roundtrips(capsys):
    assert run_cli(["gen", "-m", "6", "-n", "2", "--edges", "4", "--seed", "1"]) == 0
    h = parse_hypergraph(capsys.readouterr().out)
    assert h.m == 6 and h.n == 2 and len(h.edge_array) == 4


def test_gen_json(capsys):
    assert run_cli(
        ["gen", "-m", "5", "-n", "3", "--edges", "2", "--seed", "2", "--format", "json"]
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["m"] == 5 and obj["n"] == 3 and len(obj["edges"]) == 2


def test_gen_is_seed_deterministic(capsys):
    run_cli(["gen", "-m", "6", "-n", "2", "--edges", "4", "--seed", "3"])
    first = capsys.readouterr().out
    run_cli(["gen", "-m", "6", "-n", "2", "--edges", "4", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_solve_success_emits_coloring(capsys, path_file):
    assert run_cli(["solve", path_file, "-r", "2", "--seed", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["r"] == 2 and sorted(obj["sizes"]) == [2, 2]
    h = parse_hypergraph(PATH_TEXT)
    colors = obj["colors"]
    for e in h.edge_array.tolist():
        assert len({colors[v] for v in e}) > 1


def test_solve_infeasible_exits_2(capsys, k4_file):
    code = run_cli(["solve", k4_file, "-r", "2", "--restarts", "20"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["outcome"] == "infeasible-by-oracle"
    assert out["coloring"] is None


def test_solve_explain_includes_artifacts(capsys, k4_file):
    code = run_cli(["solve", k4_file, "-r", "2", "--restarts", "5", "--explain"])
    assert code == 2
    obj = json.loads(capsys.readouterr().out)
    assert "chains" in obj and "diagnostics" in obj


def test_solve_text_format(capsys, path_file):
    assert run_cli(["solve", path_file, "-r", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("outcome: success")
    assert "colors:" in out and "sizes:" in out


def test_solve_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(PATH_TEXT))
    assert run_cli(["solve", "-", "-r", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 2


def test_verify_accepts_equitable(capsys, tmp_path, path_file):
    cfile = tmp_path / "coloring.json"
    cfile.write_text(json.dumps(Coloring(4, 2, [1, 2, 1, 2]).to_json_dict()))
    assert run_cli(["verify", path_file, str(cfile), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["proper"] and obj["equitable"]
    assert obj["targets"] == [2, 2]


def test_verify_scans_the_edges_once_for_an_equitable_coloring(
    capsys, monkeypatch, tmp_path, path_file
):
    calls = []
    mono_edges = hypergraph._mono_edges

    def counting(h, colors):
        calls.append(h)
        return mono_edges(h, colors)

    monkeypatch.setattr(hypergraph, "_mono_edges", counting)
    cfile = tmp_path / "coloring.json"
    cfile.write_text(json.dumps(Coloring(4, 2, [1, 2, 1, 2]).to_json_dict()))
    assert run_cli(["verify", path_file, str(cfile), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "proper": True, "equitable": True, "sizes": [2, 2], "targets": [2, 2],
    }
    assert len(calls) == 1


def test_verify_rejects_improper(capsys, tmp_path, path_file):
    cfile = tmp_path / "bad.json"
    cfile.write_text(json.dumps(Coloring(4, 2, [1, 1, 2, 2]).to_json_dict()))
    assert run_cli(["verify", path_file, str(cfile)]) == 2
    assert "proper: False" in capsys.readouterr().out


def test_verify_rejects_uneven_sizes(capsys, tmp_path):
    inst = tmp_path / "free.txt"
    inst.write_text("4 2 0\n")
    cfile = tmp_path / "skew.json"
    cfile.write_text(json.dumps(Coloring(4, 2, [1, 1, 1, 2]).to_json_dict()))
    assert run_cli(["verify", str(inst), str(cfile)]) == 2


def test_verify_checks_vertex_count(capsys, tmp_path, path_file):
    cfile = tmp_path / "short.json"
    cfile.write_text(json.dumps(Coloring(3, 2, [1, 2, 1]).to_json_dict()))
    assert run_cli(["verify", path_file, str(cfile)]) == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_feasible_and_not(capsys, path_file, k4_file):
    assert run_cli(["oracle", path_file, "-r", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert run_cli(["oracle", k4_file, "-r", "2", "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["feasible"] is False


def test_oracle_with_one_color(capsys, tmp_path, k4_file):
    inst = tmp_path / "free.txt"
    inst.write_text("1200 2 0\n")
    assert run_cli(["oracle", str(inst), "-r", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["coloring"]["sizes"] == [1200]
    assert run_cli(["oracle", k4_file, "-r", "1"]) == 2


def test_oracle_refuses_instances_above_the_vertex_limit(capsys, monkeypatch):
    # -r 1 on a header-only instance passes the budget check (1^m), and
    # the one-class coloring it then built grew with m
    def refuse(*args, **kwargs):
        raise AssertionError("no search may run above the limit")

    monkeypatch.setattr(cli, "brute_force_equitable", refuse)
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{cli.MAX_VERTICES + 1} 2 0\n"))
    assert run_cli(["oracle", "-", "-r", "1"]) == 1
    assert f"vertices exceed the {cli.MAX_VERTICES}" in capsys.readouterr().err


def test_verify_rejects_more_colors_than_vertices(capsys, tmp_path, path_file):
    cfile = tmp_path / "wide.json"
    cfile.write_text(json.dumps({"r": 5, "colors": [1, 2, 1, 2]}))
    assert run_cli(["verify", path_file, str(cfile)]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_an_unassigned_vertex(capsys, tmp_path, path_file):
    # colorings are total: a 0 is a format error, not an improper coloring
    cfile = tmp_path / "partial.json"
    cfile.write_text(json.dumps({"r": 2, "colors": [1, 0, 1, 2]}))
    assert run_cli(["verify", path_file, str(cfile)]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_a_non_integer_color(capsys, tmp_path):
    # 1.9 and true were once truncated to 1 and read as an uneven coloring
    inst = tmp_path / "pair.txt"
    inst.write_text("2 2 1\n0 1\n")
    cfile = tmp_path / "float.json"
    cfile.write_text(json.dumps({"r": 2, "colors": [1.9, True]}))
    assert run_cli(["verify", str(inst), str(cfile)]) == 1
    captured = capsys.readouterr()
    assert "not an integer" in captured.err and "sizes" not in captured.out


@pytest.mark.parametrize("r", [2.7, True, "2"])
def test_verify_rejects_a_non_integer_r(capsys, tmp_path, path_file, r):
    # r was once read with int(): 2.7 and "2" as 2, true as 1
    cfile = tmp_path / "r.json"
    cfile.write_text(json.dumps({"r": r, "colors": [1, 2, 1, 2]}))
    assert run_cli(["verify", path_file, str(cfile)]) == 1
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("m", 4.5), ("m", "4"), ("n", 2.0), ("n", True)])
def test_solve_and_verify_reject_a_non_integer_instance_size(capsys, tmp_path, key, value):
    obj = dict(Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)]).to_json_dict(), **{key: value})
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(obj))
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(Coloring(4, 2, [1, 2, 1, 2]).to_json_dict()))
    assert run_cli(["solve", str(inst), "-r", "2"]) == 1
    assert "not an integer" in capsys.readouterr().err
    assert run_cli(["verify", str(inst), str(cfile)]) == 1
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("edges", [[[0, 1.9]], [[0, True]], [["0", "1"]]])
def test_solve_and_verify_reject_a_non_integer_vertex_id(capsys, tmp_path, edges):
    # each of these once read as the edge (0, 1), and solve exited 0
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({"m": 3, "n": 2, "edges": edges}))
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(Coloring(3, 2, [1, 2, 1]).to_json_dict()))
    assert run_cli(["solve", str(inst), "-r", "2"]) == 1
    assert "not an integer" in capsys.readouterr().err
    assert run_cli(["verify", str(inst), str(cfile)]) == 1
    assert "not an integer" in capsys.readouterr().err


def test_solve_rejects_more_colors_than_vertices(capsys, tmp_path):
    # solve would write a coloring with an empty class, which verify refuses
    inst = tmp_path / "pair.txt"
    inst.write_text("3 2 1\n0 1\n")
    assert run_cli(["solve", str(inst), "-r", "5"]) == 1
    assert "exceeds the 3 vertices" in capsys.readouterr().err
    assert run_cli(["solve", str(inst), "-r", "3"]) == 0
    cfile = tmp_path / "c.json"
    cfile.write_text(capsys.readouterr().out)
    assert run_cli(["verify", str(inst), str(cfile)]) == 0


@pytest.mark.parametrize("command", [["oracle"], ["mc", "--quantity", "mono-edge", "--trials", "200"]])
def test_oracle_and_mc_reject_more_colors_than_vertices(capsys, tmp_path, command):
    # the library's rule on r, as for solve: oracle once wrote a coloring
    # with two empty classes, which verify refused, and mc's memory grew
    # with r through its deflection counts
    inst = tmp_path / "pair.txt"
    inst.write_text("3 2 1\n0 1\n")
    assert run_cli([command[0], str(inst), "-r", "5", *command[1:]]) == 1
    assert "exceeds the 3 vertices" in capsys.readouterr().err
    assert run_cli([command[0], str(inst), "-r", "3", *command[1:]]) == 0


@pytest.mark.parametrize("p", ["1", "1.5", "-0.5"])
def test_mc_refuses_p_outside_the_unit_interval_before_sampling(capsys, tmp_path, p):
    # p = 1 once divided by zero in the keep probability, a traceback past
    # run_cli; 1.5 and -0.5 were reported as faults of the keep probability
    inst = tmp_path / "two_triangles.txt"
    inst.write_text("6 3 2\n0 1 2\n3 4 5\n")
    assert run_cli(["mc", str(inst), "--quantity", "dangerous-count", f"--p={p}"]) == 1
    assert capsys.readouterr().err == f"error: p must lie in [0, 1), got {float(p)}\n"


def test_mc_compares_with_the_exact_oracle_at_p0(capsys, tmp_path):
    # p = 0 is a partition with empty small blocks; the oracle once refused
    # it after every trial had been sampled
    inst = tmp_path / "two_triangles.txt"
    inst.write_text("6 3 2\n0 1 2\n3 4 5\n")
    argv = ["mc", str(inst), "--quantity", "mono-edge", "--p", "0", "--trials", "1000"]
    assert run_cli(argv + ["--format", "json"]) == 0
    comparison = json.loads(capsys.readouterr().out)["comparison"]
    # each triangle is monochromatic with probability 1/4
    assert comparison == {"kind": "exact", "value": 1 - (3 / 4) ** 2}


def test_oracle_budget_error(capsys, k4_file):
    assert run_cli(["oracle", k4_file, "-r", "2", "--budget", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_budget_check_builds_no_power_of_a_huge_header():
    # 3^(2^31) takes hours to build; the check must stop at the budget.  A
    # child process under a timeout fails where a check that builds the
    # power would hang the suite.  The CLI stops earlier, at its vertex cap
    # (test_console_pins.py, row oracle-huge-header)
    code = (
        "import sys; from eqcolor import *\n"
        "try: brute_force_equitable(parse_hypergraph(sys.stdin.read()), 3)\n"
        "except BudgetExceeded as exc: sys.exit(f'raised: {exc}')"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input="2147483648 3 0\n",
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    expected = "raised: 3^2147483648 assignments exceed"
    assert proc.returncode == 1 and proc.stderr.startswith(expected), proc.stderr


@pytest.mark.parametrize("module", ["eqcolor", "eqcolor.cli"])
def test_python_dash_m_runs_the_cli(module):
    # run as a script, the package and the CLI module each run the tool:
    # a module that only defines main() would exit 0 and print nothing
    src = Path(cli.__file__).resolve().parents[1]

    def run(text):
        return subprocess.run(
            [sys.executable, "-m", module, "solve", "-", "-r", "2"],
            input=text,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )

    solved = run(PATH_TEXT)
    assert solved.returncode == 0, solved.stderr
    coloring = Coloring.from_json_dict(json.loads(solved.stdout))
    assert is_equitable(parse_hypergraph(PATH_TEXT), coloring)
    malformed = run("3 2 1\n0 5\n")
    assert malformed.returncode == 1 and malformed.stderr.startswith("error:"), malformed.stderr
    assert malformed.stdout == ""


@pytest.mark.parametrize("sizes", [5, None])
def test_verify_reports_sizes_that_are_no_list(capsys, tmp_path, path_file, sizes):
    # the sizes check once raised a TypeError past the reader's error handling
    cfile = tmp_path / "sizes.json"
    cfile.write_text(json.dumps({"r": 2, "colors": [1, 2, 1, 2], "sizes": sizes}))
    assert run_cli(["verify", path_file, str(cfile)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed coloring JSON")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_deeply_nested_json_exits_1_with_an_error_line(capsys, tmp_path, path_file, command):
    # json's decoder raised a RecursionError past the readers' error handling
    deep = tmp_path / "deep.json"
    deep.write_text('{"m": ' + "[" * 200_000)
    args = [command, str(deep)] if command == "solve" else [command, path_file, str(deep)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error: JSON nested too deeply")


@pytest.mark.parametrize("case", ["instance id", "color", "text edge"])
def test_an_error_line_echoes_a_huge_input_in_under_1_kb(capsys, tmp_path, case):
    # each once echoed the whole value: a 2.29 MB line for the list, 0.9 MB
    # for the edge line of 300 001 tokens
    huge = list(range(300_000))
    two = tmp_path / "two.txt"
    two.write_text("2 2 1\n0 1\n")
    bad = tmp_path / "bad"
    if case == "instance id":
        bad.write_text(json.dumps({"m": 3, "n": 2, "edges": [[0, huge]]}))
        args = ["solve", str(bad), "-r", "2"]
    elif case == "color":
        bad.write_text(json.dumps({"r": 2, "colors": [1, huge]}))
        args = ["verify", str(two), str(bad)]
    else:
        bad.write_text("2 2 1\n" + " ".join(["0"] * 300_001) + "\n")
        args = ["solve", str(bad), "-r", "2"]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err.encode()) < 1024, err[:300]
    assert "characters)" in err


# any JSON value, and objects shaped like a coloring so that fuzzing reaches
# the checks behind the first key lookups
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)
_COLORING_JSON = _JSON | st.fixed_dictionaries(
    {"r": st.integers(-1, 5) | _JSON, "colors": st.lists(st.integers(-1, 5), max_size=6) | _JSON},
    optional={"sizes": st.lists(st.integers(0, 5), max_size=6) | _JSON},
)
_SIZES_NO_LIST = [{"r": 2, "colors": [1, 2, 1, 2], "sizes": 5}, {"r": 2, "colors": [1, 2], "sizes": None}]


@settings(max_examples=300, deadline=None)
@given(obj=_COLORING_JSON)
@example(obj=_SIZES_NO_LIST[0])
@example(obj=_SIZES_NO_LIST[1])
def test_coloring_reader_raises_only_format_errors(obj):
    obj = json.loads(json.dumps(obj))
    try:
        col = Coloring.from_json_dict(obj)
    except FormatError:
        return
    # what it accepts is a coloring with r <= max(m, 1), colors in 1..r and
    # the sizes it states, if any
    colors = col.colors.tolist()
    assert 1 <= col.r <= max(col.m, 1) and all(1 <= c <= col.r for c in colors)
    assert col.sizes == [colors.count(c) for c in range(1, col.r + 1)]
    assert "sizes" not in obj or list(obj["sizes"]) == col.sizes


@settings(max_examples=150, deadline=None)
@given(obj=_COLORING_JSON)
@example(obj=_SIZES_NO_LIST[0])
@example(obj=_SIZES_NO_LIST[1])
def test_verify_exits_0_1_or_2_on_any_coloring_json(tmp_path_factory, obj):
    base = tmp_path_factory.getbasetemp()
    inst, cfile = base / "fuzz_path.txt", base / "fuzz_coloring.json"
    inst.write_text(PATH_TEXT)
    cfile.write_text(json.dumps(obj))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(["verify", str(inst), str(cfile)])
    try:
        col = Coloring.from_json_dict(json.loads(json.dumps(obj)))
    except FormatError:
        col = None
    if col is None or col.m != 4:
        assert code == 1 and err.getvalue().startswith("error:")
    else:
        assert code == (0 if is_equitable(parse_hypergraph(PATH_TEXT), col) else 2)


def test_mc_json_output(capsys, path_file):
    code = run_cli(
        [
            "mc", path_file, "-r", "2", "--quantity", "mono-edge",
            "--trials", "400", "--seed", "5", "--format", "json",
        ]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["quantity"] == "mono-edge" and obj["trials"] == 400
    assert 0.0 <= obj["estimate"] <= 1.0
    assert obj["comparison"]["kind"] == "exact"


def test_mc_csv_output(capsys, path_file):
    code = run_cli(
        [
            "mc", path_file, "-r", "2", "--quantity", "mono-edge",
            "--trials", "100", "--seed", "5", "--format", "csv",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("quantity,")
    assert lines[1].startswith("mono-edge,")


def test_mc_quantity_params_via_flags(capsys, path_file):
    code = run_cli(
        [
            "mc", path_file, "-r", "2", "--quantity", "deflected", "--v", "1",
            "--trials", "200", "--seed", "5", "--no-compare", "--format", "json",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["comparison"] is None


def test_mc_chain_event_edge_list(capsys, path_file):
    code = run_cli(
        [
            "mc", path_file, "-r", "2", "--quantity", "chain-event",
            "--edges", "0,1", "--color", "2", "--trials", "200", "--seed", "5",
        ]
    )
    assert code == 0


# params each quantity is run with: the required ones, and a keep
# probability, since the derived one exceeds 1 on a 4-vertex path
MC_PARAMS = {
    "expected-deflections": {"i": 1},
    "dangerous-count": {"p_tilde": 0.5},
    "chain-event": {"edges": [0, 1], "color": 2},
    "deflected": {"v": 1},
}


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_mc_flags_match_direct_call(capsys, path_file, quantity):
    params = MC_PARAMS.get(quantity, {})
    flags = []
    for name, value in params.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        flags += ["--" + name.replace("_", "-"), text]
    code = run_cli(
        ["mc", path_file, "-r", "2", "--quantity", quantity, "--trials", "300", "--seed", "5"]
        + flags
        + ["--format", "json"]
    )
    assert code == 0
    direct = mc_estimate(quantity, parse_hypergraph(PATH_TEXT), 2, params, trials=300, seed=5)
    assert json.loads(capsys.readouterr().out) == direct.to_json_dict()


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--quantity", "balanced-mono", "--edge", "99"],
        ["mc", "--quantity", "balanced-mono", "--edge", "-1"],
        ["mc", "--quantity", "balanced-mono", "-r", "0"],
        ["oracle", "-r", "0"],
        ["oracle", "-r", "-1"],
    ],
)
def test_out_of_range_values_exit_1(capsys, path_file, argv):
    assert run_cli(argv[:1] + [path_file] + argv[1:]) == 1
    assert "error:" in capsys.readouterr().err


def test_mc_missing_required_param(capsys, path_file):
    assert run_cli(["mc", path_file, "-r", "2", "--quantity", "deflected"]) == 1
    assert "error:" in capsys.readouterr().err


def test_mc_rejects_unknown_quantity(capsys, path_file):
    assert run_cli(["mc", path_file, "-r", "2", "--quantity", "entropy"]) == 1


def test_bounds_json_values(capsys):
    assert run_cli(["bounds", "-n", "100", "-r", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["edge-threshold"] == pytest.approx(2.9535663302651655e28, rel=1e-9)
    assert obj["p"] == pytest.approx(0.01538995280090095, rel=1e-9)
    assert obj["asymptotic-regime"] is False
    assert obj["mono-edge-probability"] == pytest.approx(0.10873127313836181, abs=1e-12)
    assert obj["chain-probability"] == pytest.approx(3.385737404144304e-31, rel=1e-9)
    assert obj["expected-deflections"] == pytest.approx(1.1805347983576451, rel=1e-9)
    assert obj["dangerous-count"] == pytest.approx(10.857362047581296, rel=1e-9)


def test_bounds_with_vertex_count(capsys):
    assert run_cli(["bounds", "-n", "100", "-r", "2", "-m", "10000", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["q"] == pytest.approx(534.0430709897241, rel=1e-9)
    assert obj["p-tilde"] == pytest.approx(0.10847808683425605, rel=1e-9)


def test_bounds_small_m_reports_regime_error(capsys):
    assert run_cli(["bounds", "-n", "100", "-r", "2", "-m", "20", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["q"] > 0 and obj["p-tilde"] is None
    assert "exceeds 1" in obj["p-tilde-error"]


def test_usage_errors_exit_1(capsys):
    assert run_cli([]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["gen", "-m", "4"]) == 1  # missing -n/--edges
    assert run_cli(["mc", "x.txt", "-r", "2"]) == 1  # missing --quantity


def test_gen_rejects_negative_edge_count(capsys):
    assert run_cli(["gen", "-m", "5", "-n", "2", "--edges", "-1"]) == 1
    err = capsys.readouterr().err
    assert "num_edges" in err and "-1" in err


def test_gen_rejects_edge_count_past_the_draw_bound(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no random draw may happen before the limit check")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert run_cli(["gen", "-m", "60", "-n", "4", "--edges", "243818"]) == 1
    err = capsys.readouterr().err
    assert "num_edges = 243818" in err and "243817" in err


def test_missing_file_errors(capsys, tmp_path):
    assert run_cli(["solve", str(tmp_path / "ghost.txt"), "-r", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_errors(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("not an instance\n")
    assert run_cli(["solve", str(f), "-r", "2"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["3 2 1\n0 5\n", "3 2 1\n0 99999999999999999999\n", "3000000000 2 0\n"],
)
def test_out_of_range_instances_exit_1(capsys, monkeypatch, text):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run_cli(["solve", "-", "-r", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_solve_verify_pipeline(capsys, tmp_path):
    inst = tmp_path / "inst.txt"
    run_cli(["gen", "-m", "8", "-n", "3", "--edges", "4", "--seed", "7"])
    inst.write_text(capsys.readouterr().out)
    assert run_cli(["solve", str(inst), "-r", "2", "--seed", "3"]) == 0
    cfile = tmp_path / "coloring.json"
    cfile.write_text(capsys.readouterr().out)
    assert run_cli(["verify", str(inst), str(cfile)]) == 0


@pytest.mark.parametrize(
    "command",
    [["solve", "-", "-r", "2"], ["mc", "-", "-r", "2", "--quantity", "mono-edge", "--trials", "50"]],
)
def test_solve_and_mc_refuse_instances_above_the_vertex_limit(capsys, monkeypatch, command):
    import io

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be solved or estimated above the limit")

    # header-only instances: the check comes before anything is sized by m
    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve_equitable", refuse)
        patch.setattr(cli, "mc_estimate", refuse)
        for m in (cli.MAX_VERTICES + 1, 2**31 - 1):
            patch.setattr("sys.stdin", io.StringIO(f"{m} 2 0\n"))
            assert run_cli(command) == 1
            assert f"{m} vertices exceed the {cli.MAX_VERTICES}" in capsys.readouterr().err
    # the limit itself is allowed, shown at a small limit rather than at 10^7
    monkeypatch.setattr(cli, "MAX_VERTICES", 4)
    for m, code in ((4, 0), (5, 1)):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{m} 2 1\n0 1\n"))
        assert run_cli(command) == code
    assert "5 vertices exceed the 4" in capsys.readouterr().err


# small instances, as text or JSON.  One in four is malformed: a wrong size,
# vertex id, edge count or token, or a JSON value of the wrong type, so that
# fuzzing reaches the readers' errors as well as the commands behind them
_TOKENS = st.integers(-2, 13).map(str) | st.sampled_from(["", "x", "1.5", "-0", "1e1", "{"])


@st.composite
def _small_instance_text(draw):
    faulty = draw(st.integers(0, 3)) == 0
    n = draw(st.integers(0, 4) if faulty else st.integers(2, 4))
    m = draw(st.integers(0, 12) if faulty else st.integers(n, 12))
    if faulty:
        ids = st.integers(-1, m)
        row = st.lists(ids, min_size=n, max_size=n) | st.lists(ids, max_size=5)
    else:
        row = st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True)
    edges = draw(st.lists(row, max_size=10))
    if draw(st.booleans()):
        obj = {"m": m, "n": n, "edges": edges}
        if faulty and draw(st.booleans()):
            key = draw(st.sampled_from(["m", "n", "edges"]))
            obj[key] = draw(st.none() | st.booleans() | st.floats(-1, 13) | st.text(max_size=3))
        return json.dumps(obj)
    count = draw(st.integers(0, 10)) if faulty else len(edges)
    lines = [f"{m} {n} {count}"] + [" ".join(map(str, e)) for e in edges]
    if faulty and draw(st.booleans()):
        junk = " ".join(draw(st.lists(_TOKENS, max_size=5)))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


_MC_VALUES = {
    "p": st.floats(0.0, 1.0) | st.floats(-0.5, 1.5),
    "i": st.integers(-1, 4),
    "p_tilde": st.floats(0.0, 1.0) | st.floats(-0.5, 1.5),
    "edge": st.integers(-1, 10),
    "edges": st.lists(st.integers(-1, 10), max_size=3).map(lambda e: ",".join(map(str, e))),
    "color": st.integers(-1, 5),
    "v": st.integers(-1, 13),
}


@st.composite
def _cli_command(draw):
    """argv after the instance path for solve, oracle or mc: mostly values
    the command accepts, sometimes one it refuses."""
    command = draw(st.sampled_from(["solve", "oracle", "mc"]))
    argv = [command, "-r", str(draw(st.integers(2, 4) | st.integers(-1, 5)))]
    if command == "solve":
        restarts = draw(st.integers(1, 30) | st.integers(-1, 0))
        argv += ["--seed", str(draw(st.integers(0, 3))), "--restarts", str(restarts)]
        argv += ["--force-path", draw(st.sampled_from(["auto", "balanced-only", "two-stage-only"]))]
        flags = st.sampled_from(["--strict-divisibility", "--no-repair", "--explain"])
        argv += draw(st.lists(flags, unique=True)) + ["--format", "json"]
    elif command == "oracle":
        argv += ["--budget", str(draw(st.integers(10, 10**5) | st.integers(-1, 10)))]
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    else:
        quantity = draw(st.sampled_from(QUANTITIES))
        trials = draw(st.integers(1, 200) | st.integers(-1, 0))
        argv += ["--quantity", quantity, "--trials", str(trials)]
        argv += ["--seed", str(draw(st.integers(0, 3)))]
        # the quantity's own params, each left out one time in four, and
        # now and then one it does not take
        names = [prm.name for prm in _SPECS[quantity].params if draw(st.integers(0, 3))]
        if not draw(st.integers(0, 3)):
            names.append(draw(st.sampled_from(sorted(_MC_VALUES))))
        for name in dict.fromkeys(names):
            argv.append(f"--{name.replace('_', '-')}={draw(_MC_VALUES[name])}")
        argv += draw(st.sampled_from([[], ["--no-compare"]]))
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    return argv


@settings(max_examples=150, deadline=None)
@given(text=_small_instance_text(), argv=_cli_command())
# excess-pattern at r = 0 with p given divided by r before any check
@example(text="2 2 0\n", argv=["mc", "-r", "0", "--quantity", "excess-pattern", "--p=0.0"])
# p = 1 divided by zero in the keep probability, a traceback past run_cli
@example(
    text="6 3 2\n0 1 2\n3 4 5\n", argv=["mc", "-r", "2", "--quantity", "dangerous-count", "--p=1.0"]
)
def test_solve_oracle_and_mc_exit_0_1_or_2_on_small_instances(tmp_path_factory, text, argv):
    base = tmp_path_factory.getbasetemp()
    inst, cfile = base / "fuzz_instance.txt", base / "fuzz_solved.json"
    inst.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = run_cli(argv[:1] + [str(inst)] + argv[1:])
    assert code in (0, 1, 2)
    assert code != 1 or "error:" in err.getvalue()
    # a solve that succeeds writes a coloring that verify accepts
    if argv[0] == "solve" and code == 0:
        written = json.loads(out.getvalue())
        cfile.write_text(json.dumps(written["coloring"] if "--explain" in argv else written))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["verify", str(inst), str(cfile)]) == 0


def test_cli_subcommands(capsys, tmp_path):
    # two triangles sharing vertex 2, plus an edge across
    inst = tmp_path / "tris.txt"
    inst.write_text("6 3 4\n0 1 2\n2 3 4\n3 4 5\n0 4 5\n")
    assert run_cli(["solve", str(inst), "-r", "2", "--explain"]) in (0, 2)
    capsys.readouterr()
    assert run_cli(["solve", str(inst), "-r", "2"]) == 0
    cfile = tmp_path / "coloring.json"
    cfile.write_text(capsys.readouterr().out)
    assert run_cli(["verify", str(inst), str(cfile)]) == 0
    assert run_cli(["oracle", str(inst), "-r", "2"]) == 0
    assert run_cli(["mc", str(inst), "-r", "2", "--quantity", "mono-edge", "--trials", "200"]) == 0
