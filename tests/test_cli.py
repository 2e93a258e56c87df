"""Command line surface: subcommands, formats, and exit codes."""

import json

import pytest

from eqcolor import Coloring, Hypergraph, mc_estimate, parse_hypergraph
from eqcolor.cli import run_cli
from eqcolor.montecarlo import QUANTITIES

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
    assert h.m == 6 and h.n == 2 and len(h.edges) == 4


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
    for e in h.edges:
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
    cfile.write_text(Coloring(4, 2, [1, 2, 1, 2]).to_json())
    assert run_cli(["verify", path_file, str(cfile), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["proper"] and obj["equitable"]
    assert obj["targets"] == [2, 2]


def test_verify_rejects_improper(capsys, tmp_path, path_file):
    cfile = tmp_path / "bad.json"
    cfile.write_text(Coloring(4, 2, [1, 1, 2, 2]).to_json())
    assert run_cli(["verify", path_file, str(cfile)]) == 2
    assert "proper: False" in capsys.readouterr().out


def test_verify_rejects_uneven_sizes(capsys, tmp_path):
    inst = tmp_path / "free.txt"
    inst.write_text("4 2 0\n")
    cfile = tmp_path / "skew.json"
    cfile.write_text(Coloring(4, 2, [1, 1, 1, 2]).to_json())
    assert run_cli(["verify", str(inst), str(cfile)]) == 2


def test_verify_checks_vertex_count(capsys, tmp_path, path_file):
    cfile = tmp_path / "short.json"
    cfile.write_text(Coloring(3, 2, [1, 2, 1]).to_json())
    assert run_cli(["verify", path_file, str(cfile)]) == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_feasible_and_not(capsys, path_file, k4_file):
    assert run_cli(["oracle", path_file, "-r", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert run_cli(["oracle", k4_file, "-r", "2", "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["feasible"] is False


def test_oracle_budget_error(capsys, k4_file):
    assert run_cli(["oracle", k4_file, "-r", "2", "--budget", "3"]) == 1
    assert "error:" in capsys.readouterr().err


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
