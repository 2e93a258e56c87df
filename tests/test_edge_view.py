"""No package path reads ``Hypergraph.edges``, the tuple view kept for users.

Every test here runs with the view replaced by a property that counts its
reads and raises, so a package path that read it would fail even where an
exception is caught.  The array form ``edge_array`` and the CSR
``incidence`` are the only representations the package reads.
"""

import dataclasses
import json

import pytest

from eqcolor import (
    COMPLEX,
    ChainInvalid,
    DangerousEdge,
    Deflected,
    Hypergraph,
    IntervalPartition,
    MonoEdge,
    SolveConfig,
    WeightAssignment,
    brute_force_equitable,
    enumerate_chain_candidates,
    extract_chain,
    generate_random,
    mc_estimate,
    parse_hypergraph,
    run_interval_coloring,
    solve_equitable,
    validate_chain,
)
from eqcolor.cli import run_cli
from eqcolor.montecarlo import QUANTITIES, ChainEventSpec, MonoEdgeExists, exact_c0_event_prob
from eqcolor.solver import BALANCED_ONLY, EXHAUSTED, INFEASIBLE, PATH_BALANCED, SUCCESS

K4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
# two triangles sharing vertex 2, plus an edge across: m = 6 keeps every
# exact comparison within the oracle's reach
TRIS = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (3, 4, 5), (0, 4, 5)])


@pytest.fixture(autouse=True)
def no_edges_view(monkeypatch):
    reads = []

    def refuse(self):
        reads.append(self)
        raise AssertionError("a package path read Hypergraph.edges")

    monkeypatch.setattr(Hypergraph, "edges", property(refuse))
    yield
    assert not reads


def test_parsing_and_building_leave_both_caches_unbuilt():
    text = "6 3 4\n0 1 2\n2 3 4\n3 4 5\n0 4 5\n"
    for h in (
        parse_hypergraph(text),
        parse_hypergraph("6 3 4\n0\t1 2\n2 3 4\n3 4 5\n0 4 5\n"),  # the line-by-line path
        Hypergraph.from_json_dict(json.loads(TRIS.to_json())),
        Hypergraph(6, 3, [(2, 1, 0)]),
        generate_random(12, 3, 8, seed=1),
    ):
        assert h._incidence is None and h._edges is None


def test_serialization_and_equality():
    h = parse_hypergraph(TRIS.to_text())
    assert h.to_text() == "6 3 4\n0 1 2\n2 3 4\n3 4 5\n0 4 5\n"
    assert h.to_json_dict() == {"m": 6, "n": 3, "edges": [[0, 1, 2], [2, 3, 4], [3, 4, 5], [0, 4, 5]]}
    assert h == TRIS and h != K4 and h != Hypergraph(6, 3, [(0, 1, 2)])
    assert repr(h) == "Hypergraph(m=6, n=3, edges=4)"


def test_both_solver_routes():
    def solve(m, n, ne, r, **cfg):
        return solve_equitable(generate_random(m, n, ne, seed=1), r, SolveConfig(**cfg))

    balanced = solve(12, 3, 6, 2, seed=0, force_path=BALANCED_ONLY)
    assert balanced.path == PATH_BALANCED and balanced.outcome == SUCCESS
    rebalanced = solve(600, 5, 200, 3, seed=5)
    assert rebalanced.outcome == SUCCESS and rebalanced.plan.feasible
    repaired = solve(250, 6, 125, 3, seed=1)
    assert repaired.outcome == SUCCESS and repaired.diagnostics["rebalance-infeasible"] == 1
    # rejected attempts give chains; the oracle gives the verdict on both
    # routes, and an exhausted run without it still carries its chains
    for path in ("auto", BALANCED_ONLY):
        verdict = solve_equitable(K4, 2, SolveConfig(max_restarts=30, force_path=path))
        assert verdict.outcome == INFEASIBLE and verdict.oracle_feasible is False
    exhausted = solve_equitable(K4, 2, SolveConfig(max_restarts=30, enumeration_budget=0))
    assert exhausted.outcome == EXHAUSTED and exhausted.chains
    for report in (balanced, rebalanced, repaired, exhausted):
        json.dumps(report.to_json_dict(explain=True))


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_every_mc_quantity_with_its_comparison(quantity):
    params = {
        "expected-deflections": {"i": 1},
        "chain-event": {"edges": [0, 1], "color": 2},
        "deflected": {"v": 2},
        # m = 6 puts the derived keep probability above 1
        "dangerous-count": {"p_tilde": 0.5},
    }.get(quantity, {})
    report = mc_estimate(quantity, TRIS, 2, params=params, trials=300, seed=4)
    assert report.comparison is not None and 0.0 <= report.estimate


def test_exact_oracle():
    for r in (2, 3):
        assert 0.0 < exact_c0_event_prob(TRIS, r, MonoEdgeExists()) < 1.0
        events = [ChainEventSpec((0, 1), 2), Deflected(2, None)] + [Deflected(v, 1) for v in range(6)]
        assert 0.0 < exact_c0_event_prob(TRIS, r, events)


def test_chain_extraction_and_validation_on_each_failure_kind():
    p2 = IntervalPartition(0.2, 2)
    h = Hypergraph(3, 2, [(0, 1), (1, 2)])
    wa = WeightAssignment((0.1, 0.45, 0.7))
    init = run_interval_coloring(h, 2, p2, wa)
    for failure in (MonoEdge(1, 2), Deflected(1, 1), DangerousEdge(0, (0,))):
        rec = extract_chain(h, p2, wa, init, failure)
        validate_chain(h, p2, wa, init, rec, vsets=({0},) if rec.kind == COMPLEX else None)
        with pytest.raises(ChainInvalid):
            validate_chain(h, p2, wa, init, dataclasses.replace(rec, color=rec.color + 1))
    with pytest.raises(ValueError):
        extract_chain(h, p2, wa, init, MonoEdge(0, 1))


def test_candidate_enumeration_and_brute_force():
    assert enumerate_chain_candidates(TRIS, 2)[0] == 6
    assert enumerate_chain_candidates(TRIS, 2, kind=COMPLEX, last_edge=3)[0] == 3
    assert brute_force_equitable(TRIS, 2) is not None
    assert brute_force_equitable(K4, 2) is None and brute_force_equitable(K4, 1) is None


def test_cli_subcommands(capsys, tmp_path):
    inst = tmp_path / "tris.txt"
    inst.write_text(TRIS.to_text())
    assert run_cli(["solve", str(inst), "-r", "2", "--explain"]) in (0, 2)
    capsys.readouterr()
    assert run_cli(["solve", str(inst), "-r", "2"]) == 0
    cfile = tmp_path / "coloring.json"
    cfile.write_text(capsys.readouterr().out)
    assert run_cli(["verify", str(inst), str(cfile)]) == 0
    assert run_cli(["oracle", str(inst), "-r", "2"]) == 0
    assert run_cli(["mc", str(inst), "-r", "2", "--quantity", "mono-edge", "--trials", "200"]) == 0
