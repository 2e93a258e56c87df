"""End-to-end solving: routing, restarts, repair, and the exhaustion oracle."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from eqcolor import (
    Coloring,
    Hypergraph,
    SolveConfig,
    SolveReport,
    brute_force_equitable,
    class_targets,
    greedy_repair,
    is_equitable,
    is_proper,
    solve_equitable,
)
from eqcolor.solver import (
    AUTO,
    BALANCED_ONLY,
    EXHAUSTED,
    INFEASIBLE,
    PATH_BALANCED,
    PATH_TWO_STAGE,
    SUCCESS,
    TWO_STAGE_ONLY,
)

K4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_single_edge_two_vertices():
    h = Hypergraph(2, 2, [(0, 1)])
    report = solve_equitable(h, 2)
    assert report.outcome == SUCCESS
    assert is_equitable(h, report.coloring)
    assert sorted(report.coloring.colors.tolist()) == [1, 2]


def test_two_disjoint_edges():
    h = Hypergraph(4, 2, [(0, 1), (2, 3)])
    report = solve_equitable(h, 2)
    assert report.outcome == SUCCESS
    assert report.coloring.sizes == [2, 2]
    assert is_equitable(h, report.coloring)


def test_edgeless_instance_splits_evenly():
    h = Hypergraph(5, 2, [])
    report = solve_equitable(h, 2)
    assert report.outcome == SUCCESS
    assert sorted(report.coloring.sizes) == [2, 3]


def test_k4_is_reported_infeasible_by_enumeration():
    # on both routes: the oracle gives the verdict after the last restart
    for path in (AUTO, BALANCED_ONLY):
        report = solve_equitable(K4, 2, SolveConfig(max_restarts=30, force_path=path))
        assert report.outcome == INFEASIBLE
        assert report.oracle_feasible is False
        assert report.coloring is None
        assert report.attempts == 30


def test_k4_without_enumeration_budget_just_exhausts():
    report = solve_equitable(K4, 2, SolveConfig(max_restarts=30, enumeration_budget=0))
    assert report.outcome == EXHAUSTED
    assert report.oracle_feasible is None


def test_solver_is_deterministic():
    h = Hypergraph(9, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)])
    cfg = SolveConfig(seed=13)
    a = solve_equitable(h, 3, cfg)
    b = solve_equitable(h, 3, cfg)
    assert a.to_json_dict(explain=True) == b.to_json_dict(explain=True)
    c = solve_equitable(h, 3, SolveConfig(seed=14))
    assert c.outcome == SUCCESS  # different seed still solves


def test_route_picks_balanced_for_tiny_instances():
    h = Hypergraph(2, 2, [(0, 1)])
    assert solve_equitable(h, 2).path == PATH_BALANCED
    big = Hypergraph(12, 2, [(0, 1)])
    assert solve_equitable(big, 2).path == PATH_TWO_STAGE


def test_route_respects_forced_path():
    h = Hypergraph(6, 2, [(0, 1), (2, 3)])
    assert (
        solve_equitable(h, 2, SolveConfig(force_path=BALANCED_ONLY)).path
        == PATH_BALANCED
    )
    assert (
        solve_equitable(h, 2, SolveConfig(force_path=TWO_STAGE_ONLY)).path
        == PATH_TWO_STAGE
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_restarts=0)
    with pytest.raises(ValueError):
        SolveConfig(force_path="fastest")
    with pytest.raises(ValueError):
        solve_equitable(Hypergraph(3, 2, [(0, 1)]), 1)


def test_strict_divisibility():
    h = Hypergraph(5, 2, [(0, 1)])
    with pytest.raises(ValueError):
        solve_equitable(h, 2, SolveConfig(strict_divisibility=True))
    assert solve_equitable(h, 2).outcome == SUCCESS  # lax by default


def test_report_json_shapes():
    h = Hypergraph(4, 2, [(0, 1), (2, 3)])
    report = solve_equitable(h, 2)
    plain = report.to_json_dict()
    assert set(plain) == {
        "outcome",
        "attempts",
        "path",
        "r",
        "coloring",
        "diagnostics",
        "oracle_feasible",
    }
    full = report.to_json_dict(explain=True)
    assert "chains" in full and "plan" in full


def test_greedy_repair_moves_to_targets():
    h = Hypergraph(4, 2, [])
    skew = Coloring(4, 2, [1, 1, 1, 2])
    fixed = greedy_repair(h, skew, (2, 2))
    assert fixed is not None and fixed.sizes == [2, 2]
    assert skew.sizes == [3, 1]  # input untouched


def test_greedy_repair_leaves_balanced_input_alone():
    h = Hypergraph(4, 2, [(0, 1)])
    ok = Coloring(4, 2, [1, 2, 1, 2])
    fixed = greedy_repair(h, ok, (2, 2))
    assert fixed == ok


def test_greedy_repair_rejects_improper_input():
    h = Hypergraph(2, 2, [(0, 1)])
    with pytest.raises(ValueError):
        greedy_repair(h, Coloring(2, 2, [1, 1]), (1, 1))


@pytest.mark.parametrize(
    "targets, message",
    [
        ((10, 10), r"need 2 targets summing to 6, got \(10, 10\)"),
        ((2, 2), r"need 2 targets summing to 6, got \(2, 2\)"),
        ((2, 2, 2), r"need 2 targets summing to 6, got \(2, 2, 2\)"),
        ((7, -1), "target must be at least 0, got -1"),
        ((3.0, 3), "target 3.0 is not an integer"),
        ((True, 5), "target True is not an integer"),
    ],
)
def test_greedy_repair_refuses_targets_that_are_not_a_split_of_m(targets, message):
    # (10, 10) once came back as sizes (4, 2), "a proper coloring meeting
    # the targets", since only the over-target classes were tested
    h = Hypergraph(6, 2, [(0, 1)])
    with pytest.raises(ValueError, match=message):
        greedy_repair(h, Coloring(6, 2, [1, 2, 1, 1, 1, 2]), targets)


def test_greedy_repair_reports_stuck():
    # the star's only proper 2-colorings isolate the center, so no move
    # toward (2,2) keeps properness
    star = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])
    lopsided = Coloring(4, 2, [1, 2, 2, 2])
    assert greedy_repair(star, lopsided, (2, 2)) is None


def test_greedy_repair_respects_weight_order():
    h = Hypergraph(4, 2, [])
    skew = Coloring(4, 2, [1, 1, 1, 2])
    by_id = greedy_repair(h, skew, (2, 2))
    by_weight = greedy_repair(h, skew, (2, 2), weights=(0.9, 0.5, 0.1, 0.7))
    assert by_id.colors[0] == 2  # vertex 0 moves first without weights
    assert by_weight.colors[2] == 2  # lowest weight moves first with them


def _repair_restart_scan(h, coloring, targets, weights=None):
    """greedy_repair as it was before the one-pass scan, kept as its
    reference: after every move the scan starts again at the first vertex."""
    targets = tuple(targets)
    r = coloring.r
    colors = coloring.colors.tolist()
    sizes = list(coloring.sizes)
    if weights is None:
        order = list(range(h.m))
    else:
        order = sorted(range(h.m), key=lambda v: (weights[v], v))

    indptr, indices = h.incidence
    edges = h.edge_array.tolist()

    def keeps_proper(v, c_to):
        return not any(
            all(colors[u] == c_to for u in edges[e] if u != v)
            for e in indices[indptr[v] : indptr[v + 1]].tolist()
        )

    for _ in range(h.m * r):
        over = [c for c in range(1, r + 1) if sizes[c - 1] > targets[c - 1]]
        under = [c for c in range(1, r + 1) if sizes[c - 1] < targets[c - 1]]
        if not over:
            return Coloring(h.m, r, colors)
        moved = False
        for v in order:
            if colors[v] not in over:
                continue
            for c_to in under:
                if keeps_proper(v, c_to):
                    sizes[colors[v] - 1] -= 1
                    sizes[c_to - 1] += 1
                    colors[v] = c_to
                    moved = True
                    break
            if moved:
                break
        if not moved:
            return None
    return Coloring(h.m, r, colors) if tuple(sizes) == targets else None


def test_greedy_repair_matches_restart_scan_reference():
    rng = np.random.default_rng(61)
    checked = repaired = 0
    while checked < 400:
        m = int(rng.integers(2, 31))
        # up to 12 colors, so classes reach their targets out of color order
        r = min(int(rng.integers(2, 13)), m)  # no more colors than vertices
        n = int(rng.integers(2, min(m, 4) + 1))
        edges = {
            tuple(sorted(rng.choice(m, n, replace=False).tolist()))
            for _ in range(int(rng.integers(0, m + 1)))
        }
        h = Hypergraph(m, n, sorted(edges))
        coloring = Coloring(m, r, rng.integers(1, r + 1, m).tolist())
        if not is_proper(h, coloring):
            continue
        weights = rng.random(m) if checked % 2 else None
        targets = class_targets(m, r)
        got = greedy_repair(h, coloring, targets, weights=weights)
        want = _repair_restart_scan(h, coloring, targets, weights=weights)
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want and got.sizes == want.sizes == targets
            repaired += 1
        checked += 1
    assert repaired > 100


def test_greedy_repair_of_a_large_two_stage_coloring_is_frozen():
    # one proper 549/451 two-stage coloring of a (1000, 10, 2200) instance,
    # repaired in weight order; the moved vertices were taken from the scan
    # that converted the whole incidence to lists on each call
    from eqcolor import (
        IntervalPartition,
        choose_p,
        generate_random,
        run_interval_coloring,
        sample_weights,
    )

    h = generate_random(1000, 10, 2200, 3)
    part = IntervalPartition(choose_p(h.n, 2), 2)
    init = run_interval_coloring(h, 2, part, sample_weights(h.m, 5))
    assert is_proper(h, init.coloring) and init.coloring.sizes == [549, 451]
    targets = class_targets(h.m, 2)
    fixed = greedy_repair(h, init.coloring, targets, weights=init.weights)
    moved = np.flatnonzero(fixed.colors != init.coloring.colors).tolist()
    assert moved == [
        29, 31, 48, 88, 112, 129, 130, 160, 180, 204, 238, 247, 295, 303, 310, 315, 388,
        407, 428, 436, 460, 517, 536, 540, 541, 550, 577, 583, 585, 605, 608, 682, 709,
        710, 722, 732, 744, 753, 756, 782, 809, 811, 831, 876, 888, 958, 965, 972, 980,
    ]
    assert fixed.colors[moved].tolist() == [2] * len(moved)
    assert fixed.sizes == [500, 500] and is_proper(h, fixed)
    assert fixed == _repair_restart_scan(h, init.coloring, targets, weights=init.weights)


def test_greedy_repair_is_one_pass(monkeypatch):
    from eqcolor import solver

    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return keeps(*args)

    keeps = solver._move_keeps_proper
    monkeypatch.setattr(solver, "_move_keeps_proper", counting)
    m, r = 2000, 2
    # vertices 0..499 wear color 1 but are pinned there by an edge to a
    # color-2 partner; a scan that restarts at vertex 0 after each of the
    # 500 moves re-checks all of them every time
    blocked = Hypergraph(m, 2, [(v, 500 + v) for v in range(500)])
    colors = [1] * 500 + [2] * 500 + [1] * 1000
    for h in (Hypergraph(m, 2, []), blocked):
        calls = 0
        fixed = greedy_repair(h, Coloring(m, r, colors), class_targets(m, r))
        assert fixed.sizes == class_targets(m, r) and is_proper(h, fixed)
        assert 0 < calls <= m * r


def test_greedy_repair_reads_each_target_o_r_plus_moves_times(monkeypatch):
    from eqcolor import solver

    reads = 0

    class Counted(tuple):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return tuple.__getitem__(self, i)

    check = solver._check_targets
    monkeypatch.setattr(solver, "_check_targets", lambda *args: Counted(check(*args)))
    # colors 1..200 hold 20 vertices each and 201..400 none: 2000 moves.
    # Recounting the classes after every move read the targets 2r times
    # per move, 1 600 800 times here
    m, r = 4000, 400
    colors = [1 + v % 200 for v in range(m)]
    fixed = greedy_repair(Hypergraph(m, 2, []), Coloring(m, r, colors), class_targets(m, r))
    assert fixed.sizes == class_targets(m, r)
    moves = int((fixed.colors != np.array(colors)).sum())
    assert moves == 2000
    assert 0 < reads <= 2 * (r + moves)


def test_greedy_repair_checks_weight_length():
    with pytest.raises(ValueError):
        greedy_repair(Hypergraph(3, 2, []), Coloring(3, 2, [1, 1, 2]), (2, 1), weights=(0.1, 0.2))


def _assert_plain_json(obj):
    """Only built-in JSON types all the way down, so no numpy scalar hides
    in a report (json.dumps would take a numpy float silently)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            assert type(key) is str
            _assert_plain_json(value)
    elif isinstance(obj, list):
        for value in obj:
            _assert_plain_json(value)
    else:
        assert obj is None or type(obj) in (str, int, float, bool), (obj, type(obj))


def test_reports_serialize_to_plain_json_on_every_path():
    from eqcolor import generate_random

    def solve(m, n, ne, r, **cfg):
        return solve_equitable(generate_random(m, n, ne, seed=1), r, SolveConfig(**cfg))

    balanced = solve(12, 3, 6, 2, seed=0, force_path=BALANCED_ONLY)
    accepted = solve(250, 6, 125, 3, seed=0)
    rebalanced = solve(600, 5, 200, 3, seed=5)
    repaired = solve(250, 6, 125, 3, seed=1)
    exhausted = solve_equitable(K4, 2, SolveConfig(max_restarts=30, enumeration_budget=0))
    zero = {"mono-edge": 0, "rebalance-infeasible": 0, "repair-failed": 0}
    assert balanced.path == PATH_BALANCED and balanced.outcome == SUCCESS
    # each two-stage success came on the first attempt, by the route named
    assert accepted.attempts == 1 and accepted.plan is None and accepted.diagnostics == zero
    assert rebalanced.attempts == 1 and rebalanced.plan.feasible
    assert rebalanced.diagnostics == zero
    # m = 250 is too small for the rebalancing keep probability, so no plan
    # is built and repair closes the gap; a success counts under no counter
    assert repaired.attempts == 1 and repaired.plan is None and repaired.diagnostics == zero
    assert repaired.outcome == SUCCESS
    assert exhausted.outcome == EXHAUSTED and exhausted.chains
    for report in (balanced, accepted, rebalanced, repaired, exhausted):
        obj = report.to_json_dict(explain=True)
        _assert_plain_json(obj)
        assert json.loads(json.dumps(obj)) == obj


def test_solved_instances_are_never_invalid():
    # randomized mini-sweep; the wide version lives in the acceptance suite
    rng = np.random.default_rng(41)
    solved = 0
    for _ in range(120):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, min(m, 3) + 1))
        ne = int(rng.integers(0, min(math.comb(m, n), 6) + 1))
        edges = set()
        while len(edges) < ne:
            edges.add(tuple(sorted(rng.choice(m, n, replace=False).tolist())))
        h = Hypergraph(m, n, sorted(edges))
        r = min(int(rng.integers(2, 4)), m)  # no more colors than vertices
        report = solve_equitable(h, r, SolveConfig(seed=int(rng.integers(0, 2**31))))
        if report.outcome == SUCCESS:
            assert is_equitable(h, report.coloring)
            assert max(report.coloring.sizes) - min(report.coloring.sizes) <= 1
            solved += 1
        else:
            # a miss must not be the solver's fault on these tiny instances
            assert brute_force_equitable(h, r) is None
    assert solved > 80


def test_attempt_counter_counts_restarts():
    report = solve_equitable(K4, 2, SolveConfig(max_restarts=7, enumeration_budget=0))
    assert report.outcome == EXHAUSTED and report.attempts == 7
    assert report.diagnostics  # failure counters populated


def test_chains_are_extracted_only_for_the_reported_attempt(monkeypatch):
    from eqcolor import generate_random, solver

    calls = []

    def counting(*args):
        calls.append(args[-1])
        return extract(*args)

    extract = solver.extract_chain
    monkeypatch.setattr(solver, "extract_chain", counting)
    h = generate_random(1000, 6, 1200, 5)
    report = solve_equitable(h, 3, SolveConfig(seed=0))
    assert report.outcome == SUCCESS and report.diagnostics["mono-edge"] >= 2
    chains = report.chains
    assert len(calls) == len(chains) > 0
    assert [c.edges[-1] for c in chains] == [f.edge for f in calls]


def test_chains_are_extracted_on_first_read_only(monkeypatch):
    # a solve extracts no chain; the first read of its report's chains
    # extracts one per monochromatic edge of the last rejected attempt,
    # through the solver's global, and a second read extracts none
    from eqcolor import IntervalPartition, choose_p, generate_random, solver
    from eqcolor.hypergraph import _mono_edges
    from eqcolor.seeding import ROLE_WEIGHTS, derive

    calls = []
    extract = solver.extract_chain

    def counting(*args):
        calls.append(args[-1])
        return extract(*args)

    monkeypatch.setattr(solver, "extract_chain", counting)
    h = generate_random(1000, 6, 1200, 1)
    report = solve_equitable(h, 3, SolveConfig(seed=3, max_restarts=2))
    assert report.outcome == EXHAUSTED and report.diagnostics["mono-edge"] == 2
    assert calls == []
    chains = report.chains
    # the last rejected attempt is attempt 1, row 0 of the second batch
    weights = derive(3, 0, ROLE_WEIGHTS).random((2, h.m))[1]
    init = solver.run_interval_coloring(h, 3, IntervalPartition(choose_p(6, 3), 3), weights)
    mono = np.flatnonzero(_mono_edges(h, init.coloring.colors)).tolist()
    assert [f.edge for f in calls] == [c.edges[-1] for c in chains] == mono
    assert len(mono) == 3
    assert report.chains is chains and len(calls) == 3


def test_a_rejecting_report_retains_no_batch():
    # the report of a solve that rejected attempts keeps its coloring, its
    # plan and the edge ids of the last rejected attempt, and no array of a
    # batch: at m = 20 000 one batch row of weights alone is 160 kB
    import gc
    import tracemalloc

    from eqcolor import generate_random

    h = generate_random(20_000, 6, 24_000, 1)
    cfg = SolveConfig(seed=0, max_restarts=3, allow_fallback_repair=False)
    solve_equitable(h, 3, cfg)  # warm caches outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = solve_equitable(h, 3, cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.diagnostics["mono-edge"] >= 1 and report.coloring is None
    assert report._rejected is not None
    assert retained < 8 * 1024, retained


def test_solver_reports_only_checked_chains(monkeypatch):
    # at seed 15 the last rejected attempt ends on a two-edge chain; a walk
    # that drops its link yields a record the solver must not report
    from eqcolor import ChainInvalid, chains, generate_random

    h = generate_random(1000, 6, 1200, 1)
    report = solve_equitable(h, 3, SolveConfig(seed=15))
    assert any(c.k == 2 for c in report.chains)
    walk = chains._walk_back

    def dropping(*args):
        edges, links = walk(*args)
        return (edges[1:], links[1:]) if links else (edges, links)

    monkeypatch.setattr(chains, "_walk_back", dropping)
    # chains are built, and validated, when they are first read
    report = solve_equitable(h, 3, SolveConfig(seed=15))
    with pytest.raises(ChainInvalid):
        report.chains


# Attempts that share one seeding block, written here independently of the
# solver's constant.
BLOCK = 64


@dataclasses.dataclass
class _EagerReport(SolveReport):
    """A report whose chains were extracted before the solve returned, as
    the reference extracts them; its ``chains`` is a plain field."""

    chains: tuple = ()


# The solver before attempts were screened in batches: one kernel call and
# one edge scan per attempt.  Kept as the reference the batched loop must
# reproduce report for report; its only change is the seeding rule, where
# attempt t takes row t mod BLOCK of block t // BLOCK, drawn whole.  Its
# reports carry chains extracted before it returns.
def _solve_per_attempt(h, r, cfg=SolveConfig()):
    from eqcolor.chains import MonoEdge, extract_chain
    from eqcolor.hypergraph import _mono_edges
    from eqcolor.intervals import (
        IntervalPartition,
        choose_p,
        run_interval_coloring,
    )
    from eqcolor.rebalance import (
        RegimeViolation,
        apply_recolor,
        build_rebalance_plan,
        excess_shortage,
    )
    from eqcolor.seeding import ROLE_BALANCED, ROLE_VSETS, ROLE_WEIGHTS, derive
    from eqcolor.solver import _route

    def _chains(h, partition, rejected):
        if rejected is None:
            return ()
        init, mono = rejected
        cols = init.coloring.colors
        return tuple(
            extract_chain(h, init, MonoEdge(e, int(cols[h.edge_array[e, 0]]))) for e in mono
        )

    if r < 2:
        raise ValueError("need at least 2 colors")
    if cfg.strict_divisibility and h.m % r != 0:
        raise ValueError(f"strict divisibility requires r | m, got m={h.m}, r={r}")

    path = _route(h, r, cfg)
    targets = class_targets(h.m, r)
    diagnostics = {"mono-edge": 0, "rebalance-infeasible": 0, "repair-failed": 0}
    rejected = None
    plan = None

    partition = None
    if path == PATH_TWO_STAGE:
        partition = IntervalPartition(choose_p(h.n, r), r)

    for attempt in range(cfg.max_restarts):
        if path == PATH_BALANCED:
            rng = derive(cfg.seed, attempt // BLOCK, ROLE_BALANCED)
            for _ in range(attempt % BLOCK + 1):
                perm = rng.permutation(h.m)
            # the permutation cut into consecutive classes at the targets
            colors = np.empty(h.m, dtype=np.int64)
            colors[perm] = np.repeat(np.arange(1, r + 1), targets)
            coloring = Coloring(h.m, r, colors.tolist())
            if is_proper(h, coloring):
                return _EagerReport(SUCCESS, coloring, attempt + 1, path, r, diagnostics)
            diagnostics["mono-edge"] += 1
            continue

        block = derive(cfg.seed, attempt // BLOCK, ROLE_WEIGHTS).random((BLOCK, h.m))
        init = run_interval_coloring(h, r, partition, block[attempt % BLOCK])
        mono = np.flatnonzero(_mono_edges(h, init.coloring.colors)).tolist()
        if mono:
            diagnostics["mono-edge"] += 1
            rejected = (init, mono)
            continue

        if is_equitable(h, init.coloring):
            return _EagerReport(
                SUCCESS, init.coloring, attempt + 1, path, r, diagnostics, plan,
                chains=_chains(h, partition, rejected),
            )

        # a proper attempt tries a rebalanced candidate, then, with repair
        # on, a repaired one; with neither equitable it counts once, under
        # repair-failed with repair on and rebalance-infeasible with it off
        candidates = []
        ex, sh = excess_shortage(init.coloring, targets)
        if all(s == 0 for s in sh[:-1]) and any(sh):
            try:
                plan = build_rebalance_plan(
                    h,
                    init,
                    targets,
                    derive(cfg.seed, attempt, ROLE_VSETS),
                )
            except RegimeViolation:
                pass
            else:
                if plan.feasible:
                    candidates.append(lambda: apply_recolor(init.coloring, plan.wsets))
        if cfg.allow_fallback_repair:
            candidates.append(
                lambda: greedy_repair(h, init.coloring, targets, weights=init.weights)
            )
        for build in candidates:
            candidate = build()
            if candidate is not None and is_equitable(h, candidate):
                return _EagerReport(
                    SUCCESS, candidate, attempt + 1, path, r, diagnostics, plan,
                    chains=_chains(h, partition, rejected),
                )
        failure = "repair-failed" if cfg.allow_fallback_repair else "rebalance-infeasible"
        diagnostics[failure] += 1

    oracle_feasible = None
    if h.m >= 1 and r**h.m <= cfg.enumeration_budget:
        oracle_feasible = (
            brute_force_equitable(h, r, budget=cfg.enumeration_budget) is not None
        )
    outcome = INFEASIBLE if oracle_feasible is False else EXHAUSTED
    return _EagerReport(
        outcome, None, cfg.max_restarts, path, r, diagnostics, plan,
        oracle_feasible=oracle_feasible, chains=_chains(h, partition, rejected),
    )


def _assert_matches_per_attempt(h, r, cfg):
    report = solve_equitable(h, r, cfg)
    assert report.to_json_dict(explain=True) == _solve_per_attempt(h, r, cfg).to_json_dict(
        explain=True
    )
    # the counters partition the attempts; a success counts under none
    success = report.outcome == SUCCESS
    assert report.attempts == sum(report.diagnostics.values()) + success, report
    if report.coloring is not None:
        assert is_equitable(h, report.coloring)
    return report


def _batch_starts(limit, h):
    """First attempt index of every batch up to ``limit``: batches hold 1,
    4, 16, ... attempts, each four times the last, up to the cell cap."""
    from eqcolor import solver

    cap = max(1, solver._SUB_BATCH_CELLS // max(h.m, h.n * len(h.edge_array)))
    starts, size = [0], 1
    while starts[-1] + size <= limit:
        starts.append(starts[-1] + size)
        size = min(4 * size, cap)
    return starts


def _batch_sizes(attempts, max_restarts, h):
    """The sizes of the batches a solve that stopped after ``attempts``
    attempts drew: those starting before it, the last cut at
    ``max_restarts``."""
    starts = [s for s in _batch_starts(max_restarts, h) if s < max_restarts] + [max_restarts]
    return [b - a for a, b in zip(starts, starts[1:]) if a < attempts]


def _attempt_outcomes(h, r, cfg, attempts):
    """The diagnostics counter each of the first ``attempts`` attempts
    raised, read off the reference run cut after each attempt; each raises
    exactly one counter, by one."""
    out, before = [], dict.fromkeys(("mono-edge", "rebalance-infeasible", "repair-failed"), 0)
    for k in range(1, attempts + 1):
        cut = dataclasses.replace(cfg, max_restarts=k, enumeration_budget=0)
        after = _solve_per_attempt(h, r, cut).diagnostics
        (raised,) = [key for key in after if after[key] != before[key]]
        assert after[raised] == before[raised] + 1, (k, before, after)
        out.append(raised)
        before = after
    return out


@pytest.mark.parametrize("max_restarts", [1, 2, 3, 7, 100])
def test_batched_attempts_match_per_attempt_reference(max_restarts):
    from eqcolor import generate_random

    shapes = [(1000, 6, 1200, 3), (40, 3, 30, 3), (250, 6, 125, 3), (60, 3, 40, 2)]
    outcomes = set()
    for (m, n, ne, r), seed in zip(shapes * 2, range(8)):
        h = generate_random(m, n, ne, seed)
        cfg = SolveConfig(seed=seed, max_restarts=max_restarts)
        report = _assert_matches_per_attempt(h, r, cfg)
        # the next attempt would open a batch iff the solve used its whole batch
        outcomes.add((report.outcome, report.attempts in _batch_starts(max_restarts, h)))
    if max_restarts == 100:
        # some solve succeeded before the last row of its batch
        assert (SUCCESS, False) in outcomes


@pytest.mark.parametrize("shape, r", [((7, 3, 6, 2), 2), ((8, 3, 6, 3), 2), ((8, 3, 4, 1), 3)])
def test_attempt_loop_rejects_at_the_exact_mono_edge_rate(shape, r):
    # attempts are i.i.d. and a solve stops at a time that depends only on
    # its past attempts, so by Wald's identity the pooled share of attempts
    # rejected on a monochromatic edge estimates P(some edge is
    # monochromatic), which the exact oracle gives independently of the
    # loop's batching, block seeding, screen and counts.  Measured: 0.6138
    # against 0.6160 (3 sigma 0.0153), 0.6223 against 0.6210 (0.0112) and
    # 0.2070 against 0.2057 (0.0112)
    from eqcolor import MonoEdgeExists, exact_c0_event_prob, generate_random

    h = generate_random(*shape)
    rejected = attempts = 0
    for seed in range(3000):
        cfg = SolveConfig(
            seed=seed, max_restarts=50, force_path=TWO_STAGE_ONLY, allow_fallback_repair=False
        )
        report = solve_equitable(h, r, cfg)
        rejected += report.diagnostics["mono-edge"]
        attempts += report.attempts
    exact = exact_c0_event_prob(h, r, MonoEdgeExists())
    share = rejected / attempts
    assert abs(share - exact) <= 3 * math.sqrt(exact * (1 - exact) / attempts), (share, exact)


@pytest.mark.parametrize("shape, r", [((8, 3, 6, 3), 2), ((9, 3, 8, 1), 3), ((10, 3, 10, 2), 2)])
def test_balanced_route_rejects_at_the_listed_rate(shape, r):
    # a balanced attempt is a uniform coloring at the class targets, so by
    # Wald's identity, as above, the pooled share of attempts rejected on a
    # monochromatic edge estimates the share of those colorings that are
    # not proper, listed here plainly.  Measured: 0.6343 against 44/70
    # (3 sigma 0.0160), 0.2633 against 426/1680 (0.0205) and 0.7939
    # against 200/252 (0.0101)
    from eqcolor import generate_random

    h = generate_random(*shape)
    edges, targets = h.edge_array.tolist(), class_targets(h.m, r)
    at_targets = improper = 0
    for colors in itertools.product(range(1, r + 1), repeat=h.m):
        if [colors.count(c) for c in range(1, r + 1)] == targets:
            at_targets += 1
            improper += any(len({colors[v] for v in e}) == 1 for e in edges)
    exact = improper / at_targets
    rejected = attempts = 0
    for seed in range(3000):
        cfg = SolveConfig(seed=seed, max_restarts=50, force_path=BALANCED_ONLY)
        report = solve_equitable(h, r, cfg)
        rejected += report.diagnostics["mono-edge"]
        attempts += report.attempts
    share = rejected / attempts
    assert abs(share - exact) <= 3 * math.sqrt(exact * (1 - exact) / attempts), (share, exact)


def _accepted_after_failed_row(failure):
    """(instance, r, config) whose accepted attempt is not the first of its
    batch and follows, in that batch, a clean row that failed as named."""
    from eqcolor import generate_random

    if failure == "rebalance-infeasible":
        # attempt 9 is accepted in the batch of attempts 5-20, after
        # attempt 8 failed rebalancing
        cfg = SolveConfig(seed=17, max_restarts=40, allow_fallback_repair=False)
        return generate_random(40, 3, 30, 2), 3, cfg
    # attempt 18 is accepted in the batch of attempts 5-20, after attempt 6
    # failed repair
    edges = [(0, 2), (0, 8), (1, 9), (2, 7), (3, 4), (4, 5), (4, 6), (4, 7), (5, 8), (5, 9)]
    return Hypergraph(10, 2, edges), 3, SolveConfig(seed=5, max_restarts=200)


@pytest.mark.parametrize("failure", ["rebalance-infeasible", "repair-failed"])
def test_accept_after_failed_row_in_same_batch_matches_reference(failure):
    h, r, cfg = _accepted_after_failed_row(failure)
    report = _assert_matches_per_attempt(h, r, cfg)
    assert report.outcome == SUCCESS
    accepted = report.attempts - 1
    start = max(s for s in _batch_starts(accepted + 1, h) if s <= accepted)
    assert start < accepted
    before = _attempt_outcomes(h, r, cfg, accepted)[start:]
    assert failure in before, before


def _accepted_after_rejection_in_earlier_batch():
    """(instance, r, config) whose accepted attempt 1 opens the batch of
    attempts 1-4, after attempt 0 was rejected in the batch before."""
    from eqcolor import generate_random

    return generate_random(250, 6, 125, 0), 3, SolveConfig(seed=0)


def _accepted_after_failed_rows():
    """(instance, r, config) whose accepted attempt 58 follows, in the batch
    of attempts 21-84, three clean rows that failed repair (attempts 21 and
    27 after a failed rebalance), and the last rejected attempt 57."""
    from eqcolor import generate_random

    return generate_random(9, 2, 12, 37), 3, SolveConfig(seed=37, max_restarts=200)


def test_accept_after_rejection_in_earlier_batch_matches_reference():
    h, r, cfg = _accepted_after_rejection_in_earlier_batch()
    report = _assert_matches_per_attempt(h, r, cfg)
    accepted = report.attempts - 1
    assert report.outcome == SUCCESS and accepted in _batch_starts(accepted, h)
    assert _attempt_outcomes(h, r, cfg, accepted)[-1] == "mono-edge"
    assert report.chains


def test_accept_after_several_failed_rows_in_same_batch_matches_reference():
    h, r, cfg = _accepted_after_failed_rows()
    report = _assert_matches_per_attempt(h, r, cfg)
    assert report.outcome == SUCCESS and report.attempts == 59
    assert max(_batch_starts(59, h)) == 21
    raised = _attempt_outcomes(h, r, cfg, 58)
    failed = [t for t in range(21, 58) if raised[t] != "mono-edge"]
    assert failed == [21, 27, 52]
    assert all(raised[t] == "repair-failed" for t in failed) and raised[57] == "mono-edge"
    assert report.chains


def test_recolor_that_misses_the_targets_counts_and_goes_on_to_repair(monkeypatch):
    # a plan that was built but whose recolor is not equitable: on the
    # rebalanced instance of the CI smoke test, a recolor that moves nothing
    # leaves attempt 2's coloring as it was; greedy repair closes the gap,
    # so the attempt succeeds and counts under no counter
    from eqcolor import generate_random, solver

    h = generate_random(1000, 6, 1200, seed=1)
    applied = []

    def unchanged(coloring, wsets):
        applied.append(len(wsets))
        return coloring

    monkeypatch.setattr(solver, "apply_recolor", unchanged)
    report = solve_equitable(h, 3)
    assert applied == [2] and report.plan.feasible
    assert report.outcome == SUCCESS and report.attempts == 3
    assert report.diagnostics == {"mono-edge": 2, "rebalance-infeasible": 0, "repair-failed": 0}
    assert is_equitable(h, report.coloring)


def test_exhausted_path_matches_reference_with_chains_and_verdict():
    k6 = Hypergraph(6, 3, list(itertools.combinations(range(6), 3)))
    for seed, max_restarts in ((0, 100), (3, 7)):
        report = _assert_matches_per_attempt(k6, 2, SolveConfig(seed=seed, max_restarts=max_restarts))
        assert report.outcome == INFEASIBLE and report.oracle_feasible is False
        assert report.attempts == report.diagnostics["mono-edge"] == max_restarts
        assert report.chains
    report = _assert_matches_per_attempt(
        K4, 2, SolveConfig(seed=2, max_restarts=30, enumeration_budget=0)
    )
    assert report.outcome == EXHAUSTED and report.chains


def test_forced_two_stage_matches_reference_on_a_balanced_route_instance():
    from eqcolor import generate_random
    from eqcolor.solver import _route

    h = generate_random(16, 6, 300, 1)
    assert _route(h, 3, SolveConfig()) == PATH_BALANCED
    outcomes = set()
    for seed in (*range(6), 12):
        cfg = SolveConfig(seed=seed, max_restarts=50, force_path=TWO_STAGE_ONLY)
        report = _assert_matches_per_attempt(h, 3, cfg)
        assert report.path == PATH_TWO_STAGE
        outcomes.add((report.outcome, report.attempts))
    # seed 12 accepts attempt 2, the second row of the batch of attempts 1-4
    assert (SUCCESS, 3) in outcomes
    _assert_matches_per_attempt(h, 3, SolveConfig(seed=0))


def test_no_fallback_repair_matches_reference():
    from eqcolor import generate_random

    for (m, n, ne, r), seed in itertools.product(((40, 3, 30, 3), (250, 6, 125, 3)), range(4)):
        h = generate_random(m, n, ne, seed)
        cfg = SolveConfig(seed=seed, max_restarts=60, allow_fallback_repair=False)
        report = _assert_matches_per_attempt(h, r, cfg)
        assert report.diagnostics["repair-failed"] == 0
    # most proper attempts here have a shortage beyond color r, which
    # rebalancing does not take: with repair off each counts under
    # rebalance-infeasible (seeds 0, 1 and 2 reject 6, 2 and 1 of them)
    h = generate_random(500, 8, 400, 1)
    for seed in range(4):
        cfg = SolveConfig(seed=seed, max_restarts=60, allow_fallback_repair=False)
        report = _assert_matches_per_attempt(h, 4, cfg)
        assert report.diagnostics["mono-edge"] == report.diagnostics["repair-failed"] == 0
        assert report.attempts == report.diagnostics["rebalance-infeasible"] + 1


def test_balanced_route_matches_reference_past_the_first_block():
    # K_{5,5} at r = 2 has one equitable proper coloring up to swapping
    # colors, so balanced draws succeed about once in 126 attempts
    k55 = Hypergraph(10, 2, [(a, b) for a in range(5) for b in range(5, 10)])
    for seed, attempts in ((9, 89), (2, 188)):
        cfg = SolveConfig(seed=seed, force_path=BALANCED_ONLY)
        report = _assert_matches_per_attempt(k55, 2, cfg)
        assert report.path == PATH_BALANCED and report.attempts == attempts
    # exhausted inside the batch of attempts 85-340; balanced attempts
    # carry no chains
    cfg = SolveConfig(seed=2, max_restarts=100, force_path=BALANCED_ONLY)
    report = _assert_matches_per_attempt(k55, 2, cfg)
    assert report.outcome == EXHAUSTED and report.oracle_feasible is True
    assert report.diagnostics["mono-edge"] == 100 and report.chains == ()


def test_batch_sizes_change_no_report(monkeypatch):
    from eqcolor import generate_random, solver

    k6 = Hypergraph(6, 3, list(itertools.combinations(range(6), 3)))
    k55 = Hypergraph(10, 2, [(a, b) for a in range(5) for b in range(5, 10)])
    cases = [
        (k6, 2, SolveConfig(seed=1, max_restarts=300)),
        (generate_random(1000, 6, 1200, 5), 3, SolveConfig(seed=0)),
        _accepted_after_failed_row("rebalance-infeasible"),
        _accepted_after_failed_row("repair-failed"),
        _accepted_after_rejection_in_earlier_batch(),
        _accepted_after_failed_rows(),
        # balanced route: accepted on attempt 187, in the third block and,
        # by default, in the batch of attempts 85-340
        (k55, 2, SolveConfig(seed=2, force_path=BALANCED_ONLY)),
        # balanced route exhausted at 100 attempts, inside a default batch
        (k55, 2, SolveConfig(seed=2, max_restarts=100, force_path=BALANCED_ONLY)),
    ]
    reports = []
    for cells in (1, solver._SUB_BATCH_CELLS, 2**24):
        monkeypatch.setattr(solver, "_SUB_BATCH_CELLS", cells)
        reports.append(
            [solve_equitable(h, r, cfg).to_json_dict(explain=True) for h, r, cfg in cases]
        )
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][0]["attempts"] == 300 and reports[0][1]["attempts"] > 1
    accepted, exhausted = reports[0][-2:]
    assert accepted["outcome"] == SUCCESS and accepted["attempts"] == 188
    assert 100 not in _batch_starts(200, k55)
    assert exhausted["outcome"] == EXHAUSTED and exhausted["attempts"] == 100
    assert exhausted["diagnostics"] == {
        "mono-edge": 100, "rebalance-infeasible": 0, "repair-failed": 0
    }
    assert exhausted["oracle_feasible"] is True and exhausted["chains"] == []


def _recording(monkeypatch, name):
    """Replace ``solver.<name>`` by a wrapper that records (args, result)."""
    from eqcolor import solver

    calls = []
    fn = getattr(solver, name)

    def recording(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(solver, name, recording)
    return calls


def test_each_batch_scans_its_edges_once(monkeypatch):
    # solving scans each batch's edges once; reading the report's chains
    # replays the last rejected attempt and scans its row once more
    from eqcolor import generate_random

    scans = _recording(monkeypatch, "_mono_edges")
    k6 = Hypergraph(6, 3, list(itertools.combinations(range(6), 3)))
    cases = [
        (generate_random(1000, 6, 1200, 5), 3, SolveConfig(seed=0), SUCCESS),
        (k6, 2, SolveConfig(seed=0, max_restarts=100), INFEASIBLE),
    ]
    for h, r, cfg, outcome in cases:
        scans.clear()
        report = solve_equitable(h, r, cfg)
        assert report.outcome == outcome and report.diagnostics["mono-edge"] >= 2
        # the batches whose first attempt is at most the last one run
        batches = len(_batch_starts(report.attempts - 1, h))
        assert len(scans) == batches
        assert report.chains and len(scans) == batches + 1
        # the one row replayed, with one chain per monochromatic edge; a
        # second read keeps the chains and scans nothing
        (_, colors), mask = scans[-1]
        assert colors.shape == (h.m,)
        assert [c.edges[-1] for c in report.chains] == np.flatnonzero(mask).tolist()
        assert report.chains and len(scans) == batches + 1


def test_attempt_64_takes_row_0_of_block_1(monkeypatch):
    from eqcolor.seeding import ROLE_WEIGHTS, derive

    weights = _recording(monkeypatch, "sample_weights")
    k6 = Hypergraph(6, 3, list(itertools.combinations(range(6), 3)))
    solve_equitable(k6, 2, SolveConfig(seed=5, max_restarts=65, enumeration_budget=0))
    # one draw per block segment: the last batch, attempts 21-64, spans
    # the end of block 0 and the start of block 1
    assert [len(out) for _, out in weights] == [1, 4, 16, 43, 1]
    drawn = np.concatenate([out for _, out in weights])
    assert drawn.shape == (65, 6)
    assert np.array_equal(drawn[:BLOCK], derive(5, 0, ROLE_WEIGHTS).random((BLOCK, 6)))
    assert np.array_equal(drawn[BLOCK], derive(5, 1, ROLE_WEIGHTS).random((BLOCK, 6))[0])


def test_k6_solve_derives_once_per_block(monkeypatch):
    derives = _recording(monkeypatch, "derive")
    k6 = Hypergraph(6, 3, list(itertools.combinations(range(6), 3)))
    report = solve_equitable(k6, 2, SolveConfig(seed=11, max_restarts=10_000))
    assert report.outcome == INFEASIBLE and report.attempts == 10_000
    # one call per block of attempts, made through the solver's global
    blocks = math.ceil(10_000 / BLOCK)
    assert blocks <= len(derives) <= blocks + 1


def test_k6_solve_builds_at_most_one_initial_coloring_per_batch(monkeypatch):
    # rejected attempts are screened as arrays and none becomes an
    # InitialColoring; reading the report's chains replays the last one,
    # one row in one more kernel call
    from eqcolor.intervals import InitialColoring

    sizes = _record_batch_sizes(monkeypatch)
    built = []
    init = InitialColoring.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(InitialColoring, "__init__", counting)
    k6 = Hypergraph(6, 3, list(itertools.combinations(range(6), 3)))
    report = solve_equitable(k6, 2, SolveConfig(seed=11, max_restarts=10_000))
    assert report.outcome == INFEASIBLE
    assert sum(sizes) == 10_000 and built == []
    batches = len(sizes)
    assert report.chains
    assert sizes[batches:] == [1] and len(built) == 1


def test_first_attempt_success_draws_m_weights(monkeypatch):
    from eqcolor import generate_random
    from eqcolor.seeding import ROLE_WEIGHTS, derive

    derives = _recording(monkeypatch, "derive")
    h = generate_random(250, 6, 125, 1)
    report = solve_equitable(h, 3, SolveConfig(seed=0))
    assert report.outcome == SUCCESS and report.attempts == 1
    assert [args for args, _ in derives] == [(0, 0, ROLE_WEIGHTS)]
    # the block's generator has moved past exactly one row of m weights
    fresh = derive(0, 0, ROLE_WEIGHTS)
    fresh.random(h.m)
    assert derives[0][1].bit_generator.state == fresh.bit_generator.state


def _record_batch_sizes(monkeypatch):
    from eqcolor import intervals

    sizes = []
    kernel = intervals._stage_colors

    def recording(h, slots, weights):
        sizes.append(len(slots))
        return kernel(h, slots, weights)

    monkeypatch.setattr(intervals, "_stage_colors", recording)
    return sizes


def test_attempt_batches_start_at_one_and_respect_the_cell_cap(monkeypatch):
    from eqcolor import generate_random, solver

    sizes = _record_batch_sizes(monkeypatch)
    k6 = Hypergraph(6, 3, list(itertools.combinations(range(6), 3)))
    cases = [
        (k6, 2, SolveConfig(seed=1, max_restarts=300)),
        (generate_random(1000, 6, 1200, 5), 3, SolveConfig(seed=0)),
        (generate_random(2000, 10, 1000, 0), 2, SolveConfig(seed=4, max_restarts=40)),
        (generate_random(40, 3, 30, 2), 3, SolveConfig(seed=25, allow_fallback_repair=False)),
    ]
    for h, r, cfg in cases:
        sizes.clear()
        report = solve_equitable(h, r, cfg)
        width = max(h.m, h.n * len(h.edge_array))
        assert sizes[0] == 1
        assert all(t == 1 or t * width <= solver._SUB_BATCH_CELLS for t in sizes), sizes
        assert sizes == _batch_sizes(report.attempts, cfg.max_restarts, h)
        assert report.attempts <= sum(sizes)
    # K6 (n |E| = 60 cells per attempt) grows fourfold up to 1024, then is
    # capped at 2184
    sizes.clear()
    solve_equitable(k6, 2, SolveConfig(seed=1, max_restarts=4000))
    assert sizes == [4**k for k in range(6)] + [solver._SUB_BATCH_CELLS // 60, 4000 - 1365 - 2184]
    assert sizes == [1, 4, 16, 64, 256, 1024, 2184, 451]


def test_first_attempt_success_makes_one_kernel_call(monkeypatch):
    from eqcolor import generate_random

    sizes = _record_batch_sizes(monkeypatch)
    report = solve_equitable(generate_random(250, 6, 125, 1), 3, SolveConfig(seed=0))
    assert report.outcome == SUCCESS and report.attempts == 1
    assert sizes == [1]


def test_slots_are_computed_once_per_kernel_batch(monkeypatch):
    # rebalancing reads the slots the kernel computed for the same weights
    # instead of recomputing them over all m vertices
    from eqcolor import chains, generate_random, intervals, rebalance, solver

    sizes = _record_batch_sizes(monkeypatch)
    slot_calls = []
    weight_slots = intervals._weight_slots

    def counting(partition, weights):
        slot_calls.append(np.shape(weights))
        return weight_slots(partition, weights)

    for module in (intervals, rebalance, chains):
        if hasattr(module, "_weight_slots"):
            monkeypatch.setattr(module, "_weight_slots", counting)
    plans = []
    plan = solver.build_rebalance_plan

    def planning(*args, **kwargs):
        plans.append(args[2])
        return plan(*args, **kwargs)

    monkeypatch.setattr(solver, "build_rebalance_plan", planning)
    # the solve-sparse shape: one attempt per kernel batch at this m
    h = generate_random(100_000, 8, 10_000, 1)
    attempts = []
    for seed in (0, 2):
        report = solve_equitable(h, 4, SolveConfig(seed=seed))
        assert report.outcome == SUCCESS
        attempts.append(report.attempts)
    assert attempts == [1, 2] and len(plans) == 2
    assert sizes == [1, 1, 1]
    assert slot_calls == [(1, 100_000)] * 3


def test_returned_colorings_hold_only_their_own_m_entries():
    # a balanced row was once a view of its whole (T, m) batch, which the
    # returned coloring then kept alive
    from eqcolor import generate_random

    cases = [
        # the balanced route, accepted on the second row of a two-row batch
        (generate_random(12, 3, 6, 2), SolveConfig(seed=2, force_path=BALANCED_ONLY), 2),
        # two-stage, closed by rebalancing on attempt 3
        (generate_random(1000, 6, 1200, 1), SolveConfig(seed=0), 3),
        # two-stage, closed by greedy repair on attempt 2
        (generate_random(250, 6, 125, 3), SolveConfig(seed=0), 2),
    ]
    for h, cfg, attempts in cases:
        report = solve_equitable(h, 3, cfg)
        assert report.outcome == SUCCESS and report.attempts == attempts
        colors = report.coloring.colors
        assert colors.base is None or colors.base.size == h.m
        assert colors.nbytes == h.m and not colors.flags.writeable


@pytest.mark.parametrize("r, dtype", [(64, np.int8), (65, np.int16)])
def test_every_producer_stores_colors_in_the_color_dtype(r, dtype):
    from eqcolor.hypergraph import _color_dtype
    from eqcolor.intervals import IntervalPartition, run_interval_coloring, sample_weights
    from eqcolor.rebalance import apply_recolor

    assert _color_dtype(r) == dtype
    m = 2 * r
    h = Hypergraph(m, 2, [])
    balanced = list(range(1, r + 1)) * 2
    # color 1 twice over target, colors r - 1 and r once under it
    skew = [1, 1] + list(range(1, r + 1)) + list(range(1, r - 1))
    one = np.array([0])
    produced = {
        "constructor": Coloring(m, r, balanced),
        "json": Coloring.from_json_dict({"r": r, "colors": balanced}),
        "kernel row": run_interval_coloring(
            h, r, IntervalPartition(0.5, r), sample_weights(m, 0, rows=2)
        ).row(1).coloring,
        "balanced draw": solve_equitable(h, r, SolveConfig(force_path=BALANCED_ONLY)).coloring,
        "greedy repair": greedy_repair(h, Coloring(m, r, skew), class_targets(m, r)),
        "recolor": apply_recolor(Coloring(m, r, balanced), (one,) + (one[:0],) * (r - 2)),
    }
    for name, c in produced.items():
        assert c.colors.dtype == dtype, name
        assert not c.colors.flags.writeable and c.colors.base is None, name
        assert c == Coloring(m, r, c.colors.tolist()), name
    assert produced["recolor"].sizes == [1] + [2] * (r - 2) + [3]


def test_a_solve_sparse_coloring_holds_one_byte_per_vertex():
    from eqcolor import generate_random

    h = generate_random(100_000, 8, 10_000, 1)
    report = solve_equitable(h, 4, SolveConfig(seed=0))
    assert report.outcome == SUCCESS and report.plan is not None and report.plan.feasible
    assert report.coloring.colors.nbytes == h.m
