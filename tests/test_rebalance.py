"""Excess accounting, candidate sampling, dangerous edges, and the recoloring pass."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from eqcolor import (
    Coloring,
    Hypergraph,
    IntervalPartition,
    RegimeViolation,
    SolveConfig,
    apply_recolor,
    build_rebalance_plan,
    choose_p,
    class_targets,
    compute_p_tilde,
    compute_q,
    excess_shortage,
    generate_random,
    greedy_repair,
    is_proper,
    mc_estimate,
    run_interval_coloring,
    sample_weights,
    solve_equitable,
)
from eqcolor.chains import DangerousEdge
from eqcolor.rebalance import _candidates, _dangerous_edges, _excess_pattern_holds


def _coloring_with_sizes(sizes):
    colors = []
    for c, s in enumerate(sizes, start=1):
        colors.extend([c] * s)
    return Coloring(sum(sizes), len(sizes), colors)


def test_excess_shortage_examples():
    assert excess_shortage(_coloring_with_sizes((3, 2, 1)), (2, 2, 2)) == (
        (1, 0, 0),
        (0, 0, 1),
    )
    assert excess_shortage(_coloring_with_sizes((2, 2, 2)), (2, 2, 2)) == (
        (0, 0, 0),
        (0, 0, 0),
    )
    assert excess_shortage(_coloring_with_sizes((4, 1, 1)), (2, 2, 2)) == (
        (2, 0, 0),
        (0, 1, 1),
    )


def test_excess_shortage_checks_target_length():
    with pytest.raises(ValueError):
        excess_shortage(_coloring_with_sizes((2, 2)), (2, 2, 2))


@pytest.mark.parametrize(
    "targets, message",
    [
        ((99.5, 100.5), "target 99.5 is not an integer"),
        ((True, 199), "target True is not an integer"),
        ((-5, 205), "target must be at least 0, got -5"),
        ((150, 150), r"need 2 targets summing to 200, got \(150, 150\)"),
        ((100, 50, 50), r"need 2 targets summing to 200, got \(100, 50, 50\)"),
    ],
)
def test_every_reader_of_class_targets_refuses_what_it_would_misread(targets, message):
    # excess_shortage once returned fractional or negative excesses for
    # such targets, and build_rebalance_plan built a feasible plan for
    # (150, 150) and (-5, 205) or died in np.partition on (99.5, 100.5);
    # all three readers now share greedy_repair's rule
    h = Hypergraph(200, 2, [])
    init = run_interval_coloring(h, 2, IntervalPartition(0.3, 2), sample_weights(200, 0))
    calls = (
        lambda: excess_shortage(init.coloring, targets),
        lambda: build_rebalance_plan(h, init, targets, seed=0, p_tilde=0.5),
        lambda: greedy_repair(h, init.coloring, targets),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_excess_shortage_balances_when_targets_do():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = int(rng.integers(2, 6))
        m = int(rng.integers(r, 30))
        colors = [int(rng.integers(1, r + 1)) for _ in range(m)]
        ex, sh = excess_shortage(Coloring(m, r, colors), class_targets(m, r))
        assert sum(ex) == sum(sh)
        assert all(e == 0 or s == 0 for e, s in zip(ex, sh))


def test_excess_pattern_is_the_solvers_old_tuple_rule():
    # the solver tested the shape as all(s == 0 for s in sh[:-1]) and
    # any(sh); any(sh) fails only at sizes equal to the targets, where the
    # predicate holds, and which is_equitable accepts before the test
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(200):
        r = int(rng.integers(2, 6))
        m = int(rng.integers(r, 30))
        targets = class_targets(m, r)
        colorings = [Coloring(m, r, rng.integers(1, r + 1, m).tolist()) for _ in range(5)]
        colorings.append(_coloring_with_sizes(targets))
        rows = []
        for coloring in colorings:
            sh = excess_shortage(coloring, targets)[1]
            old = all(s == 0 for s in sh[:-1]) and any(sh)
            holds = _excess_pattern_holds(coloring.sizes, targets)
            assert holds == (old or list(coloring.sizes) == targets)
            rows.append(coloring.sizes)
            seen.add(bool(holds))
        # (T, r) sizes give one value per row, as the Monte Carlo statistic reads it
        batch = _excess_pattern_holds(np.array(rows), targets)
        assert batch.tolist() == [_excess_pattern_holds(s, targets) for s in rows]
    assert seen == {False, True}


def test_compute_q_spot_value_and_decomposition():
    p = choose_p(100, 2)
    q = compute_q(10**4, 100, 2, p)
    assert q == pytest.approx(534.0430709897241, rel=1e-12)
    term1 = 10**4 * p / (2 * 1)
    term2 = 2 * math.sqrt(13 * 10**4 * math.log(2) / 2)
    term3 = (3 / 2) * 100 / math.log(100)
    assert term1 == pytest.approx(76.94976400450476, rel=1e-9)
    assert q == pytest.approx(term1 + term2 + term3, rel=1e-12)


def test_compute_q_sqrt_term_scales_with_m():
    p = choose_p(100, 2)
    base = compute_q(10**4, 100, 2, p)
    quad = compute_q(4 * 10**4, 100, 2, p)
    term1 = 10**4 * p / 2
    term3 = 1.5 * 100 / math.log(100)
    assert quad - 4 * term1 - term3 == pytest.approx(2 * (base - term1 - term3), rel=1e-9)


def test_compute_p_tilde_spot_value():
    p = choose_p(100, 2)
    assert compute_p_tilde(10**4, 100, 2, p) == pytest.approx(
        0.10847808683425605, rel=1e-12
    )


def test_compute_p_tilde_rejects_small_instances():
    with pytest.raises(RegimeViolation):
        compute_p_tilde(20, 100, 2, choose_p(100, 2))


@pytest.mark.parametrize("p", [1.0, 5.0, -1.0])
def test_compute_q_and_p_tilde_check_p(p):
    # the partition's rule: without it p = 1 divided by zero, and p = 5 and
    # p = -1 gave a q of 296.5 and -3.45
    calls = (
        lambda: compute_q(100, 3, 2, p),
        lambda: compute_p_tilde(100, 3, 2, p),
        lambda: IntervalPartition(p, 2),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\)"):
            call()


def _fixture_run(m=14, seed=5, r=3):
    h = Hypergraph(m, 2, [(0, 1), (2, 3), (4, 5)])
    part = IntervalPartition(0.3, r)
    return h, part, run_interval_coloring(h, r, part, sample_weights(m, seed))


def _occupants(init):
    """The occupants of large_1 .. large_{r-1}, by the scalar slot rule."""
    part = init.partition
    occupants = [set() for _ in range(part.r - 1)]
    for v in range(len(init.weights)):
        s = part.slot_of(init.weights[v])
        # large_i, i < r, is slot 2i-2
        if s % 2 == 0 and s // 2 + 1 < part.r:
            occupants[s // 2].add(v)
    return occupants


def _sets(arrays):
    return [set(a.tolist()) for a in arrays]


def test_sample_candidate_sets_extremes_and_determinism():
    h, part, init = _fixture_run()
    targets = class_targets(h.m, part.r)

    def vsets(p_tilde, seed):
        return build_rebalance_plan(h, init, targets, seed, p_tilde).vsets

    assert all(len(s) == 0 for s in vsets(0.0, 1))
    occupants = _occupants(init)
    assert _sets(vsets(1.0, 1)) == occupants
    again = vsets(0.5, 7)
    assert [s.tolist() for s in vsets(0.5, 7)] == [s.tolist() for s in again]
    for s, occ in zip(_sets(again), occupants):
        assert s <= occ
    for s in again:
        assert s.dtype == np.int64 and not s.flags.writeable
        assert s.tolist() == sorted(s.tolist())


def test_sample_candidate_sets_keep_rate():
    h, part, init = _fixture_run(m=40, seed=2)
    targets = class_targets(h.m, part.r)
    total_occ = sum(map(len, _occupants(init)))
    p_tilde = 0.35
    kept = 0
    trials = 3000
    for t in range(trials):
        plan = build_rebalance_plan(h, init, targets, t, p_tilde)
        kept += sum(len(s) for s in plan.vsets)
    mean = kept / trials
    sigma = math.sqrt(total_occ * p_tilde * (1 - p_tilde) / trials)
    assert abs(mean - total_occ * p_tilde) < 4 * sigma


def _plan_with_keep(p_tilde):
    h, part, init = _fixture_run()
    build_rebalance_plan(h, init, class_targets(h.m, part.r), 0, p_tilde)


def _mc_with_keep(p_tilde):
    h = _fixture_run()[0]
    mc_estimate("dangerous-count", h, 3, {"p_tilde": p_tilde}, trials=1, compare=False)


@pytest.mark.parametrize("entry", [_plan_with_keep, _mc_with_keep], ids=["plan", "mc"])
@pytest.mark.parametrize("p_tilde", [-0.1, 1.5, math.nan])
def test_keep_probability_rule_is_shared(entry, p_tilde):
    # the rebalance plan and the dangerous-count statistic take an explicit
    # keep probability through one rule, nan included
    with pytest.raises(ValueError, match=r"keep probability must lie in \[0, 1\]"):
        entry(p_tilde)


# r = 2 at p = 0.2: large_1 = [0, 0.4), small_1 = [0.4, 0.6), large_2 = [0.6, 1)
P2 = 0.2


def _hand_plan(edges, colors, weights, targets, r=2, p=P2, p_tilde=1.0, n=None):
    """A plan for a hand-built case.  At p_tilde = 1, V_i is exactly the set
    of large_i occupants, so the weights choose the candidate sets; the
    targets choose the excess."""
    m = len(colors)
    h = Hypergraph(m, n or len(edges[0]), edges)
    init = _with_coloring(h, IntervalPartition(p, r), weights, Coloring(m, r, colors))
    return build_rebalance_plan(h, init, targets, seed=0, p_tilde=p_tilde)


def _with_coloring(h, part, weights, coloring):
    """The record of a run on ``weights`` with its coloring replaced."""
    run = run_interval_coloring(h, part.r, part, weights)
    return dataclasses.replace(run, coloring=coloring)


def test_find_dangerous_edges_hand_case():
    # edge (2,3,4): vertices 3,4 wear the top color, vertex 2 is a candidate
    colors = [1, 1, 1, 2, 2]
    weights = (0.5, 0.5, 0.1, 0.7, 0.8)
    plan = _hand_plan([(2, 3, 4)], colors, weights, (3, 2))
    assert _sets(plan.vsets) == [{2}]
    assert plan.dangerous == (DangerousEdge(0, (2,)),)
    assert _hand_plan([(2, 3, 4)], colors, weights, (3, 2), p_tilde=0.0).dangerous == ()
    # vertex 1 not in any candidate set and not colored r: edge is safe
    assert _hand_plan([(1, 2, 4)], colors, weights, (3, 2)).dangerous == ()


def test_find_dangerous_edges_takes_maximal_candidate_set():
    plan = _hand_plan([(0, 1, 3)], [1, 1, 1, 2], (0.1, 0.2, 0.5, 0.9), (2, 2))
    assert _sets(plan.vsets) == [{0, 1}]
    assert plan.dangerous == (DangerousEdge(0, (0, 1)),)


def _dangerous_reference(h, coloring, vsets):
    """The per-edge loop that the dangerous-edge predicate replaced, kept as
    its reference."""
    union = set().union(*vsets) if vsets else set()
    r = coloring.r
    out = []
    for e, edge in enumerate(h.edge_array.tolist()):
        u = tuple(v for v in edge if v in union)
        if not u:
            continue
        if all(coloring.colors[v] == r for v in edge if v not in union):
            out.append(DangerousEdge(e, u))
    return out


def test_find_dangerous_edges_matches_per_edge_reference():
    rng = np.random.default_rng(23)
    nonempty = 0
    for _ in range(300):
        m = int(rng.integers(3, 20))
        n = int(rng.integers(2, min(m, 4) + 1))
        r = int(rng.integers(2, 4))
        edges = {tuple(sorted(rng.choice(m, n, replace=False).tolist())) for _ in range(2 * m)}
        h = Hypergraph(m, n, sorted(edges))
        # skewed toward the top color so that dangerous edges are common
        colors = np.where(rng.random(m) < 0.5, r, rng.integers(1, r + 1, m))
        coloring = Coloring(m, r, colors.tolist())
        part = IntervalPartition(float(rng.uniform(0.1, 0.5)), r)
        init = _with_coloring(h, part, rng.random(m), coloring)
        plan = build_rebalance_plan(
            h, init, class_targets(m, r), seed=int(rng.integers(2**32)), p_tilde=0.4
        )
        got = plan.dangerous
        assert list(got) == _dangerous_reference(h, coloring, _sets(plan.vsets))
        assert all(type(v) is int for d in got for v in (d.edge, *d.u_vertices))
        nonempty += bool(got)
    assert nonempty > 100


def test_find_dangerous_edges_without_edges_or_candidates():
    colors, weights = [1, 2, 2], (0.1, 0.7, 0.8)
    assert _hand_plan([], colors, weights, (2, 1), n=2).dangerous == ()
    assert _hand_plan([(1, 2)], colors, weights, (2, 1), p_tilde=0.0).dangerous == ()


def test_select_recolor_sets_basic():
    # V_1 = {0, 1, 2}; the dangerous edge (0, 3) pins vertex 0
    plan = _hand_plan([(0, 3)], [1, 1, 1, 2], (0.05, 0.15, 0.25, 0.95), (2, 2))
    assert _sets(plan.vsets) == [{0, 1, 2}]
    assert plan.dangerous == (DangerousEdge(0, (0,)),)
    assert plan.excess == (1, 0)
    assert _sets(plan.wsets) == [{1}]  # lowest-weight unpinned candidate


def test_select_recolor_sets_zero_excess():
    plan = _hand_plan([], [1, 2], (0.05, 0.15), (1, 1), n=2)
    assert _sets(plan.vsets) == [{0, 1}] and plan.excess == (0, 0)
    assert [w.tolist() for w in plan.wsets] == [[]]


def test_select_recolor_sets_forced_infeasible():
    # V_1 = {0}, pinned by the dangerous edge (0, 3), and one vertex must move
    plan = _hand_plan([(0, 3)], [1, 1, 1, 2], (0.05, 0.45, 0.5, 0.95), (2, 2))
    assert _sets(plan.vsets) == [{0}] and plan.excess == (1, 0)
    assert plan.dangerous == (DangerousEdge(0, (0,)),)
    assert plan.wsets is None and not plan.feasible
    assert plan.to_json_dict()["W"] is None


def test_select_recolor_sets_never_swallows_a_candidate_set():
    # a recoloring chosen by the rule can never cover any dangerous edge's
    # full candidate set
    rng = np.random.default_rng(17)
    checked = covered = 0
    for _ in range(300):
        m = int(rng.integers(4, 16))
        n = int(rng.integers(2, 4))
        r = int(rng.integers(2, 4))
        edges = {tuple(sorted(rng.choice(m, n, replace=False).tolist())) for _ in range(m)}
        h = Hypergraph(m, n, sorted(edges))
        colors = np.where(rng.random(m) < 0.4, r, rng.integers(1, r + 1, m))
        coloring = Coloring(m, r, colors.tolist())
        # targets below the class sizes give every class below r an excess;
        # class r takes the rest of m
        targets = [max(0, s - int(rng.integers(0, 4))) for s in coloring.sizes[:-1]]
        targets.append(m - sum(targets))
        init = _with_coloring(
            h, IntervalPartition(float(rng.uniform(0.1, 0.5)), r), rng.random(m), coloring
        )
        plan = build_rebalance_plan(
            h, init, targets, seed=int(rng.integers(2**32)), p_tilde=float(rng.uniform(0.5, 1.0))
        )
        if not plan.feasible:
            continue
        moved = set()
        for vs, ws, need in zip(plan.vsets, plan.wsets, plan.excess):
            assert len(ws) == need and set(ws.tolist()) <= set(vs.tolist())
            moved |= set(ws.tolist())
        for d in plan.dangerous:
            assert not set(d.u_vertices) <= moved
        checked += 1
        covered += any(moved & set(d.u_vertices) for d in plan.dangerous)
    assert checked > 100 and covered > 20


def test_select_recolor_sets_breaks_weight_ties_by_id():
    # r = 3 at p = 0.3: large_1 = [0, 0.233), large_2 = [0.383, 0.617)
    weights = (0.1, 0.05, 0.1, 0.05, 0.1, 0.5)
    colors = [1, 1, 1, 1, 1, 2]  # sizes (5, 1, 0)

    def wsets(targets):
        plan = _hand_plan([], colors, weights, targets, r=3, p=0.3, n=2)
        assert _sets(plan.vsets) == [{0, 1, 2, 3, 4}, {5}]
        return _sets(plan.wsets)

    assert wsets((2, 1, 3)) == [{1, 3, 0}, set()]
    assert wsets((1, 0, 5)) == [{1, 3, 0, 2}, {5}]
    # pinning vertex 1 lets the next vertex in (weight, id) order in: the
    # edge (1, 2, 5) has candidates 1 and 2 and vertex 5 wears color r
    plan = _hand_plan([(1, 2, 5)], colors, (*weights[:5], 0.7), (3, 3))
    assert plan.dangerous == (DangerousEdge(0, (1, 2)),)
    assert _sets(plan.wsets) == [{3, 0}]
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        # heavy ties; 0.5 lies in small_1, the rest in large_1
        weights = np.array([0.0, 0.125, 0.25, 0.5])[rng.integers(0, 4, m)]
        vs = np.flatnonzero(weights < 0.4).tolist()
        need = int(rng.integers(0, len(vs) + 1))
        expected = set(sorted(vs, key=lambda v: (weights[v], v))[:need])
        plan = _hand_plan([], [1] * m, weights, (m - need, need), n=2)
        assert _sets(plan.vsets) == [set(vs)]
        assert _sets(plan.wsets) == [expected]
        assert plan.wsets[0].tolist() == sorted(expected)


def _recolor_reference(plan, weights):
    """W_i by the plain rule: the members of V_i that no dangerous edge pins
    (each pins its lowest candidate), sorted by (weight, id), the first
    excess_i of them, sorted by id; None when some V_i falls short."""
    pinned = {min(d.u_vertices) for d in plan.dangerous}
    wsets = []
    for vs, need in zip(plan.vsets, plan.excess):
        pool = [v for v in vs.tolist() if v not in pinned]
        if len(pool) < need:
            return None
        wsets.append(sorted(sorted(pool, key=lambda v: (weights[v], v))[:need]))
    return wsets


def test_recolor_sets_match_a_sorted_reference():
    rng = np.random.default_rng(31)
    seen = dict.fromkeys(("tie", "pinned", "zero", "whole pool", "infeasible"), 0)
    for it in range(300):
        m = int(rng.integers(4, 40))
        n = int(rng.integers(2, 4))
        r = int(rng.integers(2, 5))
        edges = {tuple(sorted(rng.choice(m, n, replace=False).tolist())) for _ in range(2 * m)}
        h = Hypergraph(m, n, sorted(edges))
        weights = rng.random(m)
        if it % 3:
            # heavy ties
            weights = np.floor(weights * 6) / 6
        part = IntervalPartition(float(rng.uniform(0.1, 0.5)), r)
        init = run_interval_coloring(h, r, part, weights)
        # stage 1 puts large_i in class i, so V_i fits in class i's size
        coloring = init.coloring
        seed, p_tilde = int(rng.integers(2**32)), float(rng.uniform(0.5, 1.0))
        # the keep draw and the pins do not depend on the targets: a probe
        # plan sizes each pool, and the targets then set each excess to 0,
        # the whole pool, one more than the pool, or a value in between
        # (twice as often, for ties at the cut)
        probe = build_rebalance_plan(h, init, coloring.sizes, seed, p_tilde)
        pinned = {min(d.u_vertices) for d in probe.dangerous}
        targets = list(coloring.sizes)
        for i, vs in enumerate(probe.vsets):
            pool = len(set(vs.tolist()) - pinned)
            need = (0, pool, pool + 1, *rng.integers(0, pool + 1, 2).tolist())[it % 5]
            targets[i] -= min(need, coloring.sizes[i])
        targets[-1] = m - sum(targets[:-1])
        plan = build_rebalance_plan(h, init, targets, seed, p_tilde)
        assert [v.tolist() for v in plan.vsets] == [v.tolist() for v in probe.vsets]
        expected = _recolor_reference(plan, weights)
        assert (None if plan.wsets is None else [w.tolist() for w in plan.wsets]) == expected
        seen["infeasible"] += expected is None
        for vs, need in zip(plan.vsets, plan.excess):
            pool = sorted(weights[v] for v in vs.tolist() if v not in pinned)
            seen["pinned"] += len(pool) < len(vs)
            seen["zero"] += need == 0 < len(pool)
            seen["whole pool"] += need == len(pool) > 0
            seen["tie"] += bool(0 < need < len(pool) and pool[need - 1] == pool[need])
    assert min(seen.values()) > 20, seen


def test_apply_recolor_names_first_offending_vertex():
    c = Coloring(6, 3, [1, 1, 2, 2, 3, 3])
    ws = np.array([0, 4, 5])
    first_bad = next(v for v in ws.tolist() if c.colors[v] != 1)
    message = f"recolor set 1 contains vertex {first_bad} not colored 1"
    with pytest.raises(ValueError, match=message):
        apply_recolor(c, (ws, np.array([], np.int64)))
    # a vertex in two sets has already moved to r when the second is checked
    with pytest.raises(ValueError, match="recolor set 2 contains vertex 0 not colored 2"):
        apply_recolor(Coloring(4, 3, [1, 2, 1, 3]), (np.array([0]), np.array([0])))
    moved = apply_recolor(c, (np.array([0, 1]), [3]))
    assert moved.colors.tolist() == [3, 3, 2, 3, 3, 3] and moved.sizes == [0, 1, 5]
    assert moved == Coloring(6, 3, moved.colors.tolist())


@pytest.mark.parametrize(
    "wsets, message",
    [
        ([np.array([0, 0]), np.array([], np.int64)], "recolor set 1 contains vertex 0 twice"),
        ([[2, 0, 3, 0], []], "recolor set 1 contains vertex 0 twice"),
        ([[-5], []], "recolor set 1 contains vertex -5 outside 0..5"),
        ([[0, 6], []], "recolor set 1 contains vertex 6 outside 0..5"),
        ([[0], [4, 2**40]], "recolor set 2 contains vertex 1099511627776 outside 0..5"),
    ],
)
def test_apply_recolor_refuses_ids_it_would_misapply(wsets, message):
    # a repeated id was moved once but counted twice (sizes [2, 2, 2]
    # against the true [3, 2, 1], which is_equitable then accepted), -5
    # wrapped round to vertex 1, and an id past m raised a bare IndexError
    with pytest.raises(ValueError, match=message):
        apply_recolor(Coloring(6, 3, [1, 1, 1, 1, 2, 2]), wsets)


def test_apply_recolor_examples():
    c = _coloring_with_sizes((3, 1))
    unchanged = apply_recolor(c, (np.array([], np.int64),))
    assert unchanged == c and unchanged is not c
    # an empty W_i of any dtype names no vertex: np.asarray([]) is float64
    assert apply_recolor(c, (np.asarray([]),)) == c == apply_recolor(c, ([],))
    moved = apply_recolor(c, (np.array([0]),))
    assert moved.sizes == [2, 2] and moved.colors[0] == 2
    assert c.sizes == [3, 1]  # original untouched
    with pytest.raises(ValueError):
        apply_recolor(c, (np.array([3]),))  # vertex 3 wears color 2, not 1
    with pytest.raises(ValueError):
        apply_recolor(c, ())  # needs r-1 sets


def test_build_rebalance_plan_records_everything():
    h, part, init = _fixture_run(m=14, seed=11)
    targets = class_targets(h.m, part.r)
    plan = build_rebalance_plan(h, init, targets, seed=3, p_tilde=0.6)
    assert plan.excess == tuple(
        max(0, s - t) for s, t in zip(init.coloring.sizes, targets)
    )
    assert plan.p_tilde == 0.6
    obj = plan.to_json_dict()
    assert set(obj) == {"ex", "sh", "q", "p_tilde", "V", "dangerous", "W"}
    assert (obj["W"] is not None) == plan.feasible


def test_build_rebalance_plan_regime_violation_without_override():
    h, part, init = _fixture_run(m=14, seed=11)
    with pytest.raises(RegimeViolation):
        build_rebalance_plan(h, init, class_targets(h.m, part.r), seed=3)


# Plans and a report frozen from the frozenset implementation that the
# array plan replaced: on 12 vertices, r = 3, p = 0.3, p_tilde = 0.7, weights
# sample_weights(12, weight_seed) and candidate draws from seed ``vseed``.
_FROZEN_PLANS = [
    (
        3,
        1,
        [(0, 1, 10), (0, 2, 11), (0, 3, 5), (0, 5, 10), (0, 8, 10), (2, 7, 8), (4, 6, 8),
         (4, 6, 10), (5, 6, 10), (7, 9, 11)],
        {"ex": [1, 2, 0], "sh": [0, 0, 3], "q": 19.357548984186987, "p_tilde": 0.7,
         "V": [[0, 7], [3, 5, 6, 10, 11]],
         "dangerous": [{"edge": 1, "U": [0, 11]}, {"edge": 2, "U": [0, 3, 5]},
                       {"edge": 3, "U": [0, 5, 10]}, {"edge": 8, "U": [5, 6, 10]}],
         "W": [[7], [6, 10]]},
    ),
    (
        1,
        3,
        [(0, 1, 9), (0, 4, 9), (0, 10, 11), (1, 3, 8), (1, 10, 11), (2, 4, 5), (3, 8, 11),
         (4, 7, 11), (6, 7, 11), (6, 8, 11)],
        {"ex": [0, 1, 0], "sh": [1, 0, 0], "q": 19.357548984186987, "p_tilde": 0.7,
         "V": [[2, 9], [0, 7, 11]],
         "dangerous": [{"edge": 0, "U": [0, 9]}, {"edge": 2, "U": [0, 11]},
                       {"edge": 4, "U": [11]}, {"edge": 8, "U": [7, 11]}],
         "W": None},
    ),
]


@pytest.mark.parametrize("weight_seed, vseed, edges, frozen", _FROZEN_PLANS)
def test_plan_json_is_frozen(weight_seed, vseed, edges, frozen):
    # the first plan pins vertices 0 and 5, so W_2 skips vertex 5; the second
    # pins all of V_2 = {0, 7, 11} and cannot move its one excess vertex
    h = Hypergraph(12, 3, edges)
    part = IntervalPartition(0.3, 3)
    init = run_interval_coloring(h, 3, part, sample_weights(12, weight_seed))
    plan = build_rebalance_plan(h, init, class_targets(12, 3), seed=vseed, p_tilde=0.7)
    assert json.dumps(plan.to_json_dict()) == json.dumps(frozen)


def test_explain_report_of_a_rebalanced_solve_is_frozen():
    # accepted on attempt 3 by the rebalancing pass, after two attempts
    # rejected on a monochromatic edge
    h = generate_random(1000, 6, 1200, 1)
    report = solve_equitable(h, 3, SolveConfig(seed=0))
    assert report.attempts == 3 and report.diagnostics["mono-edge"] == 2
    assert report.plan.feasible and len(report.plan.dangerous) == 64
    text = json.dumps(report.to_json_dict(explain=True))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "f5f46bf3266b52bc285dc456d3aba2a5a032469891ef45130ec83e1854f2bfd5"


def test_plan_builds_its_dangerous_records_only_when_read(monkeypatch):
    # the plan keeps its dangerous edges as arrays: a solve builds no
    # DangerousEdge, and the first read of ``dangerous`` builds one per edge
    from eqcolor import rebalance

    built = []
    record = rebalance.DangerousEdge

    def counting(*args):
        built.append(args[0])
        return record(*args)

    monkeypatch.setattr(rebalance, "DangerousEdge", counting)
    h = generate_random(1000, 6, 1200, 1)
    plan = solve_equitable(h, 3, SolveConfig(seed=0)).plan
    assert plan.feasible and built == []
    dangerous = plan.dangerous
    assert built == [d.edge for d in dangerous] == sorted(built) and len(built) == 64
    assert plan.dangerous is dangerous and len(built) == 64


def test_rebalance_safety_property():
    # whenever the pass succeeds on a proper coloring whose only shortage is
    # the top color, the result is proper and exactly at the targets
    rng = np.random.default_rng(29)
    applied = 0
    attempts = 0
    while applied < 40 and attempts < 3000:
        attempts += 1
        m = int(rng.integers(6, 24))
        r = int(rng.integers(2, 4))
        if m % r:
            m -= m % r
            if m < r * 2:
                continue
        ne = int(rng.integers(1, min(math.comb(m, 2), 8) + 1))
        edges = set()
        while len(edges) < ne:
            edges.add(tuple(sorted(rng.choice(m, 2, replace=False).tolist())))
        h = Hypergraph(m, 2, sorted(edges))
        part = IntervalPartition(float(rng.uniform(0.1, 0.5)), r)
        init = run_interval_coloring(h, r, part, sample_weights(m, int(rng.integers(0, 2**32))))
        coloring = init.coloring
        if not is_proper(h, coloring):
            continue
        targets = class_targets(m, r)
        ex, sh = excess_shortage(coloring, targets)
        if any(sh[:-1]) or sum(ex) == 0:
            continue
        plan = build_rebalance_plan(
            h, init, targets, seed=int(rng.integers(0, 2**32)), p_tilde=float(rng.uniform(0.3, 1.0))
        )
        if not plan.feasible:
            continue
        after = apply_recolor(coloring, plan.wsets)
        assert is_proper(h, after)
        assert list(after.sizes) == targets
        applied += 1
    assert applied == 40


def test_dangerous_predicates_over_a_batch_match_each_trial():
    rng = np.random.default_rng(43)
    m, r, trials = 12, 3, 80
    h = Hypergraph(m, 2, [(v, (v + 1) % m) for v in range(m)] + [(0, 6), (3, 9)])
    slots = rng.integers(0, 2 * r - 1, (trials, m)).astype(np.int8)
    keep = rng.random((trials, m))
    colors = rng.integers(1, r + 1, (trials, m))
    candidate = _candidates(slots, keep, 0.6, r)
    assert candidate.tolist() == [_candidates(s, k, 0.6, r).tolist() for s, k in zip(slots, keep)]
    dangerous = _dangerous_edges(h, candidate, colors, r)
    hits = 0
    for t in range(trials):
        assert dangerous[t].tolist() == _dangerous_edges(h, candidate[t], colors[t], r).tolist()
        # large_i is slot 2i - 2
        vsets = [
            set(np.flatnonzero(candidate[t] & (slots[t] == 2 * i)).tolist())
            for i in range(r - 1)
        ]
        found = _dangerous_reference(h, Coloring(m, r, colors[t]), vsets)
        assert [d.edge for d in found] == np.flatnonzero(dangerous[t]).tolist()
        hits += len(found)
    assert hits > trials


def test_colorings_are_read_only():
    h = Hypergraph(6, 2, [(0, 1), (2, 3)])
    part = IntervalPartition(0.3, 3)
    made = Coloring(6, 3, [1, 1, 2, 2, 3, 3])
    single = run_interval_coloring(h, 3, part, sample_weights(6, 1)).coloring
    batch = run_interval_coloring(h, 3, part, np.random.default_rng(1).random((3, 6)))
    moved = apply_recolor(made, (np.array([0]), np.array([2])))
    repaired = greedy_repair(Hypergraph(6, 2, []), Coloring(6, 3, [1] * 4 + [2, 3]), (2, 2, 2))
    # a coloring the solver's balanced route drew and returned
    report = solve_equitable(h, 3, SolveConfig(seed=5, force_path="balanced-only"))
    assert report.path == "balanced"
    balanced = report.coloring
    rows = [batch.row(t).coloring for t in range(len(batch))]
    for c in [made, single, *rows, moved, repaired, balanced]:
        assert not c.colors.flags.writeable
        with pytest.raises(ValueError):
            c.colors[0] = 2
    # each call of row(t) builds its own read-only colors
    assert not batch.row(0).coloring.colors.flags.writeable
    assert made.colors.tolist() == [1, 1, 2, 2, 3, 3]
    assert moved.colors.tolist() == [3, 1, 3, 2, 3, 3] and moved.sizes == [1, 1, 4]
