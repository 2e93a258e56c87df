"""Excess accounting, candidate sampling, dangerous edges, and the recoloring pass."""

import math

import numpy as np
import pytest

from eqcolor import (
    Coloring,
    Hypergraph,
    IntervalPartition,
    RegimeViolation,
    SolveConfig,
    WeightAssignment,
    apply_recolor,
    build_rebalance_plan,
    choose_p,
    class_targets,
    compute_p_tilde,
    compute_q,
    excess_shortage,
    find_dangerous_edges,
    greedy_repair,
    is_proper,
    run_interval_coloring,
    sample_candidate_sets,
    sample_weights,
    select_recolor_sets,
    solve_equitable,
)
from eqcolor.chains import DangerousEdge
from eqcolor.rebalance import _candidates, _dangerous_edges


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


def test_excess_shortage_balances_when_targets_do():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = int(rng.integers(2, 6))
        m = int(rng.integers(r, 30))
        colors = [int(rng.integers(1, r + 1)) for _ in range(m)]
        ex, sh = excess_shortage(Coloring(m, r, colors), class_targets(m, r))
        assert sum(ex) == sum(sh)
        assert all(e == 0 or s == 0 for e, s in zip(ex, sh))


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
    assert compute_p_tilde(10**4, 100, 2, p, q=0.0) == 0.0


def test_compute_p_tilde_rejects_small_instances():
    with pytest.raises(RegimeViolation):
        compute_p_tilde(20, 100, 2, choose_p(100, 2))


def _fixture_run(m=14, seed=5, r=3):
    h = Hypergraph(m, 2, [(0, 1), (2, 3), (4, 5)])
    part = IntervalPartition(0.3, r)
    wa = sample_weights(m, seed)
    init = run_interval_coloring(h, r, part, wa)
    return h, part, wa, init


def test_sample_candidate_sets_extremes_and_determinism():
    h, part, wa, _ = _fixture_run()
    empty = sample_candidate_sets(h, part, wa, 0.0, seed=1)
    assert all(len(s) == 0 for s in empty)
    full = sample_candidate_sets(h, part, wa, 1.0, seed=1)
    occupants = [set() for _ in range(part.r - 1)]
    for v in range(h.m):
        s = part.slot_of(wa.weights[v])
        # large_i, i < r, is slot 2i-2
        if s % 2 == 0 and s // 2 + 1 < part.r:
            occupants[s // 2].add(v)
    assert [set(s) for s in full] == occupants
    again = sample_candidate_sets(h, part, wa, 0.5, seed=7)
    assert sample_candidate_sets(h, part, wa, 0.5, seed=7) == again
    for s, occ in zip(again, occupants):
        assert s <= occ


def test_sample_candidate_sets_keep_rate():
    h, part, wa, _ = _fixture_run(m=40, seed=2)
    occupants = sample_candidate_sets(h, part, wa, 1.0, seed=0)
    total_occ = sum(len(s) for s in occupants)
    p_tilde = 0.35
    kept = 0
    trials = 3000
    for t in range(trials):
        vs = sample_candidate_sets(h, part, wa, p_tilde, seed=t)
        kept += sum(len(s) for s in vs)
    mean = kept / trials
    sigma = math.sqrt(total_occ * p_tilde * (1 - p_tilde) / trials)
    assert abs(mean - total_occ * p_tilde) < 4 * sigma


def test_sample_candidate_sets_rejects_bad_probability():
    h, part, wa, _ = _fixture_run()
    with pytest.raises(ValueError):
        sample_candidate_sets(h, part, wa, 1.5, seed=0)


def test_find_dangerous_edges_hand_case():
    # edge (2,3,4): vertices 3,4 wear the top color, vertex 2 is a candidate
    h = Hypergraph(5, 3, [(2, 3, 4)])
    coloring = Coloring(5, 2, [1, 1, 1, 2, 2])
    dangerous = find_dangerous_edges(h, coloring, (frozenset({2}),))
    assert dangerous == [DangerousEdge(0, (2,))]
    assert find_dangerous_edges(h, coloring, (frozenset(),)) == []
    # vertex 1 not in any candidate set and not colored r: edge is safe
    h2 = Hypergraph(5, 3, [(1, 2, 4)])
    assert find_dangerous_edges(h2, coloring, (frozenset({2}),)) == []


def test_find_dangerous_edges_takes_maximal_candidate_set():
    h = Hypergraph(4, 3, [(0, 1, 3)])
    coloring = Coloring(4, 2, [1, 1, 1, 2])
    dangerous = find_dangerous_edges(h, coloring, (frozenset({0, 1}),))
    assert dangerous == [DangerousEdge(0, (0, 1))]


def _dangerous_reference(h, coloring, vsets):
    """The per-edge loop that find_dangerous_edges replaced, kept as its
    reference."""
    union = set().union(*vsets) if vsets else set()
    r = coloring.r
    out = []
    for e, edge in enumerate(h.edges):
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
        vsets = tuple(
            frozenset(np.flatnonzero(rng.random(m) < 0.2).tolist()) for _ in range(r - 1)
        )
        got = find_dangerous_edges(h, coloring, vsets)
        assert got == _dangerous_reference(h, coloring, vsets)
        assert all(type(v) is int for d in got for v in (d.edge, *d.u_vertices))
        nonempty += bool(got)
    assert nonempty > 100


def test_find_dangerous_edges_without_edges_or_candidates():
    coloring = Coloring(3, 2, [1, 2, 2])
    assert find_dangerous_edges(Hypergraph(3, 2, []), coloring, (frozenset({0}),)) == []
    assert find_dangerous_edges(Hypergraph(3, 2, [(1, 2)]), coloring, ()) == []


def test_select_recolor_sets_basic():
    wa = WeightAssignment((0.05, 0.15, 0.25, 0.35))
    vsets = (frozenset({0, 1, 2}),)
    dangerous = [DangerousEdge(0, (0,))]  # pins vertex 0
    wsets = select_recolor_sets(vsets, dangerous, (1,), wa)
    assert wsets == (frozenset({1}),)  # lowest-weight unpinned candidate


def test_select_recolor_sets_zero_excess():
    wa = WeightAssignment((0.05, 0.15))
    assert select_recolor_sets((frozenset({0, 1}),), [], (0,), wa) == (frozenset(),)


def test_select_recolor_sets_forced_infeasible():
    wa = WeightAssignment((0.05, 0.15))
    vsets = (frozenset({0}),)
    dangerous = [DangerousEdge(0, (0,))]
    assert select_recolor_sets(vsets, dangerous, (1,), wa) is None


def test_select_recolor_sets_never_swallows_a_candidate_set():
    # a recoloring chosen by the rule can never cover any dangerous edge's
    # full candidate set
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(3, 12))
        wa = WeightAssignment(rng.random(m))
        vs = frozenset(int(v) for v in rng.choice(m, rng.integers(1, m), replace=False))
        n_d = int(rng.integers(0, 4))
        dangerous = []
        for _ in range(n_d):
            size = int(rng.integers(1, max(2, len(vs))))
            u = tuple(sorted(rng.choice(sorted(vs), min(size, len(vs)), replace=False)))
            dangerous.append(DangerousEdge(0, u))
        ex = int(rng.integers(0, len(vs) + 1))
        wsets = select_recolor_sets((vs,), dangerous, (ex,), wa)
        if wsets is None:
            continue
        assert len(wsets[0]) == ex and wsets[0] <= vs
        for d in dangerous:
            assert not set(d.u_vertices) <= wsets[0]


def test_select_recolor_sets_breaks_weight_ties_by_id():
    wa = WeightAssignment((0.5, 0.2, 0.5, 0.2, 0.5, 0.1))
    vsets = (frozenset({0, 1, 2, 3, 4}), frozenset({5, 4}))
    assert select_recolor_sets(vsets, [], (3, 0), wa) == (frozenset({1, 3, 0}), frozenset())
    assert select_recolor_sets(vsets, [], (4, 1), wa) == (
        frozenset({1, 3, 0, 2}),
        frozenset({5}),
    )
    # pinning vertex 1 lets the next vertex in (weight, id) order in
    pinned = [DangerousEdge(0, (1, 2))]
    assert select_recolor_sets(vsets[:1], pinned, (2,), wa) == (frozenset({3, 0}),)
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        wa = WeightAssignment(rng.integers(0, 3, m) / 4)  # heavy ties
        vs = frozenset(np.flatnonzero(rng.random(m) < 0.6).tolist())
        need = int(rng.integers(0, len(vs) + 1))
        expected = frozenset(sorted(vs, key=lambda v: (wa.weights[v], v))[:need])
        assert select_recolor_sets((vs,), [], (need,), wa) == (expected,)


def test_apply_recolor_names_first_offending_vertex():
    c = Coloring(6, 3, [1, 1, 2, 2, 3, 3])
    ws = frozenset({0, 4, 5})
    first_bad = next(v for v in ws if c.colors[v] != 1)
    message = f"recolor set 1 contains vertex {first_bad} not colored 1"
    with pytest.raises(ValueError, match=message):
        apply_recolor(c, (ws, frozenset()))
    # a vertex in two sets has already moved to r when the second is checked
    with pytest.raises(ValueError, match="recolor set 2 contains vertex 0 not colored 2"):
        apply_recolor(Coloring(4, 3, [1, 2, 1, 3]), (frozenset({0}), frozenset({0})))
    moved = apply_recolor(c, (frozenset({0, 1}), frozenset({3})))
    assert moved.colors.tolist() == [3, 3, 2, 3, 3, 3] and moved.sizes == [0, 1, 5]
    assert moved == Coloring(6, 3, moved.colors.tolist())


def test_apply_recolor_examples():
    c = _coloring_with_sizes((3, 1))
    unchanged = apply_recolor(c, (frozenset(),))
    assert unchanged == c and unchanged is not c
    moved = apply_recolor(c, (frozenset({0}),))
    assert moved.sizes == [2, 2] and moved.colors[0] == 2
    assert c.sizes == [3, 1]  # original untouched
    with pytest.raises(ValueError):
        apply_recolor(c, (frozenset({3}),))  # vertex 3 wears color 2, not 1
    with pytest.raises(ValueError):
        apply_recolor(c, ())  # needs r-1 sets


def test_build_rebalance_plan_records_everything():
    h, part, wa, init = _fixture_run(m=14, seed=11)
    targets = class_targets(h.m, part.r)
    plan = build_rebalance_plan(
        h, part, wa, init.coloring, targets, seed=3, p_tilde=0.6
    )
    assert plan.excess == tuple(
        max(0, s - t) for s, t in zip(init.coloring.sizes, targets)
    )
    assert plan.p_tilde == 0.6
    obj = plan.to_json_dict()
    assert set(obj) == {"ex", "sh", "q", "p_tilde", "V", "dangerous", "W"}
    assert (obj["W"] is not None) == plan.feasible


def test_build_rebalance_plan_regime_violation_without_override():
    h, part, wa, init = _fixture_run(m=14, seed=11)
    with pytest.raises(RegimeViolation):
        build_rebalance_plan(
            h, part, wa, init.coloring, class_targets(h.m, part.r), seed=3
        )


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
        wa = sample_weights(m, int(rng.integers(0, 2**32)))
        init = run_interval_coloring(h, r, part, wa)
        coloring = init.coloring
        if not is_proper(h, coloring):
            continue
        targets = class_targets(m, r)
        ex, sh = excess_shortage(coloring, targets)
        if any(sh[:-1]) or sum(ex) == 0:
            continue
        plan = build_rebalance_plan(
            h, part, wa, coloring, targets, seed=int(rng.integers(0, 2**32)),
            p_tilde=float(rng.uniform(0.3, 1.0)),
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
            frozenset(np.flatnonzero(candidate[t] & (slots[t] == 2 * i)).tolist())
            for i in range(r - 1)
        ]
        found = find_dangerous_edges(h, Coloring(m, r, colors[t]), vsets)
        assert [d.edge for d in found] == np.flatnonzero(dangerous[t]).tolist()
        hits += len(found)
    assert hits > trials


def test_colorings_are_read_only():
    h = Hypergraph(6, 2, [(0, 1), (2, 3)])
    part = IntervalPartition(0.3, 3)
    made = Coloring(6, 3, [1, 1, 2, 2, 3, 3])
    single = run_interval_coloring(h, 3, part, sample_weights(6, 1)).coloring
    batch = run_interval_coloring(h, 3, part, np.random.default_rng(1).random((3, 6)))
    moved = apply_recolor(made, (frozenset({0}), frozenset({2})))
    repaired = greedy_repair(Hypergraph(6, 2, []), Coloring(6, 3, [1] * 4 + [2, 3]), (2, 2, 2))
    # a coloring the solver's balanced route drew and returned
    report = solve_equitable(h, 3, SolveConfig(seed=5, force_path="balanced-only"))
    assert report.path == "balanced"
    balanced = report.coloring
    rows = [batch.row(t)[1].coloring for t in range(len(batch))]
    for c in [made, single, *rows, moved, repaired, balanced]:
        assert not c.colors.flags.writeable
        with pytest.raises(ValueError):
            c.colors[0] = 2
    assert not batch.colors.flags.writeable
    assert made.colors.tolist() == [1, 1, 2, 2, 3, 3]
    assert moved.colors.tolist() == [3, 1, 3, 2, 3, 3] and moved.sizes == [1, 1, 4]
