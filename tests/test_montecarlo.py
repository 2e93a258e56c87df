"""Monte Carlo estimators against the exact discrete oracle and the bounds."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eqcolor import (
    BudgetExceeded,
    ChainEventSpec,
    Comparison,
    Hypergraph,
    IntervalPartition,
    MonoEdgeExists,
    choose_p,
    exact_c0_event_prob,
    generate_random,
    mc_estimate,
    run_interval_coloring,
)
from eqcolor import chains, hypergraph, intervals, montecarlo, oracle
from eqcolor.intervals import _FIXPOINT_ROUNDS, _weight_slots
from eqcolor.montecarlo import QUANTITIES, Deflected
from eqcolor.seeding import ROLE_TRIALS, derive

from _reference import counts, deflection_counts, enumerate_chains
from test_console_pins import TRI_PAIR_CHAIN_EVENT, TRI_PAIR_MONO_EDGE

SINGLE = Hypergraph(2, 2, [(0, 1)])
# two triangles sharing vertices with a third, forcing interactions between
# deflections: the workhorse calibration instance
TRI_PAIR = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])
# two triangles sharing vertex 2, plus an edge across: m = 6 keeps every
# exact comparison within the oracle's reach
TRIS = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (3, 4, 5), (0, 4, 5)])


def _sequential_colors(h, slots, orders):
    """Both stages replayed one vertex at a time: large-block vertices
    take their block's color, then each small block's vertices, in order,
    take color i or are deflected to i + 1 when an edge has all its other
    vertices at color i."""
    colors = [s // 2 + 1 if s % 2 == 0 else 0 for s in slots]
    indptr, indices = h.incidence
    edges = h.edge_array.tolist()
    for i, block in enumerate(orders, start=1):
        for v in block:
            around = indices[indptr[v] : indptr[v + 1]].tolist()
            blocked = any(all(colors[u] == i for u in edges[e] if u != v) for e in around)
            colors[v] = i + 1 if blocked else i
    return colors


def _dense_blocking(deflected, trials, m):
    """The kernel's deflected (key, edge) pairs spread into a (T, m) int64
    blocking record, -1 where a vertex was not deflected.  The keys must
    increase, as the batch's per-row lookup assumes."""
    keys, edges = deflected
    assert keys.dtype == edges.dtype == np.int64 and (np.diff(keys) > 0).all()
    blocking = np.full(trials * m, -1, dtype=np.int64)
    blocking[keys] = edges
    return blocking.reshape(trials, m)


def test_oracle_single_edge_hand_value():
    # p=0.2, r=2: slots have lengths (0.4, 0.2, 0.4).  The edge goes mono
    # when both vertices draw the first large block (0.16), when both draw
    # the small block (0.04: the later vertex always deflects, so the pair
    # splits... except both-small orders keep the first at color 1 and
    # deflect the second, never mono), when one draws large 1 and the other
    # the small block with the small vertex processed second (deflects to 2,
    # not mono) or first (keeps 1, then large vertex is already 1: mono via
    # stage 1?  stage 1 colors large vertices before stage 2 runs, so the
    # small vertex sees color 1 and deflects: not mono).  Remaining mass:
    # both in large 2 (0.16).  Total 0.32.
    assert exact_c0_event_prob(SINGLE, 2, MonoEdgeExists(), p=0.2) == pytest.approx(
        0.32, abs=1e-12
    )


def test_oracle_is_a_probability_everywhere():
    for p in (0.1, 0.35, 0.6):
        val = exact_c0_event_prob(SINGLE, 2, MonoEdgeExists(), p=p)
        assert 0.0 <= val <= 1.0


def test_oracle_frozen_values_on_calibration_instance():
    assert exact_c0_event_prob(TRI_PAIR, 2, MonoEdgeExists()) == pytest.approx(
        0.41634184975008515, rel=1e-12
    )
    assert exact_c0_event_prob(TRI_PAIR, 2, Deflected(2, 1)) == pytest.approx(
        0.07188601748440646, rel=1e-12
    )
    assert exact_c0_event_prob(TRI_PAIR, 2, Deflected(2, None)) == pytest.approx(
        0.07188601748440646, rel=1e-12  # r=2 has a single small block
    )
    assert exact_c0_event_prob(TRI_PAIR, 2, ChainEventSpec((0, 1), 2)) == pytest.approx(
        0.008017001787568267, rel=1e-12
    )
    # the same values to the last bit, as the oracle sums them today; the
    # console pins read the mono-edge and chain-event values too
    assert exact_c0_event_prob(TRI_PAIR, 2, MonoEdgeExists()) == TRI_PAIR_MONO_EDGE
    assert exact_c0_event_prob(TRI_PAIR, 2, Deflected(2, 1)) == 0.07188601748440727
    assert exact_c0_event_prob(TRI_PAIR, 2, Deflected(2, None)) == 0.07188601748440727
    assert exact_c0_event_prob(TRI_PAIR, 2, ChainEventSpec((0, 1), 2)) == TRI_PAIR_CHAIN_EVENT
    path4 = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    assert exact_c0_event_prob(path4, 3, Deflected(1, 2)) == 0.09433144949768552


def test_oracle_probability_of_a_sure_event_is_exactly_one():
    # at r = 3 every configuration of K4 has a monochromatic edge; the group
    # weights alone sum to 1.0000000000000002
    k4 = Hypergraph(4, 2, list(itertools.combinations(range(4), 2)))
    assert exact_c0_event_prob(k4, 3, MonoEdgeExists()) == 1.0


def test_oracle_respects_budget():
    with pytest.raises(BudgetExceeded):
        exact_c0_event_prob(TRI_PAIR, 2, MonoEdgeExists(), budget=10)


def test_oracle_counts_configurations_before_enumerating(monkeypatch):
    # the tri-pair at r = 2 has sum_K m!/(m-K)! 2^(m-K) = 5296 configurations
    def never(*args):
        raise AssertionError("the dynamic program ran on an over-budget instance")

    assert exact_c0_event_prob(TRI_PAIR, 2, MonoEdgeExists(), budget=5296) > 0.0
    monkeypatch.setattr(oracle, "_visit_states", never)
    with pytest.raises(BudgetExceeded):
        exact_c0_event_prob(TRI_PAIR, 2, MonoEdgeExists(), budget=5295)
    # m = 8, r = 3 has 4 860 297 configurations, over the default MC budget
    cycle = Hypergraph(8, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)])
    with pytest.raises(BudgetExceeded):
        exact_c0_event_prob(cycle, 3, MonoEdgeExists(), budget=10**6)
    rep = mc_estimate("mono-edge", cycle, 3, trials=10, seed=0)
    assert rep.comparison.kind == "bound"


def test_oracle_values_a_list_of_events_in_one_enumeration():
    events = [Deflected(v, 1) for v in range(TRI_PAIR.m)]
    events += [MonoEdgeExists(), ChainEventSpec((0, 1), 2), Deflected(2, None)]
    singles = tuple(exact_c0_event_prob(TRI_PAIR, 2, ev) for ev in events)
    assert exact_c0_event_prob(TRI_PAIR, 2, events) == singles
    # a list of one event is a tuple of one value
    assert exact_c0_event_prob(TRI_PAIR, 2, events[-1:]) == singles[-1:]


def test_expected_deflections_comparison_is_one_enumeration(monkeypatch):
    # the 3^6 slot vectors of all 7 groups of equal small-block size fit in
    # one run, so one dynamic-program call decides all six deflection
    # events, as one decides the mono-edge event; the deflection pass
    # watches every vertex, the mono-edge pass none; its value is the
    # events' values summed in vertex order, to the last bit
    singles = [exact_c0_event_prob(TRI_PAIR, 2, Deflected(v, 1)) for v in range(TRI_PAIR.m)]
    calls = []
    visit = oracle._visit_states

    def counted(blocked, r, vectors, group, watch=0, links=()):
        calls.append((len(vectors), len(set(group.tolist())), watch))
        return visit(blocked, r, vectors, group, watch, links)

    monkeypatch.setattr(oracle, "_visit_states", counted)
    mono = mc_estimate("mono-edge", TRI_PAIR, 2, trials=10, seed=0)
    one_pass = len(calls)
    defl = mc_estimate("expected-deflections", TRI_PAIR, 2, {"i": 1}, trials=10, seed=0)
    assert mono.comparison.kind == defl.comparison.kind == "exact"
    assert len(calls) == 2 * one_pass == 2
    assert calls == [(3**6, 7, 0), (3**6, 7, (1 << 6) - 1)]
    assert defl.comparison.value == sum(singles)


def test_oracle_rejects_oversized_instances():
    big = Hypergraph(40, 2, [(0, 1)])
    with pytest.raises(ValueError):
        exact_c0_event_prob(big, 2, MonoEdgeExists())


def test_oracle_limits_are_m10_at_two_colors_and_m8_at_three():
    for m, r in ((11, 2), (9, 3), (4, 4)):
        with pytest.raises(ValueError):
            exact_c0_event_prob(Hypergraph(m, 2, [(0, 1)]), r, MonoEdgeExists())
    # inside the limits the budget decides: (10, 2) has 26 813 184
    # configurations and (8, 3) has 4 860 297
    with pytest.raises(BudgetExceeded):
        exact_c0_event_prob(Hypergraph(10, 2, [(0, 1)]), 2, MonoEdgeExists())
    with pytest.raises(BudgetExceeded):
        exact_c0_event_prob(Hypergraph(8, 2, [(0, 1)]), 3, MonoEdgeExists(), budget=4_860_296)


def test_oracle_at_p0_counts_the_uniform_colorings():
    # with no small blocks every vertex takes the color of its large block,
    # uniform and independent, so P(mono edge) is the share of the r^m
    # colorings with a monochromatic edge
    h = generate_random(6, 3, 4, 1)
    for r, value in ((2, 0.5625), (3, 0.3086419753086419)):
        grid = np.array(list(itertools.product(range(r), repeat=h.m)))
        edge_colors = grid[:, h.edge_array]
        share = (edge_colors == edge_colors[:, :, :1]).all(axis=2).any(axis=1).mean()
        assert exact_c0_event_prob(h, r, MonoEdgeExists(), p=0.0) == pytest.approx(share, rel=1e-12)
        assert share == pytest.approx(value, rel=1e-12)


def test_oracle_ignores_isolated_vertices():
    # vertices on no edge are never deflected and block nothing, so adding
    # them changes no probability
    p = 0.3
    for r, m in ((2, 7), (3, 6)):
        padded = Hypergraph(m, 2, [(0, 1)])
        # r vertices, the fewest that r colors allow
        least = Hypergraph(r, 2, [(0, 1)])
        assert exact_c0_event_prob(padded, r, MonoEdgeExists(), p=p) == pytest.approx(
            exact_c0_event_prob(least, r, MonoEdgeExists(), p=p), rel=1e-12
        )


def test_oracle_deflection_splits_by_small_block():
    # at r = 3 a vertex is deflected out of small_1 or out of small_2
    path4 = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    for v in range(4):
        one, two, either = (exact_c0_event_prob(path4, 3, Deflected(v, i)) for i in (1, 2, None))
        assert one > 0.0 and two > 0.0
        assert one + two == pytest.approx(either, rel=1e-12)


def test_oracle_memory_is_bounded_at_its_largest_shape():
    # m = 8 at r = 3 is the largest shape the oracle takes: 4 860 297
    # configurations in 390 625 slot vectors.  Groups of up to 2^18
    # configurations share a run, and larger ones run alone; the peak
    # measured 20.3 MiB (32.5 MiB when each vector kept its own states, and
    # 33.7 MiB for the enumeration of blocks of 1024 configurations)
    cycle = Hypergraph(8, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)])
    tracemalloc.start()
    try:
        value = exact_c0_event_prob(cycle, 3, MonoEdgeExists())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.20046058457020863, rel=1e-12)
    assert peak < 48 << 20


def test_oracle_memory_is_bounded_at_its_largest_two_color_shape():
    # m = 10 at r = 2: 26 813 184 configurations in 59 049 slot vectors.
    # Groups of up to 2^18 configurations share a run, whose configurations
    # bound every step's rows.  The peaks measured 6.6 MiB for mono-edge and
    # 11.2 MiB for the deflections of all ten vertices, whose states merge
    # least (the dynamic program that kept each vector's states apart
    # peaked at 33 MiB on both).  One pass decides all eleven events and
    # peaks at 11.2 MiB
    path = Hypergraph(10, 2, [(k, k + 1) for k in range(9)])
    events = [MonoEdgeExists()] + [Deflected(v, 1) for v in range(10)]
    tracemalloc.start()
    try:
        mono, *deflections = exact_c0_event_prob(path, 2, events, budget=27 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mono == pytest.approx(0.9829452693054591, rel=1e-12)
    assert sum(deflections) == pytest.approx(1.711071142634226, rel=1e-12)
    assert peak < 16 << 20


def test_oracle_simulator_refuses_m_above_its_table_limit():
    # the tables hold m * 2^m entries, 21 MB at m = 20: above the limit the
    # oracle fails before it allocates one.  At the limit, a path's even
    # vertices in the first large block and its odd ones in small_1: each
    # odd vertex is deflected whatever the order, so all (m / 2)! orders
    # end in one state
    limit = oracle._MASK_MAX_M
    assert limit >= 12
    path = Hypergraph(limit, 2, [(k, k + 1) for k in range(limit - 1)])
    blocked, _ = oracle._class_tables(path)
    slots = np.array([[v % 2 for v in range(limit)]], dtype=np.int8)
    odd = sum(1 << v for v in range(1, limit, 2))
    masks, deflected, group, count = oracle._visit_states(
        blocked, 2, slots, np.zeros(1, dtype=np.int64), watch=(1 << limit) - 1
    )
    colors = [1 + int(masks[0, 1] >> v & 1) for v in range(limit)]
    assert colors == [1 + v % 2 for v in range(limit)] == _sequential_colors(
        path, slots[0].tolist(), [list(range(1, limit, 2))]
    )
    assert deflected.tolist() == [odd] and group.tolist() == [0]
    assert count.tolist() == [math.factorial(limit // 2)]
    # a state key holds 2r bits per vertex and the group: m = 11 at r = 3
    # would need 66 bits, so the dynamic program refuses it
    with pytest.raises(ValueError):
        oracle._visit_states(blocked, 3, slots[:, :11], np.zeros(1, dtype=np.int64))
    big = Hypergraph(20, 2, [(k, k + 1) for k in range(19)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            oracle._class_tables(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_oracle_calls_no_production_kernel_or_predicate(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("the oracle called production code")

    for name in ("run_interval_coloring", "_chain_event_holds", "_mono_edges"):
        monkeypatch.setattr(montecarlo, name, banned)
    monkeypatch.setattr(intervals, "_stage_colors", banned)
    monkeypatch.setattr(intervals, "_weight_slots", banned)
    for name in ("_chain_event_holds", "_conflicting", "_first", "_last"):
        monkeypatch.setattr(chains, name, banned)
    monkeypatch.setattr(hypergraph, "_mono_edges", banned)
    test_oracle_frozen_values_on_calibration_instance()


def test_exact_oracle():
    for r in (2, 3):
        events = [MonoEdgeExists(), ChainEventSpec((0, 1), 2), Deflected(2, None)]
        mono, *others = exact_c0_event_prob(TRIS, r, events + [Deflected(v, 1) for v in range(6)])
        assert 0.0 < mono < 1.0
        assert all(0.0 <= value <= 1.0 for value in others) and max(others) > 0.0


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


def test_mc_quantities_registry():
    assert set(QUANTITIES) == {
        "mono-edge",
        "expected-deflections",
        "excess-pattern",
        "dangerous-count",
        "balanced-mono",
        "chain-event",
        "deflected",
    }


def test_mc_edgeless_mono_probability_is_zero():
    h = Hypergraph(4, 2, [])
    rep = mc_estimate("mono-edge", h, 2, params={"p": 0.2}, trials=500, seed=1)
    assert rep.estimate == 0.0 and rep.half_width == 0.0
    assert rep.trials == 500


def test_mc_deterministic_across_calls():
    a = mc_estimate("mono-edge", TRI_PAIR, 2, trials=4000, seed=9)
    b = mc_estimate("mono-edge", TRI_PAIR, 2, trials=4000, seed=9)
    assert a.estimate == b.estimate and a.half_width == b.half_width
    c = mc_estimate("mono-edge", TRI_PAIR, 2, trials=4000, seed=10)
    assert c.estimate != a.estimate


def test_mc_block_boundaries_do_not_bias():
    # trials straddling the block of 16384 agree with the oracle band
    h = SINGLE
    exact = 0.32
    rep = mc_estimate(
        "mono-edge", h, 2, params={"p": 0.2}, trials=20000, seed=4, compare=False
    )
    assert abs(rep.estimate - exact) <= rep.half_width


def test_mc_half_width_formula_probability():
    rep = mc_estimate("mono-edge", TRI_PAIR, 2, trials=3000, seed=2, compare=False)
    expected = 3.0 * math.sqrt(rep.estimate * (1.0 - rep.estimate) / rep.trials)
    assert rep.half_width == pytest.approx(expected, rel=1e-12)


def test_mc_attaches_exact_comparison_when_enumerable():
    rep = mc_estimate("mono-edge", SINGLE, 2, params={"p": 0.2}, trials=2000, seed=3)
    assert rep.comparison == Comparison("exact", pytest.approx(0.32, abs=1e-12))
    assert abs(rep.estimate - rep.comparison.value) <= rep.half_width


def test_mc_falls_back_to_bound_comparison():
    big = Hypergraph(12, 2, [(0, 1), (2, 3), (4, 5)])
    rep = mc_estimate("mono-edge", big, 2, trials=1000, seed=3)
    assert rep.comparison.kind == "bound"
    assert rep.comparison.value == pytest.approx(0.04 * math.e, abs=1e-12)


def test_mc_expected_deflections_in_band():
    rep = mc_estimate(
        "expected-deflections", TRI_PAIR, 2, params={"i": 1}, trials=30000, seed=6
    )
    assert rep.comparison.kind == "exact"
    assert rep.comparison.value == pytest.approx(0.3333713623046095, rel=1e-12)
    assert abs(rep.estimate - rep.comparison.value) <= rep.half_width


def test_mc_deflected_in_band():
    rep = mc_estimate("deflected", TRI_PAIR, 2, params={"v": 2}, trials=30000, seed=7)
    assert abs(rep.estimate - 0.07188601748440646) <= rep.half_width


def test_mc_deflected_splits_by_small_block():
    # the estimates for i = 1 and i = 2 share their draws with the i-less
    # one, so their hits add up to its hits; each compares with its exact
    # value
    path4 = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    trials = 20000
    either = mc_estimate("deflected", path4, 3, {"v": 1}, trials=trials, seed=3)
    by_block = [
        mc_estimate("deflected", path4, 3, {"v": 1, "i": i}, trials=trials, seed=3) for i in (1, 2)
    ]
    hits = [round(rep.estimate * trials) for rep in by_block]
    assert sum(hits) == round(either.estimate * trials) and min(hits) > 0
    for i, rep in enumerate(by_block, start=1):
        assert rep.quantity == f"deflected(v=1,i={i})"
        assert rep.comparison == Comparison("exact", exact_c0_event_prob(path4, 3, Deflected(1, i)))
    assert by_block[1].comparison.value == 0.09433144949768552


def test_mc_chain_event_in_band():
    rep = mc_estimate(
        "chain-event",
        TRI_PAIR,
        2,
        params={"edges": (0, 1), "color": 2},
        trials=60000,
        seed=8,
    )
    assert abs(rep.estimate - 0.008017001787568267) <= rep.half_width


def test_chain_event_estimate_leaves_numpy_ma_unloaded():
    # np.intersect1d imports numpy.ma (about 0.5 MB); the builder's check
    # that consecutive edges share one vertex is the link rule's np.isin
    # test.  A child process starts without the estimate's imports (numpy
    # before 2.0 loads numpy.ma itself)
    code = (
        "import sys; from eqcolor import Hypergraph, mc_estimate\n"
        "before = 'numpy.ma' in sys.modules\n"
        "h = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])\n"
        "rep = mc_estimate('chain-event', h, 2, {'edges': [0, 1], 'color': 2}, trials=100)\n"
        "assert rep.comparison.kind == 'exact'\n"
        "print(before, 'numpy.ma' in sys.modules)"
    )
    src = Path(montecarlo.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before, proc.stdout


def test_mc_balanced_mono_matches_formula():
    h = Hypergraph(4, 2, [(0, 1)])
    rep = mc_estimate("balanced-mono", h, 2, trials=30000, seed=5)
    assert rep.comparison == Comparison("exact", pytest.approx(1 / 3, abs=1e-15))
    assert abs(rep.estimate - 1 / 3) <= rep.half_width
    with pytest.raises(ValueError):
        mc_estimate("balanced-mono", Hypergraph(5, 2, [(0, 1)]), 2, trials=10)


@pytest.mark.parametrize("seed, path_hits, tri_hits", [(13, 354, 1998), (14, 358, 1993)])
def test_mc_balanced_mono_frozen_values(seed, path_hits, tri_hits):
    # counts frozen from the solver's balanced draw, Generator.permuted rows
    # cut at the class targets; 1500 trials on the path span four
    # sub-batches, 20000 on TRI_PAIR two blocks
    path = Hypergraph(80, 2, [(k, k + 1) for k in range(79)])
    cases = ((path, 4, 5, 1500, path_hits), (TRI_PAIR, 2, 1, 20000, tri_hits))
    for h, r, edge, trials, hits in cases:
        rep = mc_estimate("balanced-mono", h, r, {"edge": edge}, trials, seed, compare=False)
        assert rep.estimate == hits / trials


def test_mc_dangerous_count_runs_and_bounds():
    rep = mc_estimate(
        "dangerous-count", TRI_PAIR, 2, params={"p_tilde": 0.5}, trials=5000, seed=11
    )
    assert rep.estimate >= 0.0
    assert rep.comparison.kind == "bound"


def test_mc_excess_pattern_probability():
    rep = mc_estimate("excess-pattern", TRI_PAIR, 2, trials=5000, seed=12)
    assert 0.0 <= rep.estimate <= 1.0


def test_mc_rejects_bad_requests():
    with pytest.raises(ValueError):
        mc_estimate("no-such-quantity", SINGLE, 2, trials=10)
    with pytest.raises(ValueError):
        mc_estimate("mono-edge", SINGLE, 2, trials=0)
    with pytest.raises(ValueError, match="params\\['i'\\]"):
        mc_estimate("expected-deflections", SINGLE, 2, trials=10)
    with pytest.raises(ValueError, match="params\\['v'\\]"):
        mc_estimate("deflected", SINGLE, 2, trials=10)
    with pytest.raises(ValueError):
        mc_estimate("mono-edge", SINGLE, 2, params={"i": 1}, trials=10)  # stray param
    with pytest.raises(ValueError):
        mc_estimate("expected-deflections", SINGLE, 2, params={"i": 7}, trials=10)


@pytest.mark.parametrize(
    "quantity, params, name",
    [
        ("chain-event", {"edges": [0.9, 1.2], "color": 2}, "edges"),
        ("chain-event", {"edges": [0, 1], "color": 2.7}, "color"),
        ("deflected", {"v": 1.5, "i": 1}, "v"),
        ("deflected", {"v": 1, "i": 1.9}, "i"),
        ("deflected", {"v": 1, "i": "1"}, "i"),
        ("expected-deflections", {"i": 1.0}, "i"),
        ("balanced-mono", {"edge": True}, "edge"),
    ],
)
def test_mc_refuses_integer_params_it_would_truncate(quantity, params, name):
    # read as int(), each of these ran a different estimate: chain (0, 1)
    # at color 2, deflected(v=1,i=1), or edge 1 watched
    with pytest.raises(ValueError, match=f"params\\['{name}'\\]"):
        mc_estimate(quantity, TRI_PAIR, 2, params, trials=10, compare=False)


@pytest.mark.parametrize(
    "quantity, params, name",
    [
        ("mono-edge", {"p": "0.3"}, "p"),
        ("mono-edge", {"p": True}, "p"),
        ("dangerous-count", {"p_tilde": True}, "p_tilde"),
        ("dangerous-count", {"p_tilde": "0.5"}, "p_tilde"),
        ("chain-event", {"edges": 5, "color": 1}, "edges"),
        ("chain-event", {"edges": None, "color": 1}, "edges"),
    ],
)
def test_mc_refuses_real_params_and_edges_it_would_misread(quantity, params, name):
    # read with float(), "0.3" ran at p = 0.3 and true at p_tilde = 1.0; an
    # int for edges raised a bare TypeError
    with pytest.raises(ValueError, match=f"params\\['{name}'\\]"):
        mc_estimate(quantity, TRI_PAIR, 2, params, trials=10, compare=False)


def test_mc_takes_python_and_numpy_real_params():
    for quantity, name, value in (("mono-edge", "p", 0.25), ("dangerous-count", "p_tilde", 0.5)):
        plain = mc_estimate(quantity, TRI_PAIR, 2, {name: value}, 200, seed=3, compare=False)
        for other in (np.float64(value), np.float32(value)):
            got = mc_estimate(quantity, TRI_PAIR, 2, {name: other}, 200, seed=3, compare=False)
            assert got == plain
    # an integer is a real number: p = 0 and p_tilde = 1
    for quantity, name, value in (("mono-edge", "p", 0), ("dangerous-count", "p_tilde", 1)):
        plain = mc_estimate(quantity, TRI_PAIR, 2, {name: float(value)}, 200, seed=3, compare=False)
        for other in (value, np.int64(value)):
            got = mc_estimate(quantity, TRI_PAIR, 2, {name: other}, 200, seed=3, compare=False)
            assert got == plain


def test_mc_takes_python_and_numpy_integer_params():
    for quantity, params in (
        ("chain-event", {"edges": [0, 1], "color": 2}),
        ("deflected", {"v": 1, "i": 1}),
        ("balanced-mono", {"edge": 1}),
    ):
        numpy_params = {
            key: [np.int64(x) for x in value] if isinstance(value, list) else np.int32(value)
            for key, value in params.items()
        }
        plain = mc_estimate(quantity, TRI_PAIR, 2, params, trials=200, seed=3, compare=False)
        other = mc_estimate(quantity, TRI_PAIR, 2, numpy_params, 200, seed=3, compare=False)
        assert other == plain


def test_mc_report_json_shape():
    rep = mc_estimate("mono-edge", SINGLE, 2, params={"p": 0.2}, trials=100, seed=0)
    obj = rep.to_json_dict()
    assert obj["quantity"] == "mono-edge"
    assert obj["trials"] == 100
    assert set(obj) >= {"quantity", "trials", "estimate", "half_width", "comparison"}
    assert obj["comparison"]["kind"] == "exact"


def test_vectorized_kernel_matches_reference_coloring():
    # the production kernel (vectorized slot lookup, shared by the solver
    # and the estimator) must color exactly like the sequential replay
    # given the same slots and per-small-block orders, draw for draw
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(2, min(m, 4) + 1))
        ne = int(rng.integers(0, min(math.comb(m, n), 6) + 1))
        edges = set()
        while len(edges) < ne:
            edges.add(tuple(sorted(rng.choice(m, n, replace=False).tolist())))
        h = Hypergraph(m, n, sorted(edges))
        r = min(int(rng.integers(2, 4)), m)  # no more colors than vertices
        p = float(rng.uniform(0.05, 0.6))
        part = IntervalPartition(p, r)
        u = rng.random(m)
        slots = [part.slot_of(x) for x in u]
        orders = [
            [v for v in np.lexsort((np.arange(m), u)).tolist() if slots[v] == 2 * i - 1]
            for i in range(1, r)
        ]
        reference = _sequential_colors(h, slots, orders)
        assert run_interval_coloring(h, r, part, u).coloring.colors.tolist() == reference


def _reference_holds(h, event, slots, colors, position):
    """One event on one configuration, read off its slots, its final colors
    and each vertex's processing position (slot, then visit order)."""
    if isinstance(event, MonoEdgeExists):
        return any(len({colors[u] for u in e}) == 1 for e in h.edge_array.tolist())
    if isinstance(event, Deflected):
        s = slots[event.vertex]
        i = (s + 1) // 2
        return s % 2 == 1 and colors[event.vertex] == i + 1 and event.interval in (None, i)
    # a chain: each pair of consecutive edges shares one vertex v, in the
    # small block below the pair's color c, last of the earlier edge and
    # first of the later one; the earlier edge's other vertices end at
    # c - 1, the last edge at the chain's color, and the first edge starts
    # in the large or small block of its color
    edges = [h.edge_array[e].tolist() for e in event.edges]
    c1 = event.color - len(edges) + 1
    if c1 < 1 or any(colors[u] != event.color for u in edges[-1]):
        return False
    if len(edges) == 1:
        return all(slots[u] == 2 * event.color - 2 for u in edges[0])
    for t, (before, after) in enumerate(zip(edges, edges[1:])):
        common = set(before) & set(after)
        c = c1 + t + 1
        if len(common) != 1 or slots[min(common)] != 2 * c - 3:
            return False
        v = min(common)
        if max(before, key=position.get) != v or min(after, key=position.get) != v:
            return False
        if any(colors[u] != c - 1 for u in before if u != v):
            return False
    return slots[min(edges[0], key=position.get)] // 2 == c1 - 1


def _reference_event_probs(h, r, p, events):
    """Every configuration in plain Python: each slot vector, crossed with
    each ``itertools.permutations`` order of each small block, replayed by
    ``_sequential_colors``, adds its measure to every event that holds."""
    lengths = [(1 - p) / r if s % 2 == 0 else p / (r - 1) for s in range(2 * r - 1)]
    totals = [0.0] * len(events)
    for slots in itertools.product(range(2 * r - 1), repeat=h.m):
        blocks = [[v for v in range(h.m) if slots[v] == 2 * i - 1] for i in range(1, r)]
        weight = math.prod(lengths[s] for s in slots)
        weight /= math.prod(math.factorial(len(block)) for block in blocks)
        for orders in itertools.product(*map(itertools.permutations, blocks)):
            colors = _sequential_colors(h, slots, orders)
            rank = {v: k for block in orders for k, v in enumerate(block)}
            position = {v: (slots[v], rank.get(v, 0), v) for v in range(h.m)}
            for j, event in enumerate(events):
                if _reference_holds(h, event, slots, colors, position):
                    totals[j] += weight
    return totals


@pytest.mark.parametrize(
    "h, r",
    [
        (Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)]), 2),
        (Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)]), 3),
        (Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)]), 2),
        (Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)]), 3),
        (Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)]), 3),
        # vertex 1 links (0, 1) to (1, 2) and (1, 3): a third edge can
        # deflect it before vertex 0 is visited
        (Hypergraph(5, 2, [(0, 1), (1, 2), (1, 3), (3, 4)]), 3),
    ],
)
def test_oracle_matches_a_plain_enumeration_of_every_order(h, r):
    # the oracle counts orders by a dynamic program; this reference lists
    # each of them.  p = 0.45 puts much mass in the small blocks, where the
    # order decides deflections and chains
    p = 0.45
    events = [MonoEdgeExists()]
    events += [Deflected(v, i) for v in range(h.m) for i in (*range(1, r), None)]
    events += [
        ChainEventSpec(tuple(seq), color)
        for k in range(1, r + 1)
        for seq in enumerate_chains(h, k)[1]
        for color in range(k, r + 1)
    ]
    expected = _reference_event_probs(h, r, p, events)
    found = dict(zip(events, exact_c0_event_prob(h, r, events, p=p)))
    for event, value in zip(events, expected):
        assert found[event] == pytest.approx(value, rel=1e-12, abs=1e-15), event
    # lists that watch the deflections of only some vertices share one pass,
    # in which states differing only at the other vertices merge, and no
    # value changes in the last bit; an event alone gives its value too
    mixed = [
        [Deflected(0, 1), MonoEdgeExists(), Deflected(h.m - 1, None)],
        [Deflected(v, r - 1) for v in range(1, h.m, 2)],
        [MonoEdgeExists(), Deflected(2, None), events[-1], Deflected(2, 1)],
    ]
    for chosen in mixed:
        assert exact_c0_event_prob(h, r, chosen, p=p) == tuple(found[event] for event in chosen)
    assert exact_c0_event_prob(h, r, events[-1], p=p) == found[events[-1]]
    linked = [
        v for ev, v in zip(events, expected) if isinstance(ev, ChainEventSpec) and len(ev.edges) > 1
    ]
    assert len(linked) >= 2 and all(v > 0.0 for v in linked)


def test_mc_compares_with_the_bound_past_the_oracle_budget():
    # m = 9 is within the oracle's limit at r = 2, but its 2 681 216
    # configurations pass the budget of 10^6
    h = Hypergraph(9, 2, [(0, 1), (1, 2), (5, 8)])
    assert h.m <= oracle._ORACLE_MAX_M[2]
    rep = mc_estimate("mono-edge", h, 2, trials=10, seed=0)
    assert rep.comparison == Comparison("bound", pytest.approx(0.04 * math.e, abs=1e-12))


def test_oracle_orders_small_blocks_by_weight_not_id():
    # two small-block vertices in the same block: the oracle must average
    # over both processing orders; a fixed-id order would give 0 or 1 here
    h = Hypergraph(2, 2, [(0, 1)])
    # both vertices forced into the small block: order decides nothing for
    # mono (the later one always deflects) so mono prob is 0 conditional on
    # both landing there; overall mono prob is driven by the large blocks
    p = 0.5
    val = exact_c0_event_prob(h, 2, MonoEdgeExists(), p=p)
    # direct: both in large 1 (0.0625) + both in large 2 (0.0625)
    assert val == pytest.approx(2 * (0.25 * 0.25), abs=1e-12)


def _reference_blocking(h, slots, orders, colors):
    """Lowest-index incident edge whose other vertices all carried the
    deflected vertex's block color when it was visited, replayed from the
    sequential replay's final colors; -1 for a vertex not deflected."""
    colored = [s % 2 == 0 for s in slots]
    indptr, indices = h.incidence
    edges = h.edge_array.tolist()
    out = [-1] * h.m
    for i, block in enumerate(orders, start=1):
        for v in block:
            if colors[v] == i + 1:
                out[v] = min(
                    e
                    for e in indices[indptr[v] : indptr[v + 1]].tolist()
                    if all(colored[u] and colors[u] == i for u in edges[e] if u != v)
                )
            colored[v] = True
    return out


@pytest.mark.parametrize("r", [2, 3, 4])
def test_batched_kernel_matches_oracle_simulator_row_by_row(r):
    # many trials per kernel call, checked trial by trial against the
    # sequential replay: colors, deflection counts, blocking
    rng = np.random.default_rng(31 + r)
    instances = [TRI_PAIR, Hypergraph(8, 2, [(i, (i + 1) % 8) for i in range(8)])]
    for _ in range(4):
        m = int(rng.integers(5, 13))
        n = int(rng.integers(2, 4))
        pool = [tuple(c) for c in itertools.combinations(range(m), n)]
        picks = rng.choice(len(pool), size=min(len(pool), 4 * m), replace=False)
        instances.append(Hypergraph(m, n, [pool[k] for k in picks]))  # dense
    trials = 0
    deflected = 0
    for h in instances:
        for p in (choose_p(h.n, r), 0.5, 0.9):
            part = IntervalPartition(p, r)
            u = rng.random((60, h.m))
            slots = _weight_slots(part, u)
            colors, pairs = intervals._stage_colors(h, slots, u)
            deflections = deflection_counts(pairs, slots, r)
            blocking = _dense_blocking(pairs, 60, h.m)
            assert colors.shape == (60, h.m) and deflections.shape == (60, r - 1)
            assert blocking.shape == (60, h.m) and blocking.dtype == np.int64
            for t in range(60):
                order = np.lexsort((np.arange(h.m), u[t])).tolist()
                row = slots[t].tolist()
                orders = [[v for v in order if row[v] == 2 * i - 1] for i in range(1, r)]
                reference = _sequential_colors(h, row, orders)
                assert colors[t].tolist() == reference
                counts = [
                    sum(1 for v in orders[i - 1] if reference[v] == i + 1) for i in range(1, r)
                ]
                assert deflections[t].tolist() == counts
                assert blocking[t].tolist() == _reference_blocking(h, row, orders, reference)
                # deflected exactly where stage 2 moved a vertex off stage 1
                assert ((blocking[t] >= 0) == (colors[t] != slots[t] // 2 + 1)).all()
                trials += 1
                deflected += sum(counts)
    assert trials == 3 * 6 * 60 and deflected > 100


@pytest.mark.parametrize("rounds", [0, 1, 10**6])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_batched_kernel_matches_oracle_simulator_under_round_cap(monkeypatch, r, rounds):
    # no round hands every trial with a live edge to the sequential walk,
    # one round most trials with a deflection; 10^6 rounds leave none, so
    # the fixed point alone colors them
    walked = _walked_trials(monkeypatch)
    monkeypatch.setattr(intervals, "_FIXPOINT_ROUNDS", rounds)
    test_batched_kernel_matches_oracle_simulator_row_by_row(r)
    if rounds == 10**6:
        assert walked == []
    else:
        assert sum(map(len, walked)) > 100


@pytest.mark.parametrize("rounds", [0, 1, 10**6])
def test_batched_kernel_breaks_weight_ties_by_id(monkeypatch, rounds):
    # weights on a grid of ten values tie often; the walk and the fixed
    # point both order tied vertices by id, as the oracle's orders do
    monkeypatch.setattr(intervals, "_FIXPOINT_ROUNDS", rounds)
    rng = np.random.default_rng(57)
    instances = [TRI_PAIR, Hypergraph(8, 2, [(i, (i + 1) % 8) for i in range(8)])]
    instances.append(Hypergraph(7, 3, list(itertools.combinations(range(7), 3))[::2]))
    deflected = 0
    for h in instances:
        for r, p in ((2, 0.5), (2, 0.9), (3, 0.6)):
            part = IntervalPartition(p, r)
            u = rng.integers(0, 10, size=(80, h.m)) / 10.0
            slots = _weight_slots(part, u)
            colors, pairs = intervals._stage_colors(h, slots, u)
            deflections = deflection_counts(pairs, slots, r)
            blocking = _dense_blocking(pairs, 80, h.m)
            for t in range(80):
                order = np.lexsort((np.arange(h.m), u[t])).tolist()
                row = slots[t].tolist()
                orders = [[v for v in order if row[v] == 2 * i - 1] for i in range(1, r)]
                reference = _sequential_colors(h, row, orders)
                assert colors[t].tolist() == reference
                assert blocking[t].tolist() == _reference_blocking(h, row, orders, reference)
                assert ((blocking[t] >= 0) == (colors[t] != slots[t] // 2 + 1)).all()
                deflected += int(deflections[t].sum())
    assert deflected > 100


@pytest.mark.parametrize("m, rounds", [(8000, None), (300, 10**6)])
def test_deep_deflection_chain_matches_oracle_simulator(monkeypatch, m, rounds):
    # a path inside small_1 with increasing weights: each vertex is
    # deflected iff its predecessor is not, one chain of m - 1 edges.  The
    # round cap hands it to the walk; without a cap the fixed point needs
    # about m rounds.  The reference is the sequential replay
    if rounds is not None:
        monkeypatch.setattr(intervals, "_FIXPOINT_ROUNDS", rounds)
    h = Hypergraph(m, 2, [(k, k + 1) for k in range(m - 1)])
    part = IntervalPartition(0.99, 2)
    lo, hi = part.lefts[1:3]  # small_1
    u = np.linspace(lo, hi, m, endpoint=False)[None, :]
    slots = _weight_slots(part, u)
    assert (slots == 1).all()
    colors, pairs = intervals._stage_colors(h, slots, u)
    blocking = _dense_blocking(pairs, 1, m)
    assert colors[0].tolist() == _sequential_colors(h, slots[0].tolist(), [list(range(m))])
    assert deflection_counts(pairs, slots, 2).tolist() == [[m // 2]]
    assert blocking.tolist() == [[v - 1 if v % 2 else -1 for v in range(m)]]


# random instances at scale: at (5000, 3, 20000), r = 2, p = 0.99 the
# deflection chains outlast the fixed point's rounds, so the walk colors
# every trial; at (20000, 6, 20000), r = 3, p = 0.9 the rounds alone do
SCALE = [((5000, 3, 20000), 2, 0.99, True), ((20000, 6, 20000), 3, 0.9, False)]


def _walked_trials(monkeypatch):
    """Wrap ``intervals._stage_colors`` and ``intervals._walk``; the
    returned list gathers the set of trials handed to the walk by each
    call, read off the keys t * m + v of the walked pairs' last vertices,
    with m from the kernel call the walk runs in."""
    walked, width = [], []
    kernel, walk = intervals._stage_colors, intervals._walk

    def recording(h, slots, weights):
        width.append(slots.shape[1])
        return kernel(h, slots, weights)

    def counted(pairs, lkey, *rest):
        walked.append(set((lkey[pairs] // width[-1]).tolist()))
        return walk(pairs, lkey, *rest)

    monkeypatch.setattr(intervals, "_stage_colors", recording)
    monkeypatch.setattr(intervals, "_walk", counted)
    return walked


@pytest.mark.parametrize("shape, r, p, walks", SCALE)
def test_kernel_matches_the_replay_at_scale(monkeypatch, shape, r, p, walks):
    walked = _walked_trials(monkeypatch)
    h = generate_random(*shape, seed=2)
    u = np.random.default_rng(3).random((2, h.m))
    slots = _weight_slots(IntervalPartition(p, r), u)
    colors, pairs = intervals._stage_colors(h, slots, u)
    deflections = deflection_counts(pairs, slots, r)
    assert walked == ([{0, 1}] if walks else [])
    blocking = _dense_blocking(pairs, 2, h.m)
    for t in range(2):
        order = np.lexsort((np.arange(h.m), u[t])).tolist()
        row = slots[t].tolist()
        orders = [[v for v in order if row[v] == 2 * i - 1] for i in range(1, r)]
        reference = _sequential_colors(h, row, orders)
        assert colors[t].tolist() == reference
        assert deflections[t].tolist() == [
            sum(1 for v in orders[i - 1] if reference[v] == i + 1) for i in range(1, r)
        ]
        assert blocking[t].tolist() == _reference_blocking(h, row, orders, reference)
    assert deflections.sum() > 500


@pytest.mark.parametrize("shape, r, p, walks", [((200, 5, 60), 2, choose_p(5, 2), False), SCALE[0]])
def test_kernel_reads_strided_weights_as_their_contiguous_copy(monkeypatch, shape, r, p, walks):
    # dangerous-count's weights are the left half of each row of 2m draws:
    # the kernel reads such a view by (row, vertex), a contiguous array by
    # one take, and both give the same bits
    walked = _walked_trials(monkeypatch)
    h = generate_random(*shape, seed=8)
    wide = np.random.default_rng(9).random((4, 2 * h.m))
    strided = wide[:, : h.m]
    packed = np.ascontiguousarray(strided)
    assert packed.flags.c_contiguous and not strided.flags.c_contiguous
    slots = _weight_slots(IntervalPartition(p, r), packed)
    (a, a_pairs), (b, b_pairs) = (intervals._stage_colors(h, slots, w) for w in (strided, packed))
    assert a.dtype == b.dtype and np.array_equal(a, b)
    for x, y in zip(a_pairs, b_pairs):
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)
    # live pairs read their weights; at the walk's shape every trial is walked
    assert len(a_pairs[0]) > 0
    assert walked == ([set(range(4))] * 2 if walks else [])


@pytest.mark.parametrize("rounds", [_FIXPOINT_ROUNDS, 0])
@pytest.mark.parametrize("shape, r, p", [SCALE[0][:3], ((2000, 3, 6000), 3, 0.9)])
def test_mc_deflection_statistics_match_the_run_records(monkeypatch, shape, r, p, rounds):
    # the statistics read the kernel's deflected pairs; each trial's value
    # is what its InitialColoring says: X[i - 1] (``counts``), and for a
    # vertex v, v in deflected[0] (and v's slot small_i when i is given)
    monkeypatch.setattr(intervals, "_FIXPOINT_ROUNDS", rounds)
    walked = _walked_trials(monkeypatch)
    h = generate_random(*shape, seed=6)
    part = IntervalPartition(p, r)
    u = np.random.default_rng(7).random((3, h.m))
    batch = run_interval_coloring(h, r, part, u)
    assert walked
    rows = [batch.row(t) for t in range(3)]

    def values(q, params):
        _, stat, _ = montecarlo._SPECS[q].build(h, r, p, params)
        return np.asarray(stat(batch.colors, batch, None)).tolist()

    for i in range(1, r):
        expected = [counts(row)[0][i - 1] for row in rows]
        assert values("expected-deflections", {"i": i}) == expected
        assert min(expected) > 0
    # every vertex deflected in trial 0, and every 50th vertex
    vertices = sorted(set(rows[0].deflected[0].tolist()) | set(range(0, h.m, 50)))
    hits = 0
    for v in vertices:
        hit = [v in row.deflected[0] for row in rows]
        assert values("deflected", {"v": v}) == hit
        for i in range(1, r):
            assert values("deflected", {"v": v, "i": i}) == [
                hit[t] and int(rows[t].slots[v]) == 2 * i - 1 for t in range(3)
            ]
        hits += sum(hit)
    assert 0 < hits < 3 * len(vertices)


@pytest.mark.parametrize(
    "shape, r, p, walks", SCALE + [((100000, 8, 10000), 4, choose_p(8, 4), False)]
)
def test_kernel_is_invariant_under_relabeling(monkeypatch, shape, r, p, walks):
    # the process reads ids only through ties of weight: moving the weights
    # along a vertex permutation pi moves the colors along it, whatever the
    # edge order.  The recorded blocking edge is the lowest-index one, so
    # it is compared only when the edge order is kept
    walked = _walked_trials(monkeypatch)
    rng = np.random.default_rng(4)
    h = generate_random(*shape, seed=5)
    part = IntervalPartition(p, r)
    u = rng.random((4, h.m))
    slots = _weight_slots(part, u)
    colors, pairs = intervals._stage_colors(h, slots, u)
    deflections = deflection_counts(pairs, slots, r)
    blocking = _dense_blocking(pairs, 4, h.m)
    pi = rng.permutation(h.m)
    moved = np.empty_like(u)
    moved[:, pi] = u
    edge_count = len(h.edge_array)
    for kept, edges in ((True, np.arange(edge_count)), (False, rng.permutation(edge_count))):
        relabeled = Hypergraph(h.m, h.n, pi[h.edge_array[edges]])
        moved_slots = _weight_slots(part, moved)
        got, got_pairs = intervals._stage_colors(relabeled, moved_slots, moved)
        assert np.array_equal(got[:, pi], colors)
        assert np.array_equal(deflection_counts(got_pairs, moved_slots, r), deflections)
        if kept:
            assert np.array_equal(_dense_blocking(got_pairs, 4, h.m)[:, pi], blocking)
    assert deflections.sum() > 0
    assert len(walked) == (3 if walks else 0) and all(len(w) == 4 for w in walked)


@pytest.mark.parametrize("cells", [1, 1 << 20])
def test_mc_sub_batch_size_changes_no_estimate(monkeypatch, cells):
    # on a 79-edge path the default cap splits 4000 trials into three
    # sub-batches; a cap of 1 makes one per trial and 2^20 one per block
    path = Hypergraph(80, 2, [(k, k + 1) for k in range(79)])
    trials = 4000
    assert 1 < trials * path.edge_array.size // montecarlo._SUB_BATCH_CELLS < 4
    cases = [
        ("mono-edge", 4, {"p": 0.9}),
        ("expected-deflections", 2, {"i": 1}),
        ("excess-pattern", 2, {}),
        ("dangerous-count", 2, {"p_tilde": 0.5}),
        ("balanced-mono", 2, {}),
        ("chain-event", 2, {"edges": (0, 1), "color": 2}),
        ("deflected", 2, {"v": 2}),
    ]
    assert {c[0] for c in cases} == set(QUANTITIES)
    before = [
        mc_estimate(q, path, r, dict(params), trials=trials, seed=13, compare=False)
        for q, r, params in cases
    ]
    monkeypatch.setattr(montecarlo, "_SUB_BATCH_CELLS", cells)
    after = [
        mc_estimate(q, path, r, dict(params), trials=trials, seed=13, compare=False)
        for q, r, params in cases
    ]
    assert after == before
    assert all(0 < rep.estimate for rep in before)


def test_mc_sub_batches_respect_the_cell_cap(monkeypatch):
    sizes = []
    kernel = intervals._stage_colors

    def recording(h, slots, weights):
        sizes.append(len(slots))
        return kernel(h, slots, weights)

    monkeypatch.setattr(intervals, "_stage_colors", recording)

    def calls(h, trials):
        sizes.clear()
        mc_estimate("mono-edge", h, 3, trials=trials, seed=4, compare=False)
        # a mono-edge trial draws m uniforms and gathers n |E| edge cells
        cells = max(h.m, h.edge_array.size)
        sub = max(1, montecarlo._SUB_BATCH_CELLS // cells)
        assert all(t == 1 or t * cells <= montecarlo._SUB_BATCH_CELLS for t in sizes), sizes
        # one block at these sizes, cut into sub-batches of ``sub`` trials
        assert trials <= montecarlo._BLOCK
        assert len(sizes) == math.ceil(trials / sub) and sum(sizes) == trials
        return len(sizes)

    small, large = generate_random(200, 5, 60, 1), generate_random(1000, 8, 400, 3)
    assert calls(small, 1000) == 2
    assert calls(large, 300) == 4
    # the draws dominate: 2^18 // 20000 = 13 trials per sub-batch
    assert calls(generate_random(20000, 2, 10, 2), 100) == 8
    # the cap is the module's own name, read on every call
    monkeypatch.setattr(montecarlo, "_SUB_BATCH_CELLS", 1 << 16)
    assert calls(large, 300) == 15


def _reference_report(quantity, h, r, params, trials, seed):
    """A copy of ``_sample`` that draws each block of ``_BLOCK`` trials
    whole, derive(seed, b, ROLE_TRIALS).random((_BLOCK, width)), and runs
    trial t alone on row t % ``_BLOCK``; a balanced trial instead draws its
    own ``permutation(m)`` from the block's generator and cuts it at the
    class targets."""
    spec = montecarlo._SPECS[quantity]
    values = dict(params)
    p = values.pop("p", choose_p(h.n, r)) if montecarlo._P in spec.params else None
    label, stat, _ = spec.build(h, r, p, values)
    width = 2 * h.m if spec.with_keep else h.m
    block = montecarlo._BLOCK
    total = total_sq = 0
    labels = np.repeat(np.arange(1, r + 1), hypergraph.class_targets(h.m, r))
    for t in range(trials):
        if t % block == 0:
            rng = derive(seed, t // block, ROLE_TRIALS)
            rows = None if p is None else rng.random((block, width))
        if p is None:
            colors = np.empty((1, h.m), dtype=np.int64)
            colors[0, rng.permutation(h.m)] = labels
            batch = keep = None
        else:
            row = rows[t % block][None, :]
            u, keep = row[:, : h.m], row[:, h.m :] if spec.with_keep else None
            batch = run_interval_coloring(h, r, IntervalPartition(p, r), u)
            colors = batch.colors
        value = int(np.asarray(stat(colors, batch, keep))[0])
        total += value
        total_sq += value * value
    return montecarlo._report(label, trials, float(total), float(total_sq), spec.mean, None)


def test_mc_trials_are_seeded_per_block(monkeypatch):
    # blocks of 37 trials: 120 trials span four blocks, at m = 300 (a
    # trial draws 300 uniforms, or 600 with keep draws, more than the path's
    # 20 edge cells); a cap of 6000 cells cuts sub-batches of 20 trials (10
    # with keep draws) that do not line up with the blocks
    monkeypatch.setattr(montecarlo, "_BLOCK", 37)
    path = Hypergraph(300, 2, [(k, k + 1) for k in range(10)])
    trials = 120
    cases = [
        ("mono-edge", 4, {"p": 0.9}),
        ("expected-deflections", 2, {"i": 1}),
        ("excess-pattern", 2, {"p": 0.1}),
        ("dangerous-count", 2, {"p_tilde": 0.5}),
        ("balanced-mono", 2, {}),
        ("chain-event", 2, {"edges": (0, 1), "color": 2}),
        ("deflected", 2, {"v": 2}),
    ]
    assert {c[0] for c in cases} == set(QUANTITIES)
    reference = [_reference_report(q, path, r, params, trials, 13) for q, r, params in cases]
    for cells in (1, 6000, montecarlo._SUB_BATCH_CELLS, 2**24):
        monkeypatch.setattr(montecarlo, "_SUB_BATCH_CELLS", cells)
        reports = [
            mc_estimate(q, path, r, dict(params), trials=trials, seed=13, compare=False)
            for q, r, params in cases
        ]
        assert reports == reference, cells
    assert all(0 < rep.estimate != 1 for rep in reference)


def test_mc_memory_is_bounded_by_the_sub_batch():
    from eqcolor import generate_random

    # 3000 dangerous-count trials at m = 1000 draw 2000 uniforms each;
    # sub-batches of 81 trials peaked at 2.6 MiB, where drawing chunks of
    # 2097 trials whole peaked at 45.9 MiB (mono-edge at p = 0.99: 14.0
    # MiB, against 36.3 MiB, the kernel's arrays at the cap)
    h = generate_random(1000, 8, 400, 3)
    tracemalloc.start()
    try:
        mc_estimate("dangerous-count", h, 3, trials=3000, compare=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
