"""Interval partition, weight order, the two-stage coloring, and balanced colorings."""

import ast
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqcolor import intervals
from eqcolor import (
    Coloring,
    Hypergraph,
    InitialColoring,
    InitialColoringBatch,
    IntervalPartition,
    balanced_mono_prob,
    choose_p,
    class_targets,
    generate_random,
    run_interval_coloring,
    sample_weights,
)
from eqcolor.chains import _chain_event_holds, _conflicting, _first, _last
from eqcolor.hypergraph import _color_dtype, _mono_edges
from eqcolor.intervals import _balanced_colors, _weight_slots
from eqcolor.rebalance import build_rebalance_plan

from _reference import counts, package_imports


def test_choose_p_spot_values():
    assert choose_p(100, 2) == pytest.approx(0.01538995280090095, rel=1e-12)
    assert choose_p(1000, 3) == pytest.approx(0.003316740363377381, rel=1e-12)
    assert choose_p(100, 3) == pytest.approx(0.020519937067867935, rel=1e-12)


def test_choose_p_grows_with_color_count():
    # the (r-1)/r prefactor increases in r
    assert choose_p(100, 2) < choose_p(100, 3) < choose_p(100, 4)


def test_choose_p_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        choose_p(1, 2)
    with pytest.raises(ValueError):
        choose_p(100, 1)


def test_partition_boundaries_p02_r2():
    part = IntervalPartition(0.2, 2)
    # large_1 = [lefts[0], lefts[1]), small_1 = [lefts[1], lefts[2]), and
    # large_2 starts at lefts[2] and has length (1 - p) / r, ending at 1
    assert part.lefts == pytest.approx((0.0, 0.4, 0.6), abs=1e-15)
    assert part.lefts[2] + (1 - part.p) / part.r == pytest.approx(1.0, abs=1e-15)
    assert (part.lefts[1], part.lefts[2]) == pytest.approx((0.4, 0.6), abs=1e-15)
    # large_i is slot 2i-2 and small_i slot 2i-1
    assert part.slot_of(0.4) == 1  # small_1
    assert part.slot_of(0.39999) == 0  # large_1
    assert part.slot_of(0.999) == 2  # large_2
    assert part.slot_of(0.0) == 0  # large_1


def test_partition_degenerate_p_zero():
    part = IntervalPartition(0.0, 3)
    ends = [*part.lefts, 1.0]
    for slot in (0, 2, 4):  # large blocks
        assert ends[slot + 1] - ends[slot] == pytest.approx(1 / 3, abs=1e-15)
    for slot in (1, 3):  # small blocks
        assert ends[slot + 1] == ends[slot]


def test_partition_five_colors_alternates():
    part = IntervalPartition(0.1, 5)
    assert len(part.lefts) == 9  # five large blocks and four small ones
    big, small = 0.9 / 5, 0.1 / 4
    # each block starts where the previous one ends, with the length of
    # its kind, from 0 up to the last large block, which ends at 1
    for slot, (lo, hi) in enumerate(zip(part.lefts, part.lefts[1:])):
        assert hi - lo == pytest.approx(small if slot % 2 else big, abs=1e-15)
    assert part.lefts[0] == 0.0 and part.lefts[-1] + big == pytest.approx(1.0, abs=1e-12)


def test_slot_of_rejects_out_of_range():
    part = IntervalPartition(0.2, 2)
    with pytest.raises(ValueError):
        part.slot_of(1.0)
    with pytest.raises(ValueError):
        part.slot_of(-0.1)


def test_slot_of_reads_its_weight_by_the_real_rule():
    # without the real rule a text weight fails the comparison with a
    # TypeError, and False reads as 0.0
    part = IntervalPartition(0.2, 2)
    assert part.slot_of(np.float32(0.5)) == part.slot_of(0.5) and part.slot_of(0) == 0
    for bad in ("0.5", False, None):
        with pytest.raises(ValueError, match="not a real number"):
            part.slot_of(bad)


def _searchsorted_slots(partition, weights):
    """The slot lookup before comparison slots, verbatim."""
    w = np.asarray(weights, dtype=float)
    # lefts[0] = 0 <= w, so the slot is the number of later left ends <= w
    return np.searchsorted(partition.lefts[1:], w, side="right")


@pytest.mark.parametrize("r", [2, 3, 63, 64, 65, 200])
def test_comparison_slots_equal_searchsorted_and_slot_of(r):
    rng = np.random.default_rng(r)
    for p in (choose_p(8, r), 0.5, 0.9):
        part = IntervalPartition(p, r)
        lefts = np.array(part.lefts)
        # every left end exactly, its neighbours on both sides, the top
        # weight below 1, and random weights
        w = np.concatenate(
            [
                lefts,
                np.nextafter(lefts, 0.0),
                np.nextafter(lefts, 1.0),
                [np.nextafter(1.0, 0.0)],
                rng.random(3000),
            ]
        )
        slots = _weight_slots(part, w)
        # signed, wide enough for every value the kernel derives from a
        # slot (at most 2r - 1), and the smallest such dtype
        info = np.iinfo(slots.dtype)
        assert info.min <= -2 * r and info.max >= 2 * r - 1
        assert slots.dtype.itemsize == (1 if r <= 64 else 2)
        assert slots.tolist() == _searchsorted_slots(part, w).tolist()
        assert slots.tolist() == [part.slot_of(x) for x in w.tolist()]
        assert (slots[: len(lefts)] == np.arange(2 * r - 1)).all()
        grid = _weight_slots(part, w[:3000].reshape(3, 1000))
        assert grid.dtype == slots.dtype and grid.ravel().tolist() == slots[:3000].tolist()


@pytest.mark.parametrize(
    "r", [intervals._SEARCH_SLOTS_ABOVE + d for d in (-1, 0, 1)] + [200, 1000, 6400]
)
def test_searched_slots_equal_the_sum_and_slot_of(monkeypatch, r):
    # above _SEARCH_SLOTS_ABOVE colors the slots come from one searchsorted
    # instead of the comparison sum; both paths give slot_of's slot at every
    # left end and at the float below it, with p = 0 (every small block
    # empty, so each inner left end repeats) and with the derived p
    for p in (0.0, choose_p(8, r)):
        part = IntervalPartition(p, r)
        lefts = np.array(part.lefts)
        w = np.concatenate([lefts, np.nextafter(lefts[1:], 0.0), [np.nextafter(1.0, 0.0)]])
        paths = []
        for above in (r - 1, r):  # the searched path, then the sum
            monkeypatch.setattr(intervals, "_SEARCH_SLOTS_ABOVE", above)
            paths.append(_weight_slots(part, w))
            assert paths[-1].dtype == _color_dtype(r)
        assert paths[0].tolist() == paths[1].tolist()
        # slot_of reads all 2r - 2 left ends per weight: at r = 6400 every
        # 32nd weight, and the last left ends, where p = 0 repeats them
        step = 32 if r > 1000 else 1
        picked = np.r_[0 : len(w) : step, len(lefts) - 3 : len(lefts), len(w) - 3 : len(w)]
        assert paths[0][picked].tolist() == [part.slot_of(x) for x in w[picked].tolist()]


def _block_lengths(p, r):
    """The 2r - 1 block lengths in slot order, from the closed forms
    (1 - p)/r for a large block and p/(r - 1) for a small one."""
    return [(1.0 - p) / r, p / (r - 1)] * (r - 1) + [(1.0 - p) / r]


def test_block_lengths_sum_to_one_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = int(rng.integers(2, 9))
        p = float(rng.uniform(0.0, 0.999))
        part = IntervalPartition(p, r)
        assert abs(sum(_block_lengths(p, r)) - 1.0) < 1e-12
        for slot, lo, hi in _iter_bounds(part):
            if hi > lo:
                mid = (lo + hi) / 2
                assert part.slot_of(mid) == slot


def _iter_bounds(part):
    """(slot, lo, hi) per block: large_i is slot 2i-2, small_i slot 2i-1."""
    ends = [*part.lefts, 1.0]
    for slot in range(2 * part.r - 1):
        yield slot, ends[slot], ends[slot + 1]


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.99), st.integers(2, 10))
def test_partition_lengths_property(p, r):
    part = IntervalPartition(p, r)
    lengths = _block_lengths(p, r)
    assert abs(sum(lengths) - 1.0) < 1e-12
    # each block ends where the next one starts
    assert np.allclose(np.diff([*part.lefts, 1.0]), lengths, rtol=0.0, atol=1e-12)


def test_weight_assignment_order_and_ties():
    weights = np.array((0.5, 0.1, 0.5, 0.3))
    order = np.lexsort((np.arange(4), weights)).tolist()
    assert order == [1, 3, 0, 2]  # id breaks the 0.5 tie

    def first_last(vertices):
        # the chain layer's helpers take a vertex set listed in id order
        ids = np.sort(vertices)
        return _first(weights[None], ids)[0], _last(weights[None], ids)[0]

    assert first_last((0, 2, 3)) == (3, 2)
    assert first_last((2, 0)) == (0, 2)
    for k in range(1, 5):
        assert first_last(order[k - 1 :])[0] == order[k - 1]
        assert first_last(order[:k])[1] == order[k - 1]


def test_sample_weights_deterministic_and_in_range():
    a = sample_weights(50, seed=9)
    b = sample_weights(50, seed=9)
    assert a.shape == (50,) and np.array_equal(a, b)
    assert all(0.0 <= w < 1.0 for w in a)
    assert not np.array_equal(sample_weights(50, seed=10), a)
    assert sample_weights(50, seed=9, rows=3).shape == (3, 50)


def test_sample_weights_mean_band():
    weights = sample_weights(10**5, seed=3)
    mean = sum(weights) / len(weights)
    assert 0.49 < mean < 0.51


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(2, 4),
    p=st.floats(0.0, 0.99),
    tied=st.booleans(),
    trials=st.integers(1, 5),
    data=st.data(),
)
def test_a_mono_edge_starting_in_its_color_lies_in_its_large_block(r, p, tied, trials, data):
    # a monochromatic edge of color c whose first vertex lies in large_c or
    # small_c has no vertex in small_c: its last vertex, there, would have
    # been deflected.  So the chain event needs no case of its own at k = 1
    m = data.draw(st.integers(r, 12))
    n = data.draw(st.integers(2, min(m, 4)))
    vertex_sets = st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True)
    h = Hypergraph(m, n, data.draw(st.lists(vertex_sets, min_size=1, max_size=8)))
    part = IntervalPartition(p, r)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # weights on a grid of 8 values, so ties broken by id are common
    weights = rng.integers(0, 8, (trials, m)) / 8 if tied else rng.random((trials, m))
    if trials == 1:
        runs = [run_interval_coloring(h, r, part, weights[0])]
    else:
        batch = run_interval_coloring(h, r, part, weights)
        runs = [batch.row(t) for t in range(trials)]
    for init in runs:
        slots, colors = init.slots, init.coloring.colors
        for e in h.edge_array:
            c = int(colors[e[0]])
            start = slots[_first(init.weights[None], e)[0]]
            if (colors[e] == c).all() and start in (2 * c - 2, 2 * c - 1):
                assert (slots[e] == 2 * c - 2).all(), (e.tolist(), slots.tolist())


def test_two_stage_hand_trace():
    # weights: v0=0.1 (large 1), v1=0.5 (small 1), v2=0.7 (large 2),
    # v3=0.45 (small 1).  Stage 2 colors v3 first (weight order), then v1:
    # coloring v1 with 1 would finish edge {0,1}, so it deflects to 2.
    h = Hypergraph(4, 2, [(0, 1)])
    part = IntervalPartition(0.2, 2)
    init = run_interval_coloring(h, 2, part, (0.1, 0.5, 0.7, 0.45))
    assert init.coloring.colors.tolist() == [1, 2, 2, 1]
    assert counts(init) == ((1,), (3, 1))
    # vertex 1 alone was deflected, by edge 0
    assert [a.tolist() for a in init.deflected] == [[1], [0]]
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in init.deflected)


def test_two_stage_all_large_is_pure_stage_one():
    h = Hypergraph(4, 2, [(0, 1), (2, 3)])
    part = IntervalPartition(0.2, 2)
    init = run_interval_coloring(h, 2, part, (0.1, 0.2, 0.7, 0.8))
    assert init.coloring.colors.tolist() == [1, 1, 2, 2]
    assert counts(init)[0] == (0,)


def test_two_stage_mono_edge_survives():
    # both endpoints land in the first large block, nothing can deflect them
    h = Hypergraph(2, 2, [(0, 1)])
    part = IntervalPartition(0.2, 2)
    init = run_interval_coloring(h, 2, part, (0.1, 0.2))
    assert init.coloring.colors.tolist() == [1, 1]


def test_two_stage_deflection_is_unconditional():
    # v2 deflects to color 2 even though that completes {1,2} in color 2
    h = Hypergraph(3, 2, [(0, 2), (1, 2)])
    part = IntervalPartition(0.2, 2)
    init = run_interval_coloring(h, 2, part, (0.1, 0.7, 0.5))
    assert init.coloring.colors.tolist() == [1, 2, 2]
    assert init.coloring.colors[2] == 2
    assert [a.tolist() for a in init.deflected] == [[2], [0]]


def test_class_size_identity_random_runs():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(2, 25))
        n = int(rng.integers(2, min(m, 5) + 1))
        r = min(int(rng.integers(2, 4)), m)  # no more colors than vertices
        ne = int(rng.integers(0, min(math.comb(m, n), 8) + 1))
        h = _random_instance(m, n, ne, rng)
        part = IntervalPartition(choose_p(max(n, 3), r), r)
        init = run_interval_coloring(h, r, part, sample_weights(m, int(rng.integers(0, 2**32))))
        deflections, occupancy = counts(init)
        x = (0,) + deflections
        for i in range(1, r):
            assert init.coloring.sizes[i - 1] == occupancy[i - 1] - x[i] + x[i - 1]
        assert init.coloring.sizes[r - 1] == occupancy[r - 1] + x[r - 1]


def test_stage_two_colors_stay_local():
    # a small-block vertex only ever gets its own color or the next one
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = int(rng.integers(2, 20))
        r = min(int(rng.integers(2, 5)), m)  # no more colors than vertices
        h = _random_instance(m, 2, int(rng.integers(0, min(math.comb(m, 2), 10) + 1)), rng)
        part = IntervalPartition(0.3, r)
        init = run_interval_coloring(h, r, part, sample_weights(m, int(rng.integers(0, 2**32))))
        for v in range(m):
            s = part.slot_of(init.weights[v])
            i = s // 2 + 1
            if s % 2:  # small_i
                assert init.coloring.colors[v] in (i, i + 1)
            else:
                assert init.coloring.colors[v] == i


def _random_instance(m, n, ne, rng):
    edges = set()
    while len(edges) < ne:
        edges.add(tuple(sorted(rng.choice(m, size=n, replace=False).tolist())))
    return Hypergraph(m, n, sorted(edges))


def test_two_stage_determinism():
    h = _random_instance(12, 3, 6, np.random.default_rng(0))
    part = IntervalPartition(choose_p(3, 2), 2)
    weights = sample_weights(12, seed=5)
    a = run_interval_coloring(h, 2, part, weights)
    b = run_interval_coloring(h, 2, part, weights)
    assert a.coloring == b.coloring
    assert counts(a) == counts(b)


def test_weight_array_colors_each_row_as_alone():
    rng = np.random.default_rng(12)
    deflected = 0
    for m, n, ne, r in ((12, 3, 6, 2), (30, 3, 40, 3), (25, 4, 30, 4), (9, 2, 0, 2)):
        h = _random_instance(m, n, ne, rng)
        part = IntervalPartition(choose_p(n, r), r)
        weights = np.stack([sample_weights(m, seed) for seed in range(7)])
        batch = run_interval_coloring(h, r, part, weights)
        assert isinstance(batch, InitialColoringBatch) and len(batch) == len(weights)
        # the batch names the kernel's arrays, as read-only views
        assert batch.partition is part and np.shares_memory(batch.weights, weights)
        arrays = (batch.weights, batch.slots, batch.colors, *batch.deflected)
        assert not any(a.flags.writeable for a in arrays)
        for t, row in enumerate(weights):
            got = batch.row(t)
            # the record holds read-only views of the batch's arrays
            assert got.partition is part and np.array_equal(got.weights, row)
            assert np.shares_memory(got.weights, weights)
            assert np.shares_memory(got.slots, batch.slots)
            assert not (got.weights.flags.writeable or got.slots.flags.writeable)
            assert got.slots.tolist() == [part.slot_of(x) for x in row.tolist()]
            alone = run_interval_coloring(h, r, part, row)
            assert isinstance(alone, InitialColoring)
            assert got.coloring == alone.coloring and got.coloring.sizes == alone.coloring.sizes
            assert got.coloring.colors.dtype == _color_dtype(r) and not got.coloring.colors.flags.writeable
            assert np.array_equal(batch.colors[t], alone.coloring.colors)
            assert counts(got) == counts(alone)
            assert all(np.array_equal(a, b) for a, b in zip(got.deflected, alone.deflected))
            assert not any(a.flags.writeable for a in got.deflected)
            assert got.coloring.to_json_dict() == alone.coloring.to_json_dict()
            deflected += sum(counts(got)[0])
        one = run_interval_coloring(h, r, part, weights[:1])
        assert len(one) == 1 and one.row(0).coloring == batch.row(0).coloring
        empty = run_interval_coloring(h, r, part, np.empty((0, m)))
        assert len(empty) == 0 and empty.colors.shape == (0, m)
    assert deflected > 0
    # no argument is changed: the caller's array stays writable
    assert weights.flags.writeable and weights[0].flags.writeable
    with pytest.raises(ValueError, match="vertex count"):
        run_interval_coloring(h, r, part, np.zeros((2, m + 1)))
    with pytest.raises(ValueError, match="vertex count"):
        run_interval_coloring(h, r, part, np.zeros(m + 1))
    with pytest.raises(ValueError, match="array"):
        run_interval_coloring(h, r, part, weights[None])


def test_batch_row_refuses_what_it_would_misread():
    # row(-1) gave row 2's coloring and deflection counts with an empty
    # deflected pair, so it said no vertex was deflected; True
    # and 1.0 died inside numpy
    h = generate_random(1000, 6, 1200, 1)
    batch = run_interval_coloring(h, 3, IntervalPartition(0.5, 3), sample_weights(1000, 2, 3))
    last = batch.row(2)
    assert len(last.deflected[0]) == sum(counts(last)[0]) > 0
    for t in (-1, 3, True, 1.0, "1"):
        with pytest.raises(ValueError):
            batch.row(t)
    assert batch.row(np.int64(2)).coloring == last.coloring


def test_long_weight_arrays_keep_occupancy_wide():
    # B * r > 127: counts over a batch pass the int8 range of the slots
    rng = np.random.default_rng(4)
    for r, count, p in ((4, 40, choose_p(3, 4)), (64, 3, 0.5)):
        assert count * r > 127
        m = max(50, r)  # no more colors than vertices
        h = _random_instance(m, 3, 40, rng)
        part = IntervalPartition(p, r)
        weights = np.stack([sample_weights(m, seed) for seed in range(count)])
        batch = run_interval_coloring(h, r, part, weights)
        for t, row in enumerate(weights):
            got = batch.row(t)
            alone = run_interval_coloring(h, r, part, row)
            blocks = [part.slot_of(x) // 2 for x in row.tolist()]
            occupancy = tuple(blocks.count(i) for i in range(r))
            assert counts(got)[1] == counts(alone)[1] == occupancy
            assert got.coloring == alone.coloring
            assert got.coloring.colors.dtype == _color_dtype(r)


def test_slots_are_computed_once_per_batch(monkeypatch):
    # each row's record holds its row of the kernel's slots; rebalancing
    # and the chain predicates read it instead of recomputing over all m
    calls = []

    def counted(partition, weights):
        calls.append(np.shape(weights))
        return _weight_slots(partition, weights)

    monkeypatch.setattr(intervals, "_weight_slots", counted)
    h = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])
    part = IntervalPartition(0.5, 2)
    batch = run_interval_coloring(h, 2, part, np.random.default_rng(0).random((5, 6)))
    assert calls == [(5, 6)]
    for t in range(len(batch)):
        init = batch.row(t)
        assert init.slots.tolist() == [part.slot_of(x) for x in init.weights.tolist()]
        build_rebalance_plan(h, init, class_targets(6, 2), 3, p_tilde=0.5)
        trial = init.slots[None], init.weights[None], init.coloring.colors[None]
        _conflicting(*trial, *h.edge_array[[0, 1]], 2)
        _chain_event_holds(*trial, h.edge_array[[0, 1]], 2)
    assert calls == [(5, 6)]


def test_interval_coloring_rejects_weights_outside_unit_interval():
    h = Hypergraph(3, 2, [(0, 1)])
    part = IntervalPartition(0.2, 2)
    for bad in (1.0, -0.1):
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            run_interval_coloring(h, 2, part, (0.1, bad, 0.7))


def test_balanced_mono_prob_exact_values():
    assert balanced_mono_prob(4, 2, 2).exact == Fraction(1, 3)
    assert balanced_mono_prob(6, 2, 3).exact == Fraction(1, 5)
    assert balanced_mono_prob(4, 3, 2).exact == 0
    assert balanced_mono_prob(6, 2, 3).value == pytest.approx(0.2, abs=1e-15)


def test_balanced_mono_prob_requires_divisibility():
    with pytest.raises(ValueError):
        balanced_mono_prob(5, 2, 2)


def test_balanced_mono_prob_matches_enumeration():
    # tiny direct check against all balanced colorings; the wide sweep is
    # in the acceptance suite
    m, n, r = 6, 3, 2
    edge = tuple(range(n))
    mono = 0
    total = 0
    for assignment in itertools.permutations(range(m)):
        classes = [assignment[i * (m // r) : (i + 1) * (m // r)] for i in range(r)]
        total += 1
        if any(set(edge) <= set(cl) for cl in classes):
            mono += 1
    assert balanced_mono_prob(m, n, r).exact == Fraction(mono, total)


def _balanced(m, r, seed):
    """A balanced draw as the solver makes one: a permutation from the
    generator of ``seed``, colored at the class targets."""
    targets = class_targets(m, r)
    colors = _balanced_colors(np.random.default_rng(seed), 1, targets)[0]
    return Coloring._trusted(r, colors, targets)


def test_sample_balanced_sizes_and_determinism():
    c = _balanced(6, 3, seed=1)
    assert isinstance(c, Coloring) and c.sizes == [2, 2, 2]
    assert _balanced(6, 3, seed=1) == c
    # row t cuts the t-th permutation(m) of the generator: vertex perm[j]
    # takes the j-th color of 1, 1, 1, 2, 2
    colors = _balanced_colors(np.random.default_rng(3), 4, [3, 2])
    rng = np.random.default_rng(3)
    for row in colors:
        perm = rng.permutation(5)
        assert row[perm].tolist() == [1, 1, 1, 2, 2]
    assert colors.shape == (4, 5) and colors.dtype == _color_dtype(2)


def test_trusted_colorings_equal_validated_ones():
    # kernel output and balanced draws skip validation; rebuilding them
    # through the public constructor must give the same coloring and sizes
    rng = np.random.default_rng(8)
    for _ in range(40):
        m = int(rng.integers(8, 40))
        n = int(rng.integers(2, 6))
        r = int(rng.integers(2, 5))
        edges = {tuple(sorted(rng.choice(m, n, replace=False).tolist())) for _ in range(m)}
        h = Hypergraph(m, n, sorted(edges))
        part = IntervalPartition(float(rng.uniform(0.05, 0.5)), r)
        drawn = [
            run_interval_coloring(h, r, part, sample_weights(m, int(rng.integers(2**32)))).coloring,
            _balanced(m - m % r, r, int(rng.integers(2**32))),
        ]
        for c in drawn:
            again = Coloring(c.m, c.r, c.colors.tolist())
            assert c == again and c.sizes == again.sizes
            assert c.colors.dtype == _color_dtype(r) and all(type(s) is int for s in c.sizes)


def test_initial_coloring_json_is_plain():
    h = Hypergraph(4, 2, [(0, 1)])
    init = run_interval_coloring(h, 2, IntervalPartition(0.2, 2), [0.1, 0.5, 0.7, 0.45])
    obj = init.coloring.to_json_dict()
    assert json.loads(json.dumps(obj)) == obj
    for key in ("colors", "sizes"):
        assert type(obj[key]) is list and all(type(x) is int for x in obj[key])


def test_sample_balanced_hits_every_coloring():
    # all 6 balanced 2-colorings of 4 vertices show up with sane frequency
    seen = {}
    trials = 6000
    for t in range(trials):
        key = tuple(_balanced(4, 2, seed=1000 + t).colors.tolist())
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 6
    for count in seen.values():
        assert abs(count - trials / 6) < 5 * math.sqrt(trials * (1 / 6) * (5 / 6))


def test_only_run_interval_coloring_reaches_the_kernel():
    # run_interval_coloring is the one way into the two stages: no other
    # production module imports the kernel or its slot rule, or reads
    # either off the intervals module
    kernel = {"_stage_colors", "_weight_slots"}
    for path in sorted(Path(intervals.__file__).parent.glob("*.py")):
        if path.stem == "intervals":
            continue
        source = path.read_text()
        imported = {name for module, name in package_imports(source) if module == "intervals"}
        read = {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
        assert not kernel & (imported | read), path.name


@pytest.mark.parametrize("r", [2, 3, 4, 5, 129])
def test_large_block_rows_are_rows_stage_two_cannot_save(r):
    # a row is flagged iff some edge has all its vertices in one large
    # block, by slot_of, and every flagged row has a monochromatic edge
    # after both stages; r = 129 takes the searched-slot branch.  The edge
    # count puts about 1.5 such edges in a row
    for p in (choose_p(2, r), 0.9):
        part = IntervalPartition(p, r)
        edges = math.ceil(1.5 / (r * ((1.0 - p) / r) ** 2))
        h = generate_random(300, 2, edges, seed=r)
        weights = sample_weights(h.m, r, rows=100)
        flagged = intervals._large_block_rows(h, part, weights)
        slots = np.vectorize(part.slot_of, otypes=[np.int64])(weights)[:, h.edge_array]
        one_large = (slots[..., 0] == slots[..., 1]) & (slots[..., 0] % 2 == 0)
        assert np.array_equal(flagged, one_large.any(axis=1))
        assert 0 < flagged.sum() < len(flagged)
        colors = run_interval_coloring(h, r, part, weights).colors
        assert _mono_edges(h, colors)[flagged].any(axis=1).all()
