"""Instance parsing, coloring predicates, thresholds, and the brute-force oracle."""

import functools
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqcolor import (
    BudgetExceeded,
    Coloring,
    FormatError,
    Hypergraph,
    IntervalPartition,
    MonoEdgeExists,
    SolveConfig,
    balanced_mono_prob,
    brute_force_equitable,
    class_targets,
    edge_threshold,
    exact_c0_event_prob,
    generate_random,
    is_equitable,
    is_proper,
    mc_estimate,
    parse_hypergraph,
    run_interval_coloring,
    sample_weights,
    solve_equitable,
)
from eqcolor import hypergraph
from eqcolor.hypergraph import _color_dtype, _edge_values, _mono_edges

TRIANGLE = Hypergraph(3, 2, [(0, 1), (1, 2), (0, 2)])
K4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
PATH4 = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
# two triangles sharing vertex 2, plus an edge across
TRIS = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (3, 4, 5), (0, 4, 5)])


def _rows(h):
    """The rows of ``h.edge_array`` as a tuple of sorted tuples."""
    return tuple(map(tuple, h.edge_array.tolist()))


def test_parse_text_roundtrip():
    text = "4 2 3\n0 1\n1 2\n2 3\n"
    h = parse_hypergraph(text)
    assert h.m == 4 and h.n == 2
    assert _rows(h) == ((0, 1), (1, 2), (2, 3))
    assert _rows(parse_hypergraph(h.to_text())) == _rows(h)


def test_parse_skips_comments_and_blank_lines():
    text = "# instance\n3 2 1\n\n# the only edge\n2 1\n"
    h = parse_hypergraph(text)
    assert _rows(h) == ((1, 2),)


def test_parse_sorts_edge_vertices():
    h = parse_hypergraph("3 3 1\n2 0 1\n")
    assert _rows(h) == ((0, 1, 2),)


def test_parse_rejects_bad_inputs():
    with pytest.raises(FormatError):
        parse_hypergraph("banana\n")
    with pytest.raises(FormatError):
        parse_hypergraph("3 2 1\n0 1 2\n")  # arity mismatch
    with pytest.raises(FormatError):
        parse_hypergraph("3 2 1\n0 0\n")  # repeated vertex
    with pytest.raises(FormatError):
        parse_hypergraph("3 2 1\n0 5\n")  # vertex out of range
    with pytest.raises(FormatError):
        parse_hypergraph("3 2 2\n0 1\n")  # missing edge line


def test_json_roundtrip():
    h = PATH4
    obj = json.loads(json.dumps(h.to_json_dict()))
    assert obj == {"m": 4, "n": 2, "edges": [[0, 1], [1, 2], [2, 3]]}
    assert _rows(Hypergraph.from_json_dict(obj)) == _rows(h)


def test_serialization_and_equality():
    h = parse_hypergraph(TRIS.to_text())
    assert h.to_text() == "6 3 4\n0 1 2\n2 3 4\n3 4 5\n0 4 5\n"
    assert h.to_json_dict() == {"m": 6, "n": 3, "edges": [[0, 1, 2], [2, 3, 4], [3, 4, 5], [0, 4, 5]]}
    assert h == TRIS and h != K4 and h != Hypergraph(6, 3, [(0, 1, 2)])
    assert repr(h) == "Hypergraph(m=6, n=3, edges=4)"


def test_parsing_and_building_leave_the_incidence_unbuilt():
    text = "6 3 4\n0 1 2\n2 3 4\n3 4 5\n0 4 5\n"
    for h in (
        parse_hypergraph(text),
        parse_hypergraph("6 3 4\n0\t1 2\n2 3 4\n3 4 5\n0 4 5\n"),  # the line-by-line path
        Hypergraph.from_json_dict(json.loads(json.dumps(TRIS.to_json_dict()))),
        Hypergraph(6, 3, [(2, 1, 0)]),
        generate_random(12, 3, 8, seed=1),
    ):
        assert h._incidence is None


def test_incidence_lists_every_edge_once():
    h = TRIANGLE
    indptr, indices = h.incidence
    edges = _rows(h)
    for v in range(h.m):
        mine = indices[indptr[v] : indptr[v + 1]].tolist()
        assert [edges[i] for i in mine] == [e for e in edges if v in e]


def test_duplicate_edges_collapse():
    h = Hypergraph(3, 2, [(0, 1), (1, 0), (1, 2)])
    assert _rows(h) == ((0, 1), (1, 2))


def test_coloring_rejects_out_of_range():
    # colorings are total: 0 is not a color, so no vertex is unassigned
    with pytest.raises(ValueError, match="out of range 1..r"):
        Coloring(3, 2, [0, 1, 2])
    with pytest.raises(ValueError, match="out of range 1..r"):
        Coloring(3, 2, [1, 1, 3])
    with pytest.raises(FormatError, match="out of range 1..r"):
        Coloring.from_json_dict({"r": 2, "colors": [1, 0, 2]})


def test_coloring_constructor_validates_and_stores_an_array():
    with pytest.raises(ValueError):
        Coloring(3, 2, [1, 2])  # wrong length
    with pytest.raises(ValueError):
        Coloring(2, 2, [1, 2, 1])
    with pytest.raises(ValueError):
        Coloring(3, 2, [1, -1, 2])
    with pytest.raises(ValueError):
        Coloring(3, 2, [1, 2, 2**70])  # beyond int64 is still out of range
    with pytest.raises(ValueError):
        Coloring(3, 0, [0, 0, 0])
    with pytest.raises(ValueError):
        Coloring(4, 3, [0, 3, 0, 3])  # a 0, once "unassigned", is refused
    c = Coloring(4, 3, [1, 3, 1, 3])
    assert c.sizes == [2, 0, 2]
    assert isinstance(c.colors, np.ndarray) and c.colors.dtype == _color_dtype(3)
    assert c.colors.tolist() == [1, 3, 1, 3]
    assert all(type(s) is int for s in c.sizes)


def test_color_dtype_widens_with_r_and_stops_at_int64():
    assert [_color_dtype(r) for r in (1, 64, 65, 16384, 16385)] == [
        np.int8, np.int8, np.int16, np.int16, np.int32,
    ]
    # numpy's own rule gives object past int64
    assert np.min_scalar_type(-2 * 2**70) == object
    assert _color_dtype(2**62) == _color_dtype(2**70) == np.int64


def test_coloring_refuses_non_integer_colors():
    # a float or a bool is refused, not truncated to an int
    for bad in ([1.9, True], [1, 2.0], [True, 2], [np.float64(1.0), 2], [1, "2"]):
        with pytest.raises(ValueError, match="not an integer"):
            Coloring(2, 2, bad)
        with pytest.raises(FormatError, match="not an integer"):
            Coloring.from_json_dict({"r": 2, "colors": bad})
    with pytest.raises(ValueError, match="not an integer"):
        Coloring(2, 2, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="not an integer"):
        Coloring(2, 2, np.array([True, True]))
    # numpy integers of any width are colors
    for colors in (np.array([1, 2], dtype=np.int8), np.array([1, 2], dtype=np.uint64), [np.int32(1), 2]):
        assert Coloring(2, 2, colors).colors.tolist() == [1, 2]


def test_json_readers_refuse_non_integer_sizes():
    # r, m and n were once read with int(), which truncates 2.7 to 2,
    # reads true as 1 and parses "2"
    for bad in (2.7, True, "2", 2.0, None):
        with pytest.raises(FormatError, match="not an integer"):
            Coloring.from_json_dict({"r": bad, "colors": [1, 2]})
        for key in ("m", "n"):
            obj = {"m": 4, "n": 2, "edges": [[0, 1]], key: bad}
            with pytest.raises(FormatError, match="not an integer"):
                Hypergraph.from_json_dict(obj)
    # numpy integers are integers
    assert Coloring.from_json_dict({"r": np.int64(2), "colors": [1, 2]}).r == 2
    h = Hypergraph.from_json_dict({"m": np.int32(4), "n": np.uint8(2), "edges": [[0, 1]]})
    assert (h.m, h.n, _rows(h)) == (4, 2, ((0, 1),))
    assert type(h.m) is int and type(h.n) is int


def test_coloring_equality():
    c = Coloring(4, 2, [1, 2, 1, 2])
    assert c == Coloring(4, 2, np.array([1, 2, 1, 2]))
    assert c != Coloring(4, 3, [1, 2, 1, 2])  # same colors, other r
    assert c != Coloring(3, 2, [1, 2, 1])


def test_coloring_json_is_plain_lists():
    c = Coloring(3, 2, [2, 1, 2])
    obj = c.to_json_dict()
    assert obj == {"r": 2, "colors": [2, 1, 2], "sizes": [1, 2]}
    assert type(obj["colors"]) is list and all(type(x) is int for x in obj["colors"])
    assert json.loads(json.dumps(obj)) == obj


def test_coloring_json_roundtrip_checks_sizes():
    c = Coloring(4, 2, [1, 2, 1, 2])
    obj = c.to_json_dict()
    assert Coloring.from_json_dict(obj) == c
    obj["sizes"] = [4, 0]
    with pytest.raises(FormatError):
        Coloring.from_json_dict(obj)
    # sizes that are no list at all once escaped as a TypeError
    for sizes in (5, None, 2.5):
        with pytest.raises(FormatError, match="malformed coloring JSON"):
            Coloring.from_json_dict(dict(obj, sizes=sizes))


def test_coloring_json_bounds_r_by_the_vertex_count():
    # r sizes the class-size count, so an unbounded r would allocate O(r)
    with pytest.raises(FormatError):
        Coloring.from_json_dict({"r": 3, "colors": [1, 2]})
    with pytest.raises(FormatError):
        Coloring.from_json_dict({"r": 10**12, "colors": [1, 2]})
    with pytest.raises(FormatError):
        Coloring.from_json_dict({"r": 2, "colors": []})
    assert Coloring.from_json_dict({"r": 2, "colors": [1, 2]}).sizes == [1, 1]
    assert Coloring.from_json_dict({"r": 1, "colors": []}).sizes == [0]


def test_is_proper_and_equitable():
    c = Coloring(4, 2, [1, 2, 1, 2])
    assert is_proper(PATH4, c)
    assert is_equitable(PATH4, c)
    mono = Coloring(4, 2, [1, 1, 2, 2])
    assert not is_proper(PATH4, mono)
    skew = Coloring(4, 3, [1, 2, 1, 3])  # proper but sizes (2,1,1) differ by 1
    assert is_equitable(PATH4, skew)
    lopsided = Coloring(4, 4, [1, 2, 1, 2])  # proper, but sizes (2,2,0,0)
    assert is_proper(PATH4, lopsided) and not is_equitable(PATH4, lopsided)


def test_is_equitable_reads_the_sizes_before_the_edges(monkeypatch):
    from eqcolor import hypergraph

    scans = []
    mono_edges = hypergraph._mono_edges

    def counting(h, colors):
        scans.append(len(colors))
        return mono_edges(h, colors)

    monkeypatch.setattr(hypergraph, "_mono_edges", counting)
    # an unbalanced coloring is refused without an edge scan
    assert not is_equitable(PATH4, Coloring(4, 2, [1, 1, 1, 2]))
    assert scans == []
    # and every answer is the one of the scan-first order
    rng = np.random.default_rng(29)
    answers = []
    for _ in range(500):
        m, r = int(rng.integers(4, 10)), int(rng.integers(2, 4))
        h = generate_random(m, 2, int(rng.integers(0, m)), int(rng.integers(2**32)))
        c = Coloring(m, r, rng.integers(1, r + 1, m).tolist())
        expected = is_proper(h, c) and max(c.sizes) - min(c.sizes) <= 1
        assert is_equitable(h, c) == expected
        answers.append(expected)
    assert 0 < sum(answers) < len(answers)


def test_mono_edges_is_one_scan_for_single_and_batched_colorings():
    assert _mono_edges(PATH4, [1, 1, 2, 2]).tolist() == [True, False, True]
    batch = np.array([[1, 1, 2, 2], [1, 2, 1, 2], [3, 3, 3, 3]])
    assert _mono_edges(PATH4, batch).tolist() == [
        [True, False, True],
        [False, False, False],
        [True, True, True],
    ]
    assert PATH4.edge_array.dtype == np.int32 and PATH4.edge_array.shape == (3, 2)


def test_mono_edges_on_edgeless_hypergraph():
    h = Hypergraph(4, 3, [])
    assert h.edge_array.shape == (0, 3)
    assert _mono_edges(h, [1, 1, 1, 1]).shape == (0,)
    assert _mono_edges(h, np.ones((5, 4), dtype=np.int64)).shape == (5, 0)
    assert is_proper(h, Coloring(4, 2, [1, 1, 1, 1]))


def _edge_values_reference(h, values):
    # fancy indexing on the row-major array, moved to the (n, |E|, T) layout
    if values.ndim == 1:
        return values[h.edge_array.T]
    return np.moveaxis(values[:, h.edge_array.T], 0, -1)


@pytest.mark.parametrize("trials", [1, 2, 9, 64, 300])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
def test_edge_values_matches_fancy_indexing(trials, dtype):
    rng = np.random.default_rng(trials)
    h = generate_random(40, 4, 70, seed=trials)
    values = rng.integers(0, 3, size=(trials, h.m)).astype(dtype)
    # a (T, m) slice of a wider array, as a Monte Carlo sub-batch's weights
    # are cut from its rows of weights and keep draws
    wide = np.concatenate([values, values[:, ::-1]], axis=1)
    frozen = values.copy()
    frozen.flags.writeable = False
    for batch in (values, frozen, wide[:, : h.m]):
        assert batch.shape == (trials, h.m)
        got = _edge_values(h, batch)
        assert got.shape == (h.n, len(h.edge_array), trials) and got.dtype == dtype
        assert np.array_equal(got, _edge_values_reference(h, batch))
        for row in (batch[0], frozen[-1]):
            got = _edge_values(h, row)
            assert got.shape == (h.n, len(h.edge_array)) and got.dtype == dtype
            assert np.array_equal(got, _edge_values_reference(h, row))


def test_edge_values_on_edgeless_hypergraph():
    h = Hypergraph(4, 3, [])
    assert _edge_values(h, np.arange(4)).shape == (3, 0)
    assert _edge_values(h, np.ones((5, 4), dtype=np.int8)).shape == (3, 0, 5)
    for values in (np.arange(4), np.ones((5, 4), dtype=np.int8)):
        assert np.array_equal(_edge_values(h, values), _edge_values_reference(h, values))


def test_every_production_edge_gather_goes_through_edge_values(monkeypatch):
    # each module that gathers edge values is counted apart: the kernel in
    # intervals, the mono-edge screen in hypergraph, the rebalance scan
    from eqcolor import hypergraph, intervals, rebalance, solver

    calls = []
    for module in (hypergraph, intervals, rebalance):

        def counted(h, values, _name=module.__name__):
            calls.append((_name, np.asarray(values).dtype))
            return _edge_values(h, values)

        monkeypatch.setattr(module, "_edge_values", counted)
    h = generate_random(1000, 6, 1200, seed=1)
    partition = intervals.IntervalPartition(intervals.choose_p(h.n, 3), 3)
    cfg = solver.SolveConfig(seed=0, max_restarts=5)
    sizes = []
    for _, mono, colors, batch in solver._batches(h, class_targets(h.m, 3), partition, cfg):
        sizes.append(len(batch))
        assert mono.shape == (len(batch), len(h.edge_array))
        # one gather in the kernel, one in the screen, both on the narrow colors
        assert calls == [("eqcolor.intervals", np.int8), ("eqcolor.hypergraph", np.int8)]
        # the screen's mask is the one the int64 colors of the rows give
        rows = np.stack([batch.row(t).coloring.colors for t in range(len(batch))])
        assert np.array_equal(rows, colors)
        assert np.array_equal(mono, _mono_edges(h, rows.astype(np.int64)))
        calls.clear()
    assert sizes == [1, 4]
    rebalance.build_rebalance_plan(h, batch.row(0), class_targets(h.m, 3), seed=0)
    # one gather of the per-vertex state, in int8
    assert calls == [("eqcolor.rebalance", np.int8)]


def test_class_targets_split():
    assert class_targets(6, 3) == [2, 2, 2]
    assert class_targets(7, 3) == [3, 2, 2]
    assert class_targets(5, 2) == [3, 2]
    assert class_targets(3, 3) == [1, 1, 1]
    # more colors than vertices would leave a class empty
    with pytest.raises(ValueError, match="exceeds the 3 vertices"):
        class_targets(3, 5)


def _partition_for(r, m):
    # a partition for r when r is allowed, else one for 2 colors: the r
    # check comes first, so the call never reads it
    return IntervalPartition(0.3, r if 2 <= r <= m else 2)


# every library entry point that takes r, called on an instance h with r
# colors; one rule bounds r for all of them
_R_ENTRY_POINTS = {
    "solve_equitable": lambda h, r: solve_equitable(h, r, SolveConfig(max_restarts=5)),
    "mc_estimate": lambda h, r: mc_estimate("mono-edge", h, r, trials=20),
    "mc_estimate-balanced": lambda h, r: mc_estimate("balanced-mono", h, r, trials=20),
    "exact_c0_event_prob": lambda h, r: exact_c0_event_prob(h, r, MonoEdgeExists()),
    "brute_force_equitable": brute_force_equitable,
    "balanced_mono_prob": lambda h, r: balanced_mono_prob(h.m, h.n, r),
    "run_interval_coloring": lambda h, r: run_interval_coloring(
        h, r, _partition_for(r, h.m), sample_weights(h.m, 0)
    ),
    "class_targets": lambda h, r: class_targets(h.m, r),
    "Coloring": lambda h, r: Coloring(h.m, r, [1] * h.m),
    "Coloring.from_json_dict": lambda h, r: Coloring.from_json_dict({"r": r, "colors": [1] * h.m}),
}


@pytest.mark.parametrize("name", sorted(_R_ENTRY_POINTS))
def test_more_colors_than_vertices_are_refused_everywhere(name):
    # r = m + 1 leaves a class empty; the coloring reader and the two r | m
    # checks refused it before, and every other call returned
    h = Hypergraph(2, 2, [(0, 1)])
    with pytest.raises(ValueError, match="r = 3 exceeds the 2 vertices"):
        _R_ENTRY_POINTS[name](h, 3)
    _R_ENTRY_POINTS[name](h, 2)


@pytest.mark.parametrize("name", sorted(_R_ENTRY_POINTS))
@settings(max_examples=40, deadline=None)
@given(r=st.integers(-(2**70), 2**70))
@example(r=3)
@example(r=4)
@example(r=2**70)
def test_any_integer_r_gives_a_documented_error_in_bounded_memory(name, r):
    # r is checked before anything is sized by it: a huge r once built
    # O(r) lists or overflowed int64
    h = Hypergraph(3, 2, [(0, 1)])
    # numpy imports its random module (about 1 MB) on first use: not the call's
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        _R_ENTRY_POINTS[name](h, r)
    except (ValueError, BudgetExceeded):  # FormatError is a ValueError
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 2**20


def test_generate_random_is_deterministic_and_valid():
    a = generate_random(10, 3, 7, seed=42)
    b = generate_random(10, 3, 7, seed=42)
    assert _rows(a) == _rows(b)
    assert len(_rows(a)) == 7 and a.n == 3
    assert len(set(_rows(a))) == 7
    c = generate_random(10, 3, 7, seed=43)
    assert _rows(c) != _rows(a)


def test_generate_random_rejects_impossible_count():
    with pytest.raises(ValueError):
        generate_random(4, 2, math.comb(4, 2) + 1, seed=0)


def test_generate_random_rejects_negative_count():
    with pytest.raises(ValueError, match="num_edges must be at least 0, got -1"):
        generate_random(5, 2, -1, seed=0)


def _no_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no random draw may happen before the limit check")

    monkeypatch.setattr(np.random, "default_rng", refuse)


def test_generate_random_bounds_the_rejection_draw(monkeypatch):
    # above 200000 possible edges, edges are drawn until distinct: allowed
    # for at most half of them, checked before any draw
    assert math.comb(60, 4) // 2 == 243817
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"num_edges = 243818 exceeds C\(60, 4\) // 2 = 243817"):
        generate_random(60, 4, 243818, seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        generate_random(10**6, 3, 10**17, seed=0)


def test_generate_random_outputs_below_the_bound_are_unchanged():
    # frozen before the bound existed: the draw branch and the pool branch,
    # which still takes every possible edge
    assert _rows(generate_random(60, 4, 5, seed=3)) == (
        (2, 5, 19, 33),
        (4, 10, 14, 46),
        (9, 15, 40, 44),
        (9, 42, 44, 57),
        (22, 25, 30, 51),
    )
    assert _rows(generate_random(6, 3, 20, seed=0)) == tuple(itertools.combinations(range(6), 3))


def test_edge_threshold_spot_values():
    t = edge_threshold(100, 2)
    assert t.value == pytest.approx(2.9535663302651655e28, rel=1e-9)
    assert t.log_value == pytest.approx(math.log(2.9535663302651655e28), rel=1e-9)
    assert not t.asymptotic_regime  # needs r < (ln n)^(1/5), false at n=100
    small = edge_threshold(4, 2)
    assert small.value == pytest.approx(0.13589148804608305, rel=1e-9)


def test_edge_threshold_regime_flag_turns_on_for_huge_n():
    # (ln n)^(1/5) crosses 2 near n = e^32
    assert edge_threshold(10**14, 2).asymptotic_regime
    assert not edge_threshold(10**13, 2).asymptotic_regime


def test_brute_force_finds_equitable_on_path():
    c = brute_force_equitable(PATH4, 2)
    assert c is not None
    assert is_equitable(PATH4, c)


def test_brute_force_reports_none_on_k4():
    # any (2,2) split of K4 leaves one edge inside each class
    assert brute_force_equitable(K4, 2) is None


def test_brute_force_answers_one_color_directly():
    # one class holds every vertex, so only an edgeless instance is
    # feasible; m = 1200 is far past the search's recursion depth
    c = brute_force_equitable(Hypergraph(1200, 2, []), 1)
    assert c is not None and c.sizes == [1200] and is_equitable(Hypergraph(1200, 2, []), c)
    assert brute_force_equitable(Hypergraph(1200, 2, [(0, 1199)]), 1) is None
    assert brute_force_equitable(K4, 1) is None


def test_brute_force_respects_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_equitable(K4, 2, budget=3)


def test_power_check_agrees_with_the_power():
    # the budget check of brute_force_equitable and of the solver's oracle
    # verdict; it must never build r^m itself, which for m near 2^31 takes
    # hours (the CLI test runs that case under a timeout)
    from eqcolor.hypergraph import _power_exceeds

    for r in range(1, 6):
        for m in range(40):
            for budget in (0, 1, 2, 7, 10.5, 1e6, 10**6, 3**20 - 1, 3**20, 2**39):
                assert _power_exceeds(r, m, budget) == (r**m > budget), (r, m, budget)
    assert _power_exceeds(3, 2**31, 10**8) and _power_exceeds(2, 2**31, 2**100)
    assert not _power_exceeds(1, 2**31, 1) and _power_exceeds(1, 2**31, 0)


def test_brute_force_matches_definition_exhaustively():
    # cross-check the oracle against a direct scan over all total colorings
    h = Hypergraph(4, 2, [(0, 1), (1, 2)])
    found = brute_force_equitable(h, 2)
    direct = [
        cols
        for cols in _all_colorings(4, 2)
        if is_equitable(h, Coloring(4, 2, cols))
    ]
    assert (found is not None) == bool(direct)
    assert found is not None and is_equitable(h, found)


def _all_colorings(m, r):
    out = [[]]
    for _ in range(m):
        out = [cols + [c] for cols in out for c in range(1, r + 1)]
    return out


@functools.lru_cache(maxsize=None)
def _balanced_colorings(m, r):
    """The balanced rows among all r^m total colorings."""
    grid = np.indices((r,) * m).reshape(m, -1).T + 1
    sizes = np.stack([(grid == c).sum(axis=1) for c in range(1, r + 1)], axis=1)
    return grid[sizes.max(axis=1) - sizes.min(axis=1) <= 1]


def _equitable_exists(h, r):
    """Direct scan of all r^m colorings for an equitable proper one."""
    edge_colors = _balanced_colorings(h.m, r)[:, h.edge_array]
    return not (edge_colors == edge_colors[:, :, :1]).all(axis=2).any(axis=1).all()


def _check_brute_force(h, r, exists):
    if r > h.m:
        # a class would stay empty: the rule on r refuses it
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_equitable(h, r)
        return
    found = brute_force_equitable(h, r)
    assert (found is not None) == exists, (_rows(h), r)
    assert found is None or is_equitable(h, found), (_rows(h), r)


def test_brute_force_matches_direct_scan_on_every_graph_up_to_m5():
    # every 2-uniform edge set on m <= 5 vertices, r in {2, 3}; m = 4 at
    # r = 2 and m = 3 at r = 3 make every target equal, so the search
    # opens only the lowest untouched class
    checked = infeasible = 0
    for m in range(1, 6):
        pool = list(itertools.combinations(range(m), 2))
        for r in (2, 3):
            grid = _balanced_colorings(m, r)
            ends = np.array(pool, dtype=np.int64).reshape(len(pool), 2)
            mono = grid[:, ends[:, 0]] == grid[:, ends[:, 1]]
            for bits in range(2 ** len(pool)):
                chosen = [k for k in range(len(pool)) if bits >> k & 1]
                exists = not mono[:, chosen].any(axis=1).all()
                _check_brute_force(Hypergraph(m, 2, [pool[k] for k in chosen]), r, exists)
                checked += 1
                infeasible += not exists
    assert checked == 2 * (1 + 2 + 8 + 64 + 1024) and infeasible > 500


def test_brute_force_matches_direct_scan_when_r_divides_m():
    # classes of equal target only: the symmetry rule prunes the most here
    rng = np.random.default_rng(41)
    feasible = infeasible = 0
    for m, n, r in ((6, 2, 2), (6, 2, 3), (6, 3, 2), (6, 3, 3), (8, 3, 2), (8, 3, 4), (9, 3, 3)):
        pool = list(itertools.combinations(range(m), n))
        for _ in range(25):
            ne = int(rng.integers(0, min(len(pool), 3 * m) + 1))
            h = Hypergraph(m, n, [pool[k] for k in rng.choice(len(pool), ne, replace=False)])
            exists = _equitable_exists(h, r)
            _check_brute_force(h, r, exists)
            feasible += exists
            infeasible += not exists
    assert feasible > 50 and infeasible > 25


@pytest.mark.parametrize("n, r", [(3, 2), (2, 3)])
@pytest.mark.parametrize("where", ["first", "last"])
def test_brute_force_finds_no_coloring_around_a_planted_clique(n, r, where):
    # a complete n-uniform hypergraph on (n - 1) r + 1 vertices puts n of
    # them in one class under any r-coloring, wherever its ids sit
    m = 12 if r == 2 else 9
    k = (n - 1) * r + 1
    clique = range(k) if where == "first" else range(m - k, m)
    rest = [v for v in range(m) if v not in clique]
    rng = np.random.default_rng(7 + r)
    for _ in range(3):
        others = [tuple(sorted(rng.choice(rest, n, replace=False).tolist())) for _ in range(4)]
        h = Hypergraph(m, n, list(itertools.combinations(clique, n)) + others)
        assert not _equitable_exists(h, r)
        _check_brute_force(h, r, False)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.data())
def test_text_and_json_roundtrips_agree(m, data):
    n = data.draw(st.integers(2, m))
    max_edges = min(math.comb(m, n), 6)
    ne = data.draw(st.integers(0, max_edges))
    h = generate_random(m, n, ne, seed=data.draw(st.integers(0, 10**6)))
    assert _rows(parse_hypergraph(h.to_text())) == _rows(h)
    assert _rows(Hypergraph.from_json_dict(json.loads(json.dumps(h.to_json_dict())))) == _rows(h)


# ---------------------------------------------------------------------------
# array-built constructor against the per-edge constructor it replaced


def _reference_integer(value, what):
    """The integer rule, one value at a time: a Python or numpy integer, and
    not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise FormatError(f"{what} {value!r} is not an integer")
    return int(value)


class _ReferenceHypergraph:
    """The per-edge ``Hypergraph.__init__`` that preceded the array build,
    copied (annotations aside) as the reference for the differential tests,
    with ``_reference_integer`` in place of ``int()`` for m, n and every
    vertex id and m's lower bound worded as ``_integer`` words it; its
    incidence index is built when first read, so m may be 2^31, as the CSR
    pair (indptr, indices) of plain lists."""

    def __init__(self, m, n, edges):
        m, n = _reference_integer(m, "vertex count"), _reference_integer(n, "edge size")
        if m <= 0:
            raise FormatError(f"vertex count must be at least 1, got {m}")
        if n < 2:
            raise FormatError(f"edge size must be at least 2, got {n}")
        self.m = m
        self.n = n
        seen = set()
        stored = []
        for e in edges:
            t = tuple(sorted(_reference_integer(v, "vertex id") for v in e))
            if len(t) != n:
                raise FormatError(f"edge {t} has {len(t)} vertices, expected {n}")
            if any(t[i] == t[i + 1] for i in range(len(t) - 1)):
                raise FormatError(f"edge {t} repeats a vertex")
            if t[0] < 0 or t[-1] >= m:
                raise FormatError(f"edge {t} has a vertex outside 0..{m - 1}")
            if t not in seen:
                seen.add(t)
                stored.append(t)
        self.edges = tuple(stored)
        flat = np.fromiter(itertools.chain.from_iterable(self.edges), np.int32, len(self.edges) * n)
        self.edge_array = flat.reshape(len(self.edges), n)

    @property
    def incidence(self):
        incidence = [[] for _ in range(self.m)]
        for idx, t in enumerate(self.edges):
            for v in t:
                incidence[v].append(idx)
        indptr = [0, *itertools.accumulate(map(len, incidence))]
        return indptr, list(itertools.chain.from_iterable(incidence))


def _reference_echo(value):
    """The quoting rule of error messages: repr(value), cut to its first 200
    characters and marked with its length when longer."""
    text = repr(value)
    return text if len(text) <= 200 else f"{text[:200]}... ({len(text)} characters)"


def _reference_parse(text):
    """The per-line ``parse_hypergraph`` that preceded the array parse, with
    lines quoted by ``_reference_echo``."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    content = [ln.strip() for ln in text.splitlines()]
    content = [ln for ln in content if ln and not ln.startswith("#")]
    if not content:
        raise FormatError("empty instance: no header line")
    header = content[0].split()
    if len(header) != 3:
        raise FormatError(f"malformed header {_reference_echo(content[0])}, expected 'm n E'")
    try:
        m, n, num_edges = (int(x) for x in header)
    except ValueError as exc:
        raise FormatError(f"malformed header {_reference_echo(content[0])}: {exc}") from exc
    body = content[1:]
    if len(body) != num_edges:
        raise FormatError(f"header promises {num_edges} edges, found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        try:
            edges.append([int(x) for x in parts])
        except ValueError as exc:
            raise FormatError(f"malformed edge line {_reference_echo(ln)}: {exc}") from exc
    return _ReferenceHypergraph(m, n, edges)


def _outcome(build, *args):
    """What a build gives: its edges, edge array and incidence, or the type
    and message of the exception it raises.  The incidence index takes O(m)
    memory, so it is left out above 10^4 vertices."""
    try:
        h = build(*args)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    assert h.edge_array.dtype == np.int32 and h.edge_array.shape == (len(_rows(h)), h.n)
    return _rows(h), h.edge_array.tolist(), _csr_lists(h) if h.m <= 10**4 else None


def _csr_lists(h):
    """The (indptr, indices) incidence pair as two plain lists."""
    return tuple(np.asarray(a).tolist() for a in h.incidence)


def _assert_same_as_reference(text):
    assert _outcome(parse_hypergraph, text) == _outcome(_reference_parse, text), text


BEYOND_INT64 = "99999999999999999999"

DIFFERENTIAL_TEXTS = [
    # comments, blank lines, CRLF and tab separators
    "# instance\r\n4 2 3\r\n0\t1\r\n\r\n# an edge\r\n  2 1 \r\n2\t \t3\n",
    "4 2 0\n",
    "4 2 0\n# trailing comment\n\n",
    # duplicate and permuted edges
    "5 3 5\n2 1 0\n0 1 2\n4 3 2\n1 2 0\n2 3 4\n",
    # arity mismatch, each way, and a long line before a short one
    "4 2 2\n0 1\n1 2 3\n",
    "4 3 2\n0 1 2\n1 2\n",
    "4 2 2\n0 1 2\n3\n",
    # repeated vertex
    "4 2 2\n0 1\n2 2\n",
    # ids of -1 and m
    "4 2 2\n0 1\n-1 2\n",
    "4 2 2\n0 1\n0 4\n",
    # tokens that int() rejects
    "4 2 1\n3.0 1\n",
    "4 2 1\n0x1 2\n",
    "4 2 1\n0 a\n",
    "4 2 1\n1__0 2\n",
    # tokens that int() accepts
    "11 2 2\n+3 1_0\n-0 7\n",
    "11 2 1\n\u0663 1\n",
    # ids at the int64 ends and beyond, which numpy's reader clamps
    "4 2 1\n0 9223372036854775807\n",
    "4 2 1\n0 -9223372036854775808\n",
    "4 2 1\n0 18446744073709551617\n",
    "4 2 1\n0 1234567890123456789012345678901234567890\n",
    # the largest id at the largest m
    "2147483648 2 1\n2147483647 0\n",
    # lone signs: numpy's reader reads one at the end of the body as 0 and
    # joins one elsewhere to the id after it
    "4 2 2\n0 1\n2 -\n",
    "4 2 1\n1 +\n",
    "4 2 2\n- 1\n2 3\n",
    # a tab beside single spaces: a long line with n - 1 spaces, a short one
    # with n - 1 spaces, and a doubled space or a tab on a short line beside
    # a long one, which together keep E * n ids
    "4 2 2\n0 1\n1\t2 3\n",
    "4 3 1\n0 \t 1\n",
    "9 3 2\n0  1\n0\t1 2 3\n",
    "9 3 2\n0 \t 1\n2\t3 4 5\n",
    # a doubled space alone: n - 1 spaces but too few ids
    "4 3 1\n0  1\n",
    "4 3 2\n0 1 2\n0  1\n",
    # ids beyond int64, alone and behind earlier faults
    f"4 2 1\n0 {BEYOND_INT64}\n",
    f"4 2 1\n0 -{BEYOND_INT64}\n",
    f"4 2 2\n1 1\n0 {BEYOND_INT64}\n",
    f"4 2 2\n0 {BEYOND_INT64}\n1 1\n",
    f"4 2 2\n0 {BEYOND_INT64}\n1 x\n",
    f"4 2 2\n0 1 2\n0 {BEYOND_INT64}\n",
    # a malformed token is named before any edge check, even a later one
    "4 2 2\n0 0\n1 x\n",
    "4 2 2\n0 1 2\n1 x\n",
    # header faults
    "",
    "# only a comment\n",
    "banana\n",
    "4 2\n",
    "4 two 1\n0 1\n",
    "4 2 2\n0 1\n",
    "0 2 0\n",
    "0 2 1\n0 x\n",
    "-3 2 1\n0 1\n",
    "3 1 1\n0\n",
    "3 0 0\n",
    "3 -1 0\n",
    "3 -1 1\n0 1\n",
    # the edges of a body read unsplit: no final line break, one blank line
    # more at the end, a space at the end of the last line and at the start
    # of the first body line (where it makes the n - 1 spaces of a short
    # line), and leading zeros
    "4 2 2\n0 1\n2 3",
    "4 2 2\n0 1\n2 3\n\n",
    "4 2 2\n0 1\n2 3 \n",
    "4 2 2\n 0 1\n2 3\n",
    "4 3 1\n 0 1\n",
    "9 2 2\n007 1\n0 010\n",
    # and of its header: a doubled space, a sign, a comment before it, no
    # edges without a final line break ("4 2 0\n" is above), one edge more
    # promised
    "4  2 1\n0 1\n",
    "+4 2 1\n0 1\n",
    "# header next\n4 2 1\n0 1\n",
    "4 2 0",
    "4 2 3\n0 1\n2 3\n",
    # a token with 5000 leading zeros, and a 5000-digit one under a header
    # m beyond 2^31: int()'s digit limit refuses both, whatever separates
    # the ids; and a leading zero int() reads
    *(
        pytest.param(f"{head}\n{token}{sep}2\n", id=f"{label}, {name}")
        for head, token, label in (
            ("4 2 1", "0" * 5000 + "1", "5000 leading zeros"),
            (f"{10**30} 2 1", "5" * 5000, "5000 digits, m = 10^30"),
        )
        for sep, name in ((" ", "space"), ("\t", "tab"))
    ),
    "8 2 1\n007 2\n",
]


@pytest.mark.parametrize("text", DIFFERENTIAL_TEXTS)
def test_parse_matches_the_per_edge_reference(text):
    _assert_same_as_reference(text)


@pytest.mark.parametrize("text", DIFFERENTIAL_TEXTS)
def test_parse_raises_no_warning(text):
    # numpy 1.24's reader warns on text it cannot read; it is never given any
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_as_reference(text)


def test_parse_matches_the_reference_on_bytes():
    _assert_same_as_reference(b"4 2 2\r\n0 1\r\n3 2\r\n")
    _assert_same_as_reference(b"4 2 1\n0 \xff\n")


def test_each_text_takes_the_path_its_form_allows(monkeypatch):
    calls = []
    c_read, edge_line = hypergraph._c_read, hypergraph._edge_line
    monkeypatch.setattr(hypergraph, "_c_read", lambda body, *a: calls.append(body) or c_read(body, *a))
    monkeypatch.setattr(hypergraph, "_edge_line", lambda ln: calls.append(ln) or edge_line(ln))
    h = generate_random(2000, 6, 1200, seed=1)
    text = h.to_text()
    body = text.encode().partition(b"\n")[2]
    # the form to_text writes: one read of the unsplit body
    assert parse_hypergraph(text) == h and calls == [body]
    # a leading comment or CRLF line breaks: one read, of the joined lines
    for other in ("# an instance\n" + text, text.replace("\n", "\r\n")):
        calls.clear()
        assert parse_hypergraph(other) == h and calls == [body]
    # tabs: the joined lines are refused and each line read on its own
    calls.clear()
    assert parse_hypergraph(text.replace(" ", "\t")) == h
    assert calls[0] == body.replace(b" ", b"\t") and calls[1:] == body.decode().replace(" ", "\t").splitlines()


def test_the_unsplit_reader_refuses_leading_zeros_and_ids_past_int32():
    # a lone 0 is read; a longer token that starts with 0 goes to the line
    # path, and so does an id of 2^31 or more at any m
    assert hypergraph._c_read(b"0 10\n0 1\n", 11, 2, 2).tolist() == [[0, 10], [0, 1]]
    for body in (b"00 1\n", b"0 01\n", b"1 2\n3 007\n", b"0 2147483648\n"):
        assert hypergraph._c_read(body, 10**30, 2, body.count(b"\n")) is None
    assert hypergraph._c_read(b"0 2147483647\n", 10**30, 2, 1).tolist() == [[0, 2**31 - 1]]


def test_id_beyond_int64_is_out_of_range_not_an_overflow():
    with pytest.raises(FormatError, match=r"has a vertex outside 0\.\.3"):
        parse_hypergraph(f"4 2 1\n0 {BEYOND_INT64}\n")
    with pytest.raises(FormatError, match="outside"):
        Hypergraph(4, 2, [(0, 2**64)])


def test_parse_matches_the_reference_on_seeded_instances():
    rng = np.random.default_rng(8)
    for _ in range(60):
        m = int(rng.integers(2, 40))
        n = int(rng.integers(2, min(m, 6) + 1))
        rows = [rng.permutation(m)[:n].tolist() for _ in range(int(rng.integers(0, 30)))]
        rows += [rows[int(i)][::-1] for i in rng.integers(0, len(rows), size=3)] if rows else []
        lines = [" ".join(map(str, row)) for row in rows]
        text = f"{m} {n} {len(lines)}\n" + "\n".join(lines) + "\n"
        _assert_same_as_reference(text)
        _assert_same_as_reference(text.replace("\n", "\r\n").replace(" ", "\t"))


_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["3.0", "0x1", "a", "+3", "1_0", BEYOND_INT64, "-" + BEYOND_INT64, "-0"]),
    st.sampled_from(
        [
            "9223372036854775807",
            "-9223372036854775808",
            "18446744073709551617",
            "1234567890123456789012345678901234567890",
            "2147483647",
            "-",
            "+",
        ]
    ),
)
_SEPS = st.sampled_from([" ", " ", "\t", " \t ", "  "])


def _joined(pairs) -> str:
    """One line of tokens, each after the first behind its own separator, so
    tabs and doubled spaces sit beside single spaces on the same line."""
    return pairs[0][1] + "".join(sep + token for sep, token in pairs[1:])


_LINES = st.one_of(
    st.lists(st.tuples(_SEPS, _TOKENS), min_size=1, max_size=4).map(_joined),
    st.just("# comment"),
    st.just(""),
)


@settings(max_examples=300, deadline=None)
@given(
    m=st.one_of(st.integers(-1, 9), st.just(2**31)),
    n=st.integers(0, 4),
    lines=st.lists(_LINES, max_size=8),
    promise_delta=st.sampled_from([0, 0, 0, 1, -1]),
    eol=st.sampled_from(["\n", "\r\n"]),
)
def test_parse_matches_the_reference_on_generated_texts(m, n, lines, promise_delta, eol):
    edges = sum(1 for ln in lines if ln and ln[0] != "#")
    text = eol.join([f"{m} {n} {edges + promise_delta}"] + lines) + eol
    _assert_same_as_reference(text)


@st.composite
def _spaced_lines(draw, n: int) -> list[str]:
    """Lines of valid ids, each with the n - 1 spaces that the C reader's
    line check counts but with any number of ids: a space-tab-space gap
    holds two spaces and a tab gap none."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        wide = draw(st.integers(0, (n - 1) // 2))
        gaps = [" \t "] * wide + [" "] * (n - 1 - 2 * wide) + ["\t"] * draw(st.integers(0, 2))
        gaps = draw(st.permutations(gaps))
        size = len(gaps) + 1
        ids = draw(st.lists(st.integers(0, 9).map(str), min_size=size, max_size=size))
        lines.append(_joined(list(zip([""] + gaps, ids))))
    return lines


@settings(max_examples=300, deadline=None)
@given(data=st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), _spaced_lines(n))))
def test_parse_matches_the_reference_on_lines_of_n_minus_1_spaces(data):
    # a short line beside a long one must not be read as rows shifted
    # across the line break
    n, lines = data
    text = "\n".join([f"10 {n} {len(lines)}"] + lines) + "\n"
    _assert_same_as_reference(text)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 9),
    n=st.integers(2, 4),
    edges=st.lists(st.lists(st.integers(-1, 9), min_size=1, max_size=5), max_size=8),
)
def test_constructor_matches_the_reference_on_lists(m, n, edges):
    assert _outcome(Hypergraph, m, n, edges) == _outcome(_ReferenceHypergraph, m, n, edges)
    as_tuples = [tuple(e) for e in edges]
    assert _outcome(Hypergraph, m, n, as_tuples) == _outcome(_ReferenceHypergraph, m, n, as_tuples)


_POOL = [(0, 1, 2), (2, 1, 3), (3, 4, 0)]


@settings(max_examples=200, deadline=None)
@given(picks=st.lists(st.integers(0, 2), max_size=12))
def test_constructor_matches_the_reference_on_edges_from_a_pool_of_three(picks):
    # nearly every list holds duplicates, which the row hashes send to the
    # exact dedup
    edges = [_POOL[k] for k in picks]
    assert _outcome(Hypergraph, 5, 3, edges) == _outcome(_ReferenceHypergraph, 5, 3, edges)


def _stored(h):
    a = h.edge_array
    return a.tobytes(order="A"), a.dtype, a.flags.f_contiguous, a.shape


@pytest.mark.parametrize("multipliers", ["zero", "first column"])
def test_dedup_is_the_same_whether_row_hashes_collide_or_not(monkeypatch, multipliers):
    # zero multipliers make every row hash collide and first-column ones
    # some: the exact dedup then runs on distinct rows too, and must store
    # the array that skipping it stores, and duplicates in first-seen order
    rng = np.random.default_rng(5)
    distinct = generate_random(40, 4, 300, seed=3).edge_array
    duplicated = np.concatenate([distinct, distinct[rng.integers(0, 300, 50), ::-1]])
    rng.shuffle(duplicated)
    unpatched = [_stored(Hypergraph(40, 4, rows)) for rows in (distinct, duplicated)]
    weights = np.array([multipliers == "first column", 0, 0, 0], dtype=np.uint64)
    monkeypatch.setattr(hypergraph, "_row_multipliers", lambda n: weights)
    for rows, stored in zip((distinct, duplicated), unpatched):
        h = Hypergraph(40, 4, rows)
        assert _stored(h) == stored and stored[1:3] == (np.int32, True)
        assert h.edge_array.tolist() == _ReferenceHypergraph(40, 4, rows.tolist()).edge_array.tolist()


@pytest.mark.parametrize(
    "edges",
    [
        [[0, "1"], (2.7, 1)],  # a string and a float are not integers
        ["01", {2: "x", 3: "y"}],  # any sized iterable is an edge
        [[0, None]],
        [[0, 0], [None, 1]],  # the earlier edge's fault wins
        [[0, 1], 5],
        [[0, 0], 5],
        [[0, 1], [2]],
        np.array([[1, 0], [2, 3], [0, 1]], dtype=np.int32),
        np.array([[1, 0], [2, 3]], dtype=np.uint8),
        np.array([[1.9, 0.2], [2, 3]]),
        np.array([[0, 2**63 + 5]], dtype=np.uint64),
        np.array([[0, 1, 2]]),
        np.empty((0, 5), dtype=np.int64),
        np.array([[0, 1], [2, 3]], dtype=object),
        # the integer rule: floats and bools are refused, numpy integers and
        # a uint64 array taken
        [[0, 1], (2.7, 1)],
        [[0, 1], [True, 2]],
        [[0, np.int64(1)], (np.uint8(2), 3)],
        np.array([[1.0, 0.0], [2, 3]]),
        np.array([[True, False]]),
        np.array([[1, 0], [2, 3]], dtype=np.uint64),
    ],
)
def test_constructor_matches_the_reference_on_odd_inputs(edges):
    assert _outcome(Hypergraph, 4, 2, edges) == _outcome(_ReferenceHypergraph, 4, 2, edges)


def test_json_faults_match_the_reference():
    # edges that are not sequences fail as in the reference; a vertex id
    # that is not an integer is refused by name, as the reference does
    for edges in ([5], None):
        with pytest.raises(FormatError) as new:
            Hypergraph.from_json_dict({"m": 4, "n": 2, "edges": edges})
        with pytest.raises(TypeError) as ref:
            _ReferenceHypergraph(4, 2, edges)
        assert str(new.value) == f"malformed hypergraph JSON: {ref.value}"
    for edges in ([[0, None]], [[0, 1], [1, None]]):
        with pytest.raises(FormatError) as ref:
            _ReferenceHypergraph(4, 2, edges)
        with pytest.raises(FormatError) as new:
            Hypergraph.from_json_dict({"m": 4, "n": 2, "edges": edges})
        assert str(new.value) == f"malformed hypergraph JSON: {ref.value}"
        assert str(ref.value) == "vertex id None is not an integer"


def test_json_reader_refuses_non_integer_vertex_ids():
    # int() would take 1.9 and true as 1 and "1" as 1; the constructor and
    # the JSON reader refuse them
    for edges, bad in (([[0, 1.9]], "1.9"), ([[0, True]], "True"), ([["0", "1"]], "'0'")):
        with pytest.raises(FormatError, match=f"vertex id {bad} is not an integer"):
            Hypergraph(3, 2, edges)
        with pytest.raises(FormatError, match=f"vertex id {bad} is not an integer"):
            Hypergraph.from_json_dict({"m": 3, "n": 2, "edges": edges})
    # numpy integers are integers
    h = Hypergraph.from_json_dict({"m": 3, "n": 2, "edges": [[np.int64(0), np.uint8(2)]]})
    assert _rows(h) == ((0, 2),)


def test_constructor_refuses_non_integer_sizes_and_ids():
    # each of these was once stored truncated (m = 3.5, the edge (0, 1)) or
    # refused with a message about sequences
    cases = [
        ((3.5, 2, [(0, 1)]), "vertex count 3.5"),
        ((True, 2, [(0, 1)]), "vertex count True"),
        ((3, 2.0, [(0, 1)]), "edge size 2.0"),
        ((3, "2", [(0, 1)]), "edge size '2'"),
        ((3, 2, [(0, 1.9)]), "vertex id 1.9"),
        # numpy's repr of an element differs across versions
        ((3, 2, np.array([[0, 1.9]])), "vertex id .*0.0.*"),
        ((3, 2, [("0", "1")]), "vertex id '0'"),
        ((3, 2, [(0, True)]), "vertex id True"),
        ((3, 2, np.array([[False, True]])), "vertex id .*False.*"),
    ]
    for args, message in cases:
        with pytest.raises(FormatError, match=f"^{message} is not an integer$"):
            Hypergraph(*args)
    # integers of every kind, on the array path and the list path
    for edges in (
        np.array([[1, 0]], dtype=np.int32),
        np.array([[1, 0]], dtype=np.uint8),
        [(np.int64(1), 0)],
        np.array([[1, 0]], dtype=object),
    ):
        h = Hypergraph(np.int64(3), np.uint8(2), edges)
        assert _rows(h) == ((0, 1),) and (type(h.m), type(h.n)) == (int, int)


def test_generated_instances_match_the_reference():
    for m, n, ne, seed in ((10, 3, 7, 42), (30, 4, 200, 1), (400, 3, 1000, 5)):
        h = generate_random(m, n, ne, seed)
        ref = _ReferenceHypergraph(m, n, _rows(h))
        assert (_rows(h), h.edge_array.tolist(), _csr_lists(h)) == (
            ref.edges,
            ref.edge_array.tolist(),
            _csr_lists(ref),
        )
        obj = json.loads(json.dumps(h.to_json_dict()))
        assert _outcome(Hypergraph.from_json_dict, obj) == _outcome(
            _ReferenceHypergraph, obj["m"], obj["n"], obj["edges"]
        )


def test_vertex_count_must_fit_int32_ids():
    # checked before anything is allocated from m
    with pytest.raises(FormatError, match=r"vertex count 3000000000 exceeds 2\^31"):
        parse_hypergraph("3000000000 2 0\n")
    with pytest.raises(FormatError, match="exceeds"):
        Hypergraph.from_json_dict({"m": 2**31 + 1, "n": 2, "edges": []})
    h = Hypergraph(2**31, 2, [(2**31 - 1, 0)])
    assert _rows(h) == ((0, 2**31 - 1),)
    assert h.edge_array.tolist() == [[0, 2**31 - 1]]


def test_parse_allocates_nothing_per_vertex_from_the_header():
    m = 10**6
    tracemalloc.start()
    try:
        h = parse_hypergraph(f"{m} 3 0\n")
        _, parse_peak = tracemalloc.get_traced_memory()
        assert h._incidence is None  # not built until it is read
        tracemalloc.reset_peak()
        incidence = h.incidence
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parse_peak < 1_000_000
    assert read_peak > 8 * m  # one pointer per vertex, at least
    indptr, indices = incidence
    assert len(indptr) == m + 1 and len(indices) == 0 and h.incidence is incidence


def test_a_header_sizes_no_allocation_of_the_raw_body_reader():
    # the separators a body must hold are n E bytes long; a body is measured
    # against them before they are built
    tracemalloc.start()
    try:
        for text in ("4 2000000000 2000000000\n0 1\n", "4 2000000000 1\n" + "0 " * 1000 + "1\n"):
            with pytest.raises(FormatError):
                parse_hypergraph(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_edges_must_be_sequences():
    # the per-edge reference also took one-shot iterators as edges
    with pytest.raises(TypeError, match="every edge must be a sequence of vertex ids"):
        Hypergraph(3, 2, [iter((0, 1))])


def test_edge_array_is_read_only_int32_stored_column_major():
    # every gather indexes by edge_array.T, which must be C-contiguous
    built = [
        parse_hypergraph("5 3 3\n0 1 2\n4 2 3\n1 3 4\n"),
        # a tab sends the body down the line-by-line path
        parse_hypergraph("5 3 2\n0\t1 2\n2 3 4\n"),
        Hypergraph.from_json_dict(json.loads(json.dumps(TRIS.to_json_dict()))),
        generate_random(12, 3, 20, seed=5),
        # above the pool limit, edges are drawn one by one
        generate_random(1000, 4, 50, seed=5),
        Hypergraph(6, 2, np.array([[1, 0], [2, 3], [5, 4]], dtype=np.int64)),
        Hypergraph(4, 3, []),
    ]
    for h in built:
        a = h.edge_array
        assert a.dtype == np.int32 and a.shape == (len(_rows(h)), h.n)
        assert a.T.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 0


def test_incidence_is_read_only():
    with pytest.raises(AttributeError):
        PATH4.incidence = ()
    indptr, indices = PATH4.incidence
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.tolist() == [0, 1, 3, 5, 6] and indices.tolist() == [0, 0, 1, 1, 2, 2]
    for a in (indptr, indices):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
