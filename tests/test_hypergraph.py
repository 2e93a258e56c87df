"""Instance parsing, coloring predicates, thresholds, and the brute-force oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqcolor import (
    BudgetExceeded,
    Coloring,
    FormatError,
    Hypergraph,
    brute_force_equitable,
    class_targets,
    edge_threshold,
    generate_random,
    is_equitable,
    is_proper,
    parse_hypergraph,
)
from eqcolor.hypergraph import _mono_edges

TRIANGLE = Hypergraph(3, 2, [(0, 1), (1, 2), (0, 2)])
K4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
PATH4 = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])


def test_parse_text_roundtrip():
    text = "4 2 3\n0 1\n1 2\n2 3\n"
    h = parse_hypergraph(text)
    assert h.m == 4 and h.n == 2
    assert h.edges == ((0, 1), (1, 2), (2, 3))
    assert parse_hypergraph(h.to_text()).edges == h.edges


def test_parse_skips_comments_and_blank_lines():
    text = "# instance\n3 2 1\n\n# the only edge\n2 1\n"
    h = parse_hypergraph(text)
    assert h.edges == ((1, 2),)


def test_parse_sorts_edge_vertices():
    h = parse_hypergraph("3 3 1\n2 0 1\n")
    assert h.edges == ((0, 1, 2),)


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
    obj = json.loads(h.to_json())
    assert obj == {"m": 4, "n": 2, "edges": [[0, 1], [1, 2], [2, 3]]}
    assert Hypergraph.from_json_dict(obj).edges == h.edges


def test_incidence_lists_every_edge_once():
    h = TRIANGLE
    for v in range(h.m):
        assert [h.edges[i] for i in h.incidence[v]] == [e for e in h.edges if v in e]


def test_duplicate_edges_collapse():
    h = Hypergraph(3, 2, [(0, 1), (1, 0), (1, 2)])
    assert h.edges == ((0, 1), (1, 2))


def test_coloring_sizes_track_assignments():
    c = Coloring(4, 2)
    assert not c.is_total()
    c.assign(0, 1)
    c.assign(1, 2)
    c.assign(1, 1)  # reassignment moves the count
    assert c.sizes == [2, 0]
    c.assign(2, 2)
    c.assign(3, 2)
    assert c.is_total() and c.sizes == [2, 2]
    d = c.copy()
    d.assign(0, 2)
    assert c.colors[0] == 1


def test_coloring_rejects_out_of_range():
    with pytest.raises(ValueError):
        Coloring(3, 2, [0, 1, 3])
    c = Coloring(3, 2)
    with pytest.raises(ValueError):
        c.assign(0, 0)


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
        Coloring(3, 0)
    partial = Coloring(4, 3, [0, 3, 0, 3])  # 0 = unassigned is accepted
    assert not partial.is_total() and partial.sizes == [0, 0, 2]
    assert isinstance(partial.colors, np.ndarray) and partial.colors.dtype == np.int64
    assert partial.colors.tolist() == [0, 3, 0, 3]
    assert all(type(s) is int for s in partial.sizes)
    assert Coloring(3, 2).colors.tolist() == [0, 0, 0]


def test_coloring_equality_and_copy():
    c = Coloring(4, 2, [1, 2, 1, 2])
    assert c == Coloring(4, 2, np.array([1, 2, 1, 2]))
    assert c != Coloring(4, 3, [1, 2, 1, 2])  # same colors, other r
    assert c != Coloring(3, 2, [1, 2, 1])
    d = c.copy()
    assert d == c and d.colors is not c.colors and d.sizes is not c.sizes
    d.assign(3, 1)
    assert c.colors.tolist() == [1, 2, 1, 2] and c.sizes == [2, 2]
    assert d.sizes == [3, 1]


def test_coloring_json_is_plain_lists():
    c = Coloring(3, 2, [2, 1, 2])
    obj = c.to_json_dict()
    assert obj == {"r": 2, "colors": [2, 1, 2], "sizes": [1, 2]}
    assert type(obj["colors"]) is list and all(type(x) is int for x in obj["colors"])
    assert json.loads(c.to_json()) == obj


def test_coloring_json_roundtrip_checks_sizes():
    c = Coloring(4, 2, [1, 2, 1, 2])
    obj = c.to_json_dict()
    assert Coloring.from_json_dict(obj) == c
    obj["sizes"] = [4, 0]
    with pytest.raises(FormatError):
        Coloring.from_json_dict(obj)


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


def test_is_proper_requires_total():
    with pytest.raises(ValueError):
        is_proper(PATH4, Coloring(4, 2, [1, 0, 1, 2]))


def test_class_targets_split():
    assert class_targets(6, 3) == [2, 2, 2]
    assert class_targets(7, 3) == [3, 2, 2]
    assert class_targets(5, 2) == [3, 2]
    assert class_targets(3, 5) == [1, 1, 1, 0, 0]


def test_generate_random_is_deterministic_and_valid():
    a = generate_random(10, 3, 7, seed=42)
    b = generate_random(10, 3, 7, seed=42)
    assert a.edges == b.edges
    assert len(a.edges) == 7 and a.n == 3
    assert len(set(a.edges)) == 7
    c = generate_random(10, 3, 7, seed=43)
    assert c.edges != a.edges


def test_generate_random_rejects_impossible_count():
    with pytest.raises(ValueError):
        generate_random(4, 2, math.comb(4, 2) + 1, seed=0)


def test_generate_random_rejects_negative_count():
    with pytest.raises(ValueError, match="num_edges must be non-negative, got -1"):
        generate_random(5, 2, -1, seed=0)


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


def test_brute_force_respects_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_equitable(K4, 2, budget=3)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.data())
def test_text_and_json_roundtrips_agree(m, data):
    n = data.draw(st.integers(2, m))
    max_edges = min(math.comb(m, n), 6)
    ne = data.draw(st.integers(0, max_edges))
    h = generate_random(m, n, ne, seed=data.draw(st.integers(0, 10**6)))
    assert parse_hypergraph(h.to_text()).edges == h.edges
    assert Hypergraph.from_json_dict(json.loads(h.to_json())).edges == h.edges
