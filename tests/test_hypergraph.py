"""Instance parsing, coloring predicates, thresholds, and the brute-force oracle."""

import itertools
import json
import math
import tracemalloc

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


# ---------------------------------------------------------------------------
# array-built constructor against the per-edge constructor it replaced


class _ReferenceHypergraph:
    """The per-edge ``Hypergraph.__init__`` that preceded the array build,
    copied (annotations aside) as the reference for the differential tests."""

    def __init__(self, m, n, edges):
        if m <= 0:
            raise FormatError(f"vertex count must be positive, got {m}")
        if n < 2:
            raise FormatError(f"edge size must be at least 2, got {n}")
        self.m = m
        self.n = n
        seen = set()
        stored = []
        for e in edges:
            t = tuple(sorted(int(v) for v in e))
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
        incidence = [[] for _ in range(m)]
        for idx, t in enumerate(self.edges):
            for v in t:
                incidence[v].append(idx)
        self.incidence = tuple(tuple(lst) for lst in incidence)
        flat = np.fromiter(itertools.chain.from_iterable(self.edges), np.int32, len(self.edges) * n)
        self.edge_array = flat.reshape(len(self.edges), n)


def _reference_parse(text):
    """The per-line ``parse_hypergraph`` that preceded the array parse."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    content = [ln.strip() for ln in text.splitlines()]
    content = [ln for ln in content if ln and not ln.startswith("#")]
    if not content:
        raise FormatError("empty instance: no header line")
    header = content[0].split()
    if len(header) != 3:
        raise FormatError(f"malformed header {content[0]!r}, expected 'm n E'")
    try:
        m, n, num_edges = (int(x) for x in header)
    except ValueError as exc:
        raise FormatError(f"malformed header {content[0]!r}: {exc}") from exc
    body = content[1:]
    if len(body) != num_edges:
        raise FormatError(f"header promises {num_edges} edges, found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        try:
            edges.append([int(x) for x in parts])
        except ValueError as exc:
            raise FormatError(f"malformed edge line {ln!r}: {exc}") from exc
    return _ReferenceHypergraph(m, n, edges)


def _outcome(build, *args):
    """What a build gives: its edges, edge array and incidence, or the type
    and message of the exception it raises."""
    try:
        h = build(*args)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    assert h.edge_array.dtype == np.int32 and h.edge_array.shape == (len(h.edges), h.n)
    return h.edges, h.edge_array.tolist(), h.incidence


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
]


@pytest.mark.parametrize("text", DIFFERENTIAL_TEXTS)
def test_parse_matches_the_per_edge_reference(text):
    _assert_same_as_reference(text)


def test_parse_matches_the_reference_on_bytes():
    _assert_same_as_reference(b"4 2 2\r\n0 1\r\n3 2\r\n")
    _assert_same_as_reference(b"4 2 1\n0 \xff\n")


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
)
_LINES = st.one_of(
    st.lists(_TOKENS, min_size=1, max_size=4),
    st.just(["#", "comment"]),
    st.just([]),
)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(-1, 9),
    n=st.integers(0, 4),
    lines=st.lists(_LINES, max_size=8),
    promise_delta=st.sampled_from([0, 0, 0, 1, -1]),
    sep=st.sampled_from([" ", "\t", " \t "]),
    eol=st.sampled_from(["\n", "\r\n"]),
)
def test_parse_matches_the_reference_on_generated_texts(m, n, lines, promise_delta, sep, eol):
    edges = sum(1 for ln in lines if ln and ln[0] != "#")
    body = [sep.join(ln) for ln in lines]
    text = eol.join([f"{m} {n} {edges + promise_delta}"] + body) + eol
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


@pytest.mark.parametrize(
    "edges",
    [
        [[0, "1"], (2.7, 1)],  # int() truncates floats and parses strings
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
    ],
)
def test_constructor_matches_the_reference_on_odd_inputs(edges):
    assert _outcome(Hypergraph, 4, 2, edges) == _outcome(_ReferenceHypergraph, 4, 2, edges)


def test_json_faults_match_the_reference():
    for edges in ([[0, None]], [5], [[0, 1], [1, None]], None):
        with pytest.raises(FormatError) as new:
            Hypergraph.from_json_dict({"m": 4, "n": 2, "edges": edges})
        with pytest.raises(TypeError) as ref:
            _ReferenceHypergraph(4, 2, edges)
        assert str(new.value) == f"malformed hypergraph JSON: {ref.value}"


def test_generated_instances_match_the_reference():
    for m, n, ne, seed in ((10, 3, 7, 42), (30, 4, 200, 1), (400, 3, 1000, 5)):
        h = generate_random(m, n, ne, seed)
        ref = _ReferenceHypergraph(m, n, h.edges)
        assert (h.edges, h.edge_array.tolist(), h.incidence) == (
            ref.edges,
            ref.edge_array.tolist(),
            ref.incidence,
        )
        obj = json.loads(h.to_json())
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
    assert h.edges == ((0, 2**31 - 1),)
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
    assert len(incidence) == m and h.incidence is incidence


def test_edges_must_be_sequences():
    # the per-edge reference also took one-shot iterators as edges
    with pytest.raises(TypeError, match="every edge must be a sequence of vertex ids"):
        Hypergraph(3, 2, [iter((0, 1))])


def test_incidence_is_read_only():
    with pytest.raises(AttributeError):
        PATH4.incidence = ()
