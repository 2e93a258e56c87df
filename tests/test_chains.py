"""Conflicting pairs, chain extraction and validation, candidate counting, bounds."""

import dataclasses
import math

import numpy as np
import pytest

from eqcolor import (
    BudgetExceeded,
    ChainInvalid,
    ChainLink,
    ChainRecord,
    Coloring,
    COMPLEX,
    DangerousEdge,
    Deflected,
    Hypergraph,
    IMPROPER,
    IntervalPartition,
    MonoEdge,
    ORDERED,
    brute_force_equitable,
    build_rebalance_plan,
    chain_probability_bound,
    choose_p,
    class_targets,
    dangerous_count_bound,
    expected_deflections_bound,
    extract_chain,
    generate_random,
    mono_edge_probability_bound,
    run_interval_coloring,
    sample_weights,
    validate_chain,
)
from eqcolor.chains import _chain_event_holds, _conflicting

from _reference import enumerate_chains

P2 = IntervalPartition(0.2, 2)


def _setup(m, edges, weights, r=2, part=P2):
    h = Hypergraph(m, len(edges[0]), edges)
    return h, run_interval_coloring(h, r, part, weights)


def _trial(init):
    """One trial's (slots, key, colors) as the (1, m) arrays that the chain
    predicates ``_conflicting`` and ``_chain_event_holds`` take."""
    return init.slots[None], init.weights[None], init.coloring.colors[None]


def test_conflicting_pair_hand_trace():
    # v1 sits in the small block, is last of B={0,1} and first of A={1,2},
    # and v0 carries color 1, so (A, B) conflict for color 2
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    assert init.coloring.colors.tolist() == [1, 2, 2]
    assert _conflicting(*_trial(init), *h.edge_array[[0, 1]], 2)[0]


def test_conflicting_pair_rejects_disjoint_edges():
    h, init = _setup(4, [(0, 1), (2, 3)], (0.1, 0.45, 0.7, 0.9))
    assert not _conflicting(*_trial(init), *h.edge_array[[0, 1]], 2)[0]


def test_conflicting_pair_rejects_two_shared_vertices():
    h, init = _setup(4, [(0, 1, 2), (1, 2, 3)], (0.1, 0.2, 0.45, 0.7))
    assert not _conflicting(*_trial(init), *h.edge_array[[0, 1]], 2)[0]


def test_conflicting_pair_needs_small_block_link():
    # shared vertex in a large block never links a pair
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.2, 0.7))
    assert not _conflicting(*_trial(init), *h.edge_array[[0, 1]], 2)[0]


def test_extract_one_chain_from_mono_edge():
    h, init = _setup(2, [(0, 1)], (0.1, 0.2))
    assert init.coloring.colors.tolist() == [1, 1]
    rec = extract_chain(h, init, MonoEdge(0, 1))
    assert rec.kind == ORDERED and rec.k == 1
    assert rec.edges == (0,) and rec.links == () and rec.color == 1
    validate_chain(h, init, rec)


def test_extract_two_chain_from_mono_edge():
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, init, MonoEdge(1, 2))
    assert rec.kind == ORDERED and rec.k == 2
    assert rec.edges == (0, 1)
    assert rec.links == (ChainLink(1, 0.45),)
    validate_chain(h, init, rec)
    assert _chain_event_holds(*_trial(init), h.edge_array[list(rec.edges)], rec.color)[0]


def test_extract_improper_chain_from_deflection():
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, init, Deflected(1, 1))
    assert rec.kind == IMPROPER and rec.k == 1
    assert rec.edges == (0,) and rec.terminal_vertex == 1 and rec.color == 1
    validate_chain(h, init, rec)


def test_extract_improper_chain_degenerate_start():
    # the blocking edge lies wholly inside the small block: the walk stops
    # at a small-block vertex that kept its own color
    h, init = _setup(2, [(0, 1)], (0.45, 0.5))
    assert init.coloring.colors.tolist() == [1, 2]
    rec = extract_chain(h, init, Deflected(1, 1))
    assert rec.kind == IMPROPER and rec.edges == (0,)
    validate_chain(h, init, rec)


def test_extract_complex_chain_reduced_in_large_block():
    h, init = _setup(2, [(0, 1)], (0.1, 0.7))
    rec = extract_chain(h, init, DangerousEdge(0, (0,)))
    assert rec.kind == COMPLEX and rec.color == 2
    assert rec.reduced_edge == (1,) and rec.candidate_vertices == (0,)
    validate_chain(h, init, rec)
    validate_chain(h, init, rec, vsets=({0},))
    # a rebalance plan holds its candidate sets as vertex-id arrays
    validate_chain(h, init, rec, vsets=(np.array([0]),))


def test_extract_complex_chain_with_deflected_reduced_vertex():
    # the reduced vertex was itself deflected, so the walk recovers its
    # blocking edge; here that blocking edge is the dangerous edge itself
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, init, DangerousEdge(0, (0,)))
    assert rec.kind == COMPLEX and rec.k == 2
    assert rec.links == (ChainLink(1, 0.45),)
    validate_chain(h, init, rec)


def test_extract_names_a_dangerous_edge_wholly_in_the_candidate_sets():
    # a rebalance plan can report an edge every vertex of which lies in the
    # candidate sets; its reduced edge is empty, so there is nothing to walk
    for seed in range(200):
        rng = np.random.default_rng(seed)
        edges = {tuple(sorted(rng.choice(12, 3, replace=False).tolist())) for _ in range(10)}
        h = Hypergraph(12, 3, sorted(edges))
        part = IntervalPartition(0.3, 2)
        init = run_interval_coloring(h, 2, part, sample_weights(12, seed))
        plan = build_rebalance_plan(h, init, class_targets(12, 2), seed=seed, p_tilde=0.7)
        whole = [d for d in plan.dangerous if len(d.u_vertices) == h.n]
        if whole:
            break
    else:
        pytest.fail("no plan with a dangerous edge wholly in the candidate sets")
    for d in whole:
        with pytest.raises(ValueError, match=f"edge {d.edge} lies wholly in the candidate sets"):
            extract_chain(h, init, d)


def test_extract_rejects_events_that_did_not_happen():
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    with pytest.raises(ValueError):
        extract_chain(h, init, MonoEdge(0, 1))  # edge 0 is not mono
    with pytest.raises(ValueError):
        extract_chain(h, init, Deflected(0, 1))  # vertex 0 kept color 1
    with pytest.raises(ValueError):
        extract_chain(h, init, DangerousEdge(1, (0,)))  # v0 not in edge 1
    with pytest.raises(ValueError):
        extract_chain(h, init, DangerousEdge(0, (1,)))  # reduced {0} wears color 1, not r


def test_extract_and_validate_reject_indices_out_of_range():
    # edge -1 used to alias the only edge and pass validation
    h, init = _setup(2, [(0, 1)], (0.1, 0.2))
    for e in (-1, 1):
        with pytest.raises(ValueError):
            extract_chain(h, init, MonoEdge(e, 1))
        with pytest.raises(ValueError):
            extract_chain(h, init, DangerousEdge(e, (0,)))
    for v in (-1, 2):
        with pytest.raises(ValueError):
            extract_chain(h, init, Deflected(v, 1))
    rec = extract_chain(h, init, MonoEdge(0, 1))
    for e in (-1, 1):
        with pytest.raises(ChainInvalid):
            validate_chain(h, init, dataclasses.replace(rec, edges=(e,)))
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, init, MonoEdge(1, 2))
    for v in (-2, 3):
        with pytest.raises(ChainInvalid):
            validate_chain(h, init, dataclasses.replace(rec, links=(ChainLink(v, 0.45),)))


def test_extract_reads_a_dangerous_edge_by_the_integer_rule():
    # a DangerousEdge reads its fields by the integer rule when it is built,
    # so extract_chain gets only checked events: a float vertex was
    # truncated (2.7 and 2.0 both named vertex 2), True read as edge 1, a
    # bare U and a float edge failed with a TypeError or an IndexError
    h, init = _setup(
        6, [(0, 1, 2), (2, 3, 4), (1, 4, 5)], (0.1, 0.2, 0.3, 0.9, 0.8, 0.7),
        part=IntervalPartition(0.3, 2),
    )
    rec = extract_chain(h, init, DangerousEdge(1, (2,)))
    assert rec.kind == COMPLEX and rec.candidate_vertices == (2,)
    read = DangerousEdge(np.int64(1), [np.int64(3), np.int64(2)])
    assert read == DangerousEdge(1, (3, 2)) and type(read.u_vertices[0]) is int
    assert extract_chain(h, init, DangerousEdge(np.int64(1), (np.int64(2),))) == rec
    for (edge, u), what in (
        ((1, (2.7,)), "vertex 2.7"),
        ((1, (2, 2.0)), "vertex 2.0"),
        ((1, (-1,)), "vertex must be at least 0"),
        ((True, (2,)), "edge True"),
        ((1.0, (2,)), "edge 1.0"),
        ((-1, (2,)), "edge must be at least 0"),
        ((1, 2), "U 2 is not iterable"),
    ):
        with pytest.raises(ValueError, match=what):
            extract_chain(h, init, DangerousEdge(edge, u))


def test_extract_rejects_a_blocking_record_that_names_no_edge():
    # vertex 1 was deflected by edge 0; a forged record naming edge 7 or -2
    # is refused where it is read, by the walk for the mono edge and by the
    # lookup for the deflection, not used as an index
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    for bad in (7, -2):
        forged = dataclasses.replace(init, deflected=(np.array([1]), np.array([bad])))
        for event in (MonoEdge(1, 2), Deflected(1, 1)):
            with pytest.raises(ChainInvalid, match=f"edge {bad}"):
                extract_chain(h, forged, event)


def test_validate_rejects_tampered_records():
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, init, MonoEdge(1, 2))
    validate_chain(h, init, rec)
    for bad in (
        dataclasses.replace(rec, color=1),
        dataclasses.replace(rec, edges=(1, 0)),
        dataclasses.replace(rec, links=()),
        dataclasses.replace(rec, links=(ChainLink(0, 0.1),)),
        dataclasses.replace(rec, kind=IMPROPER),
        dataclasses.replace(rec, edges=(0,), links=()),
    ):
        with pytest.raises(ChainInvalid):
            validate_chain(h, init, bad)


def _three_chain():
    """A 3-chain at r = 3: edge 2, (2, 3), comes out monochromatic in color
    3, and the walk crosses the deflected vertices 1 and 2 back to edge 0;
    edge 3, (0, 2), meets edge 0 in vertex 0 and edge 1 in vertex 2."""
    part = IntervalPartition(0.3, 3)
    h, init = _setup(
        4, [(0, 1), (1, 2), (2, 3), (0, 2)], (0.1, 0.3, 0.7, 0.9), r=3, part=part
    )
    rec = extract_chain(h, init, MonoEdge(2, 3))
    assert rec.edges == (0, 1, 2) and [ln.vertex for ln in rec.links] == [1, 2]
    validate_chain(h, init, rec)
    return h, init, rec


def test_validate_rejects_one_tampered_record_per_condition():
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    ordered = extract_chain(h, init, MonoEdge(1, 2))
    improper = extract_chain(h, init, Deflected(1, 1))
    # vertex 1 is deflected by edge 0, never by edge 1
    reblocked = dataclasses.replace(init, deflected=(np.array([1]), np.array([1])))
    reweighed = dataclasses.replace(ordered, links=(ChainLink(1, 0.5),))
    # the last edge alone: its first vertex 1 lies in small_1
    truncated = dataclasses.replace(ordered, edges=(1,), links=())
    cases = {
        "wrong link weight": (h, init, reweighed),
        "link blocked by another edge": (h, reblocked, ordered),
        "terminal blocked by another edge": (h, reblocked, improper),
        "lead edge reaches into small_{c_1 - 1}": (h, init, truncated),
    }
    h3, init3, rec3 = _three_chain()
    cases["non-consecutive edges share a vertex"] = (
        h3, init3, dataclasses.replace(rec3, edges=(0, 1, 3))
    )
    # vertex 2 was deflected as the last of edge (0, 1, 2); the same run
    # read with the weights of vertices 1 and 2 swapped puts vertex 1 last
    # (both stay in small_1)
    h1, init1 = _setup(3, [(0, 1, 2)], (0.1, 0.45, 0.5))
    terminal = extract_chain(h1, init1, Deflected(2, 1))
    swapped = dataclasses.replace(init1, weights=np.array((0.1, 0.5, 0.45)))
    cases["terminal not the last vertex of its edge"] = (h1, swapped, terminal)
    hc, initc = _setup(2, [(0, 1)], (0.1, 0.7))
    dangerous = extract_chain(hc, initc, DangerousEdge(0, (0,)))
    for label, field in (
        ("U overlaps the reduced edge", {"candidate_vertices": (0, 1)}),
        ("reduced edge overlaps U", {"reduced_edge": (0, 1)}),
        ("reduced edge and U miss a vertex", {"reduced_edge": ()}),
    ):
        cases[label] = (hc, initc, dataclasses.replace(dangerous, **field))
    # a correct run deflects vertex 1, the last of edge 0, out of small_1;
    # a forged coloring keeps it in color 1, so edge 0 is monochromatic in
    # color 1 with a vertex in small_1
    hf, initf = _setup(2, [(0, 1)], (0.1, 0.45))
    forged = dataclasses.replace(initf, coloring=Coloring(2, 2, [1, 1]))
    cases["ordered last edge reaches into small_{c_k}"] = (
        hf, forged, ChainRecord(ORDERED, 1, (0,), ())
    )
    for label, (hh, ii, record) in cases.items():
        with pytest.raises(ChainInvalid):
            validate_chain(hh, ii, record)
            pytest.fail(f"validate_chain accepted a record with {label}")


def test_extract_reads_the_small_block_of_a_deflection_from_its_slot():
    # Deflected(v, None) names a deflection out of any small block, the form
    # the oracle and ``mc --quantity deflected`` take
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, init, Deflected(1, None))
    assert rec == extract_chain(h, init, Deflected(1, 1))
    h3, init3, _ = _three_chain()
    rec = extract_chain(h3, init3, Deflected(2, None))
    assert rec.kind == IMPROPER and rec.color == 2 and rec.edges == (0, 1)
    assert rec.terminal_vertex == 2 and rec.links == (ChainLink(1, 0.3),)
    with pytest.raises(ValueError):
        extract_chain(h3, init3, Deflected(0, None))  # vertex 0 kept color 1


def test_validate_refuses_a_complex_record_with_an_empty_reduced_edge():
    # U the whole edge leaves no part to end the chain in: refused as a
    # record, not met by an IndexError on an empty float array
    h, init = _setup(2, [(0, 1)], (0.1, 0.7))
    rec = extract_chain(h, init, DangerousEdge(0, (0,)))
    whole = dataclasses.replace(rec, reduced_edge=(), candidate_vertices=(0, 1))
    with pytest.raises(ChainInvalid, match="nonempty reduced edge"):
        validate_chain(h, init, whole)


def test_validate_checks_candidate_vertices_against_vsets():
    h, init = _setup(2, [(0, 1)], (0.1, 0.7))
    rec = extract_chain(h, init, DangerousEdge(0, (0,)))
    with pytest.raises(ChainInvalid):
        validate_chain(h, init, rec, vsets=(set(),))
    with pytest.raises(ChainInvalid):
        validate_chain(h, init, rec, vsets=(np.array([1]),))


def test_chain_record_json_shape():
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, init, MonoEdge(1, 2))
    obj = rec.to_json_dict()
    assert obj["kind"] == "ordered" and obj["color"] == 2
    assert obj["edges"] == [0, 1]
    assert obj["links"] == [{"v": 1, "x": 0.45}]
    assert obj["terminal"] is None and obj["U"] is None


def test_chain_event_requires_mono_last_edge():
    h, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    trial, edges = _trial(init), h.edge_array
    assert _chain_event_holds(*trial, edges[[0, 1]], 2)[0]
    assert not _chain_event_holds(*trial, edges[[0]], 1)[0]  # edge 0 not mono
    assert not _chain_event_holds(*trial, edges[[1]], 2)[0]  # v1 outside large 2
    assert not _chain_event_holds(*trial, edges[[1, 0]], 2)[0]  # wrong direction


def test_extraction_agrees_with_event_predicate():
    # every extracted ordered chain is an occurrence of its own event
    rng = np.random.default_rng(21)
    hits = 0
    for _ in range(400):
        m = int(rng.integers(2, 14))
        r = min(int(rng.integers(2, 4)), m)  # no more colors than vertices
        n = int(rng.integers(2, min(m, 4) + 1))
        ne = int(rng.integers(1, min(math.comb(m, n), 7) + 1))
        h = _random_instance(m, n, ne, rng)
        part = IntervalPartition(choose_p(max(n, 3), r), r)
        init = run_interval_coloring(h, r, part, sample_weights(m, int(rng.integers(0, 2**32))))
        cols = init.coloring.colors
        for idx, e in enumerate(h.edge_array.tolist()):
            c = cols[e[0]]
            if all(cols[v] == c for v in e[1:]):
                rec = extract_chain(h, init, MonoEdge(idx, c))
                validate_chain(h, init, rec)
                parts = h.edge_array[list(rec.edges)]
                assert _chain_event_holds(*_trial(init), parts, rec.color)[0]
                hits += 1
    assert hits > 20  # the sweep actually exercised the extraction


@pytest.mark.parametrize(
    "m, n, ne, r, p", [(600, 3, 900, 2, 0.7), (1000, 4, 2000, 3, 0.5), (1000, 3, 1500, 4, 0.6)]
)
def test_chains_are_invariant_under_relabeling(m, n, ne, r, p):
    # the process reads ids only through ties of weight, and these weights
    # have none: moving them along a vertex permutation pi, with the edge
    # order kept (so the lowest-index blocking edge is kept too), maps every
    # failure's chain to the relabeled run's chain for the mapped event
    rng = np.random.default_rng(m)
    h = generate_random(m, n, ne, seed=r)
    part = IntervalPartition(p, r)
    weights = rng.random(m)
    pi = rng.permutation(m)
    moved = np.empty_like(weights)
    moved[pi] = weights
    relabeled = Hypergraph(m, n, pi[h.edge_array])
    init = run_interval_coloring(h, r, part, weights)
    again = run_interval_coloring(relabeled, r, part, moved)

    def mapped(vertices):
        return None if vertices is None else tuple(sorted(pi[list(vertices)].tolist()))

    colors = init.coloring.colors[h.edge_array]
    events = [
        (MonoEdge(e, int(colors[e, 0])),) * 2
        for e in np.flatnonzero((colors == colors[:, :1]).all(axis=1)).tolist()
    ]
    events += [
        (Deflected(v, None), Deflected(int(pi[v]), None)) for v in init.deflected[0].tolist()
    ]
    plan = build_rebalance_plan(h, init, class_targets(m, r), seed=0, p_tilde=1.0)
    events += [
        (d, DangerousEdge(d.edge, mapped(d.u_vertices)))
        for d in plan.dangerous
        if len(d.u_vertices) < n  # a reduced edge to walk back from
    ]
    kinds = {}
    for event, moved_event in events:
        rec = extract_chain(h, init, event)
        got = extract_chain(relabeled, again, moved_event)
        assert got.edges == rec.edges and got.kind == rec.kind and got.color == rec.color
        assert got.links == tuple(ChainLink(int(pi[ln.vertex]), ln.weight) for ln in rec.links)
        terminal = rec.terminal_vertex
        assert got.terminal_vertex == (None if terminal is None else int(pi[terminal]))
        assert got.reduced_edge == mapped(rec.reduced_edge)
        assert got.candidate_vertices == mapped(rec.candidate_vertices)
        kinds[rec.kind] = max(kinds.get(rec.kind, 0), rec.k)
    # every kind occurs, and some chain crosses a link
    assert set(kinds) == {ORDERED, IMPROPER, COMPLEX} and max(kinds.values()) >= 2, kinds


def _random_instance(m, n, ne, rng):
    edges = set()
    while len(edges) < ne:
        edges.add(tuple(sorted(rng.choice(m, size=n, replace=False).tolist())))
    return Hypergraph(m, n, sorted(edges))


def test_enumerate_two_chains_on_three_edges():
    h = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    count, seqs = enumerate_chains(h, 2)
    assert count == 2
    assert sorted(seqs) == [(0, 1), (1, 0)]
    assert count <= 2 * math.comb(3, 2)


def test_enumerate_one_chains_lists_every_edge():
    h = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    count, seqs = enumerate_chains(h, 1)
    assert count == 3 and sorted(seqs) == [(0,), (1,), (2,)]


def test_enumerate_path_has_exactly_two_orientations():
    h = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    count, seqs = enumerate_chains(h, 3)
    assert count == 2
    assert sorted(seqs) == [(0, 1, 2), (2, 1, 0)]


def test_enumerate_reversal_symmetry_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        m = int(rng.integers(4, 9))
        ne = int(rng.integers(1, min(math.comb(m, 3), 5) + 1))
        h = _random_instance(m, 3, ne, rng)
        for k in range(1, len(h.edge_array) + 1):
            count, seqs = enumerate_chains(h, k)
            assert count <= 2 * math.comb(len(h.edge_array), k)
            seen = set(seqs)
            for s in seqs:
                assert tuple(reversed(s)) in seen


def test_enumerate_complex_fixed_last_edge():
    h = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    count, seqs = enumerate_chains(h, 2, kind=COMPLEX, last_edge=1)
    assert count == 1 and seqs == [(0, 1)]
    assert count <= 2 * math.comb(3, 1)
    count2, seqs2 = enumerate_chains(h, 2, kind=COMPLEX, last_edge=2)
    assert count2 == 0 and seqs2 == []


def test_enumerate_budget():
    h = Hypergraph(8, 2, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    with pytest.raises(BudgetExceeded):
        enumerate_chains(h, 3, budget=10)


def test_bound_spot_values():
    assert chain_probability_bound(100, 2, 1) == pytest.approx(3.385737404144304e-31, rel=1e-9)
    assert mono_edge_probability_bound() == pytest.approx(0.04 * math.e, abs=1e-15)
    assert mono_edge_probability_bound() == pytest.approx(0.10873127313836181, abs=1e-12)
    assert expected_deflections_bound(100, 2) == pytest.approx(1.1805347983576451, rel=1e-9)
    assert dangerous_count_bound(100, 2) == pytest.approx(10.857362047581296, rel=1e-9)


def test_bound_chain_decays_in_k():
    values = [chain_probability_bound(100, 2, k) for k in (1, 2, 3)]
    assert values[0] > values[1] > values[2] > 0


def _chain_event_per_trial(h, slots, key, colors, seq, color):
    """The chain predicate as it was before it took (T, m) arrays, on one
    trial's plain lists, kept as the reference for the array version."""
    edges = h.edge_array.tolist()

    def conflicting(b_edge, a_edge, c):
        b, a = edges[b_edge], edges[a_edge]
        shared = set(b) & set(a)
        if len(shared) != 1:
            return False
        v = shared.pop()

        def position(u):
            return key[u], u

        if max(b, key=position) != v or min(a, key=position) != v:
            return False
        if slots[v] != 2 * c - 3:
            return False
        return all(colors[u] == c - 1 for u in b if u != v)

    k = len(seq)
    if color - k + 1 < 1:
        return False
    if any(colors[v] != color for v in edges[seq[-1]]):
        return False
    if k == 1:
        return all(slots[v] == 2 * color - 2 for v in edges[seq[0]])
    if not all(conflicting(seq[j - 1], seq[j], color - k + j + 1) for j in range(1, k)):
        return False
    u = min(edges[seq[0]], key=lambda w: (key[w], w))
    c_1 = color - k + 1
    return slots[u] in (2 * c_1 - 2, 2 * c_1 - 1)


def test_chain_predicates_over_a_batch_match_each_trial():
    rng = np.random.default_rng(31)
    instances = [
        (Hypergraph(8, 2, [(v, v + 1) for v in range(7)]), 3),
        (Hypergraph(9, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (0, 4, 8)]), 3),
        (Hypergraph(10, 2, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6), (6, 0), (7, 8)]), 4),
    ]
    events = pairs = 0
    for h, r in instances:
        part = IntervalPartition(0.5, r)
        # weights on a grid of 16 values, so ties broken by id are common
        batch = run_interval_coloring(h, r, part, rng.integers(0, 16, (60, h.m)) / 16)
        inits = [batch.row(t) for t in range(len(batch))]
        slots = np.stack([init.slots for init in inits])
        key = np.stack([init.weights for init in inits])
        colors = np.stack([init.coloring.colors for init in inits])
        lists = list(zip(slots.tolist(), key.tolist(), colors.tolist()))
        num = len(h.edge_array)
        for b in range(num):
            for a in range(num):
                for c in range(2, r + 1):
                    batch = _conflicting(slots, key, colors, *h.edge_array[[b, a]], c).tolist()
                    rows = [
                        _conflicting(*_trial(init), *h.edge_array[[b, a]], c)[0] for init in inits
                    ]
                    assert batch == rows
                    pairs += sum(rows)
        # every edge sequence of length k <= 3 whose consecutive edges
        # share exactly one vertex
        seqs = [(e,) for e in range(num)]
        for k in (2, 3):
            seqs += [
                s + (e,)
                for s in seqs
                if len(s) == k - 1
                for e in range(num)
                if e not in s and len(set(h.edge_array[s[-1]]) & set(h.edge_array[e])) == 1
            ]
        for seq in seqs:
            parts = h.edge_array[list(seq)]
            for color in range(1, r + 1):
                batch = _chain_event_holds(slots, key, colors, parts, color).tolist()
                rows = [_chain_event_holds(*_trial(init), parts, color)[0] for init in inits]
                reference = [_chain_event_per_trial(h, s, w, c, seq, color) for s, w, c in lists]
                assert batch == rows == reference, (seq, color)
                events += sum(rows) if len(seq) > 1 else 0
    # conflicting pairs and chains of two or more edges both occur
    assert pairs > 50 and events > 20


def test_chain_extraction_and_validation_on_each_failure_kind():
    h = Hypergraph(3, 2, [(0, 1), (1, 2)])
    init = run_interval_coloring(h, 2, P2, (0.1, 0.45, 0.7))
    for failure in (MonoEdge(1, 2), Deflected(1, 1), DangerousEdge(0, (0,))):
        rec = extract_chain(h, init, failure)
        validate_chain(h, init, rec, vsets=({0},) if rec.kind == COMPLEX else None)
        with pytest.raises(ChainInvalid):
            validate_chain(h, init, dataclasses.replace(rec, color=rec.color + 1))
    with pytest.raises(ValueError):
        extract_chain(h, init, MonoEdge(0, 1))


def test_candidate_enumeration_and_brute_force():
    k4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    # two triangles sharing vertex 2, plus an edge across
    tris = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (3, 4, 5), (0, 4, 5)])
    assert enumerate_chains(tris, 2)[0] == 6
    assert enumerate_chains(tris, 2, kind=COMPLEX, last_edge=3)[0] == 3
    assert brute_force_equitable(tris, 2) is not None
    assert brute_force_equitable(k4, 2) is None and brute_force_equitable(k4, 1) is None
