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
    COMPLEX,
    DangerousEdge,
    Deflected,
    Hypergraph,
    IMPROPER,
    IntervalPartition,
    MonoEdge,
    ORDERED,
    WeightAssignment,
    build_rebalance_plan,
    chain_event_occurs,
    chain_probability_bound,
    choose_p,
    class_targets,
    dangerous_count_bound,
    enumerate_chain_candidates,
    expected_deflections_bound,
    extract_chain,
    is_conflicting_pair,
    mono_edge_probability_bound,
    run_interval_coloring,
    sample_weights,
    validate_chain,
)

P2 = IntervalPartition(0.2, 2)


def _setup(m, edges, weights, r=2, part=P2):
    h = Hypergraph(m, len(edges[0]), edges)
    wa = WeightAssignment(weights)
    init = run_interval_coloring(h, r, part, wa)
    return h, wa, init


def test_conflicting_pair_hand_trace():
    # v1 sits in the small block, is last of B={0,1} and first of A={1,2},
    # and v0 carries color 1, so (A, B) conflict for color 2
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    assert init.coloring.colors.tolist() == [1, 2, 2]
    assert is_conflicting_pair(h, P2, wa, init, 0, 1, 2)


def test_conflicting_pair_rejects_disjoint_edges():
    h, wa, init = _setup(4, [(0, 1), (2, 3)], (0.1, 0.45, 0.7, 0.9))
    assert not is_conflicting_pair(h, P2, wa, init, 0, 1, 2)


def test_conflicting_pair_rejects_two_shared_vertices():
    h, wa, init = _setup(4, [(0, 1, 2), (1, 2, 3)], (0.1, 0.2, 0.45, 0.7))
    assert not is_conflicting_pair(h, P2, wa, init, 0, 1, 2)


def test_conflicting_pair_needs_small_block_link():
    # shared vertex in a large block never links a pair
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.2, 0.7))
    assert not is_conflicting_pair(h, P2, wa, init, 0, 1, 2)


def test_extract_one_chain_from_mono_edge():
    h, wa, init = _setup(2, [(0, 1)], (0.1, 0.2))
    assert init.coloring.colors.tolist() == [1, 1]
    rec = extract_chain(h, P2, wa, init, MonoEdge(0, 1))
    assert rec.kind == ORDERED and rec.k == 1
    assert rec.edges == (0,) and rec.links == () and rec.color == 1
    validate_chain(h, P2, wa, init, rec)


def test_extract_two_chain_from_mono_edge():
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, P2, wa, init, MonoEdge(1, 2))
    assert rec.kind == ORDERED and rec.k == 2
    assert rec.edges == (0, 1)
    assert rec.links == (ChainLink(1, 0.45),)
    validate_chain(h, P2, wa, init, rec)
    assert chain_event_occurs(h, P2, wa, init, rec.edges, rec.color)


def test_extract_improper_chain_from_deflection():
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, P2, wa, init, Deflected(1, 1))
    assert rec.kind == IMPROPER and rec.k == 1
    assert rec.edges == (0,) and rec.terminal_vertex == 1 and rec.color == 1
    validate_chain(h, P2, wa, init, rec)


def test_extract_improper_chain_degenerate_start():
    # the blocking edge lies wholly inside the small block: the walk stops
    # at a small-block vertex that kept its own color
    h, wa, init = _setup(2, [(0, 1)], (0.45, 0.5))
    assert init.coloring.colors.tolist() == [1, 2]
    rec = extract_chain(h, P2, wa, init, Deflected(1, 1))
    assert rec.kind == IMPROPER and rec.edges == (0,)
    validate_chain(h, P2, wa, init, rec)


def test_extract_complex_chain_reduced_in_large_block():
    h, wa, init = _setup(2, [(0, 1)], (0.1, 0.7))
    rec = extract_chain(h, P2, wa, init, DangerousEdge(0, (0,)))
    assert rec.kind == COMPLEX and rec.color == 2
    assert rec.reduced_edge == (1,) and rec.candidate_vertices == (0,)
    validate_chain(h, P2, wa, init, rec)
    validate_chain(h, P2, wa, init, rec, vsets=({0},))


def test_extract_complex_chain_with_deflected_reduced_vertex():
    # the reduced vertex was itself deflected, so the walk recovers its
    # blocking edge; here that blocking edge is the dangerous edge itself
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, P2, wa, init, DangerousEdge(0, (0,)))
    assert rec.kind == COMPLEX and rec.k == 2
    assert rec.links == (ChainLink(1, 0.45),)
    validate_chain(h, P2, wa, init, rec)


def test_extract_names_a_dangerous_edge_wholly_in_the_candidate_sets():
    # a rebalance plan can report an edge every vertex of which lies in the
    # candidate sets; its reduced edge is empty, so there is nothing to walk
    for seed in range(200):
        rng = np.random.default_rng(seed)
        edges = {tuple(sorted(rng.choice(12, 3, replace=False).tolist())) for _ in range(10)}
        h = Hypergraph(12, 3, sorted(edges))
        part = IntervalPartition(0.3, 2)
        wa = sample_weights(12, seed)
        init = run_interval_coloring(h, 2, part, wa)
        plan = build_rebalance_plan(
            h, part, wa, init.coloring, class_targets(12, 2), seed=seed, p_tilde=0.7
        )
        whole = [d for d in plan.dangerous if len(d.u_vertices) == h.n]
        if whole:
            break
    else:
        pytest.fail("no plan with a dangerous edge wholly in the candidate sets")
    for d in whole:
        with pytest.raises(ValueError, match=f"edge {d.edge} lies wholly in the candidate sets"):
            extract_chain(h, part, wa, init, d)


def test_extract_rejects_events_that_did_not_happen():
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    with pytest.raises(ValueError):
        extract_chain(h, P2, wa, init, MonoEdge(0, 1))  # edge 0 is not mono
    with pytest.raises(ValueError):
        extract_chain(h, P2, wa, init, Deflected(0, 1))  # vertex 0 kept color 1
    with pytest.raises(ValueError):
        extract_chain(h, P2, wa, init, DangerousEdge(1, (0,)))  # v0 not in edge 1
    with pytest.raises(ValueError):
        extract_chain(h, P2, wa, init, DangerousEdge(0, (1,)))  # reduced {0} wears color 1, not r


def test_extract_and_validate_reject_indices_out_of_range():
    # edge -1 used to alias the only edge and pass validation
    h, wa, init = _setup(2, [(0, 1)], (0.1, 0.2))
    for e in (-1, 1):
        with pytest.raises(ValueError):
            extract_chain(h, P2, wa, init, MonoEdge(e, 1))
        with pytest.raises(ValueError):
            extract_chain(h, P2, wa, init, DangerousEdge(e, (0,)))
    for v in (-1, 2):
        with pytest.raises(ValueError):
            extract_chain(h, P2, wa, init, Deflected(v, 1))
    rec = extract_chain(h, P2, wa, init, MonoEdge(0, 1))
    for e in (-1, 1):
        with pytest.raises(ChainInvalid):
            validate_chain(h, P2, wa, init, dataclasses.replace(rec, edges=(e,)))
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, P2, wa, init, MonoEdge(1, 2))
    for v in (-2, 3):
        with pytest.raises(ChainInvalid):
            validate_chain(h, P2, wa, init, dataclasses.replace(rec, links=(ChainLink(v, 0.45),)))


def test_validate_rejects_tampered_records():
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, P2, wa, init, MonoEdge(1, 2))
    validate_chain(h, P2, wa, init, rec)
    for bad in (
        dataclasses.replace(rec, color=1),
        dataclasses.replace(rec, edges=(1, 0)),
        dataclasses.replace(rec, links=()),
        dataclasses.replace(rec, links=(ChainLink(0, 0.1),)),
        dataclasses.replace(rec, kind=IMPROPER),
        dataclasses.replace(rec, edges=(0,), links=()),
    ):
        with pytest.raises(ChainInvalid):
            validate_chain(h, P2, wa, init, bad)


def test_validate_checks_candidate_vertices_against_vsets():
    h, wa, init = _setup(2, [(0, 1)], (0.1, 0.7))
    rec = extract_chain(h, P2, wa, init, DangerousEdge(0, (0,)))
    with pytest.raises(ChainInvalid):
        validate_chain(h, P2, wa, init, rec, vsets=(set(),))


def test_chain_record_json_shape():
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    rec = extract_chain(h, P2, wa, init, MonoEdge(1, 2))
    obj = rec.to_json_dict()
    assert obj["kind"] == "ordered" and obj["color"] == 2
    assert obj["edges"] == [0, 1]
    assert obj["links"] == [{"v": 1, "x": 0.45}]
    assert obj["terminal"] is None and obj["U"] is None


def test_chain_event_requires_mono_last_edge():
    h, wa, init = _setup(3, [(0, 1), (1, 2)], (0.1, 0.45, 0.7))
    assert chain_event_occurs(h, P2, wa, init, (0, 1), 2)
    assert not chain_event_occurs(h, P2, wa, init, (0,), 1)  # edge 0 not mono
    assert not chain_event_occurs(h, P2, wa, init, (1,), 2)  # v1 outside large 2
    assert not chain_event_occurs(h, P2, wa, init, (1, 0), 2)  # wrong direction


def test_extraction_agrees_with_event_predicate():
    # every extracted ordered chain is an occurrence of its own event
    rng = np.random.default_rng(21)
    hits = 0
    for _ in range(400):
        m = int(rng.integers(2, 14))
        r = int(rng.integers(2, 4))
        n = int(rng.integers(2, min(m, 4) + 1))
        ne = int(rng.integers(1, min(math.comb(m, n), 7) + 1))
        h = _random_instance(m, n, ne, rng)
        part = IntervalPartition(choose_p(max(n, 3), r), r)
        wa = sample_weights(m, int(rng.integers(0, 2**32)))
        init = run_interval_coloring(h, r, part, wa)
        cols = init.coloring.colors
        for idx, e in enumerate(h.edges):
            c = cols[e[0]]
            if all(cols[v] == c for v in e[1:]):
                rec = extract_chain(h, part, wa, init, MonoEdge(idx, c))
                validate_chain(h, part, wa, init, rec)
                assert chain_event_occurs(h, part, wa, init, rec.edges, rec.color)
                hits += 1
    assert hits > 20  # the sweep actually exercised the extraction


def _random_instance(m, n, ne, rng):
    edges = set()
    while len(edges) < ne:
        edges.add(tuple(sorted(rng.choice(m, size=n, replace=False).tolist())))
    return Hypergraph(m, n, sorted(edges))


def test_enumerate_two_chains_on_three_edges():
    h = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    count, seqs = enumerate_chain_candidates(h, 2)
    assert count == 2
    assert sorted(seqs) == [(0, 1), (1, 0)]
    assert count <= 2 * math.comb(3, 2)


def test_enumerate_one_chains_lists_every_edge():
    h = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    count, seqs = enumerate_chain_candidates(h, 1)
    assert count == 3 and sorted(seqs) == [(0,), (1,), (2,)]


def test_enumerate_path_has_exactly_two_orientations():
    h = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    count, seqs = enumerate_chain_candidates(h, 3)
    assert count == 2
    assert sorted(seqs) == [(0, 1, 2), (2, 1, 0)]


def test_enumerate_reversal_symmetry_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        m = int(rng.integers(4, 9))
        ne = int(rng.integers(1, min(math.comb(m, 3), 5) + 1))
        h = _random_instance(m, 3, ne, rng)
        for k in range(1, len(h.edges) + 1):
            count, seqs = enumerate_chain_candidates(h, k)
            assert count <= 2 * math.comb(len(h.edges), k)
            seen = set(seqs)
            for s in seqs:
                assert tuple(reversed(s)) in seen


def test_enumerate_complex_fixed_last_edge():
    h = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    count, seqs = enumerate_chain_candidates(h, 2, kind=COMPLEX, last_edge=1)
    assert count == 1 and seqs == [(0, 1)]
    assert count <= 2 * math.comb(3, 1)
    count2, seqs2 = enumerate_chain_candidates(h, 2, kind=COMPLEX, last_edge=2)
    assert count2 == 0 and seqs2 == []


def test_enumerate_complex_requires_last_edge_and_k2():
    h = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(ValueError):
        enumerate_chain_candidates(h, 2, kind=COMPLEX)
    with pytest.raises(ValueError):
        enumerate_chain_candidates(h, 1, kind=COMPLEX, last_edge=0)


def test_enumerate_budget():
    h = Hypergraph(8, 2, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    with pytest.raises(BudgetExceeded):
        enumerate_chain_candidates(h, 3, budget=10)


def test_enumerate_rejects_last_edge_out_of_range():
    # -1 used to alias the final edge and name it twice in a complex chain
    h = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    for last in (-1, 3):
        with pytest.raises(ValueError):
            enumerate_chain_candidates(h, 2, kind=COMPLEX, last_edge=last)
        with pytest.raises(ValueError):
            enumerate_chain_candidates(h, 2, last_edge=last)


def _enumerate_two_walks(h, k, kind=ORDERED, last_edge=None, budget=10**7):
    """enumerate_chain_candidates as it was with one walk per pattern, kept
    as the reference for the single grower."""
    edges = [set(e) for e in h.edges]
    num = len(edges)
    visits = 0
    results = []

    def bump():
        nonlocal visits
        visits += 1
        if visits > budget:
            raise BudgetExceeded(f"candidate enumeration exceeded budget {budget}")

    if kind == ORDERED:

        def grow(seq):
            bump()
            if len(seq) == k:
                results.append(tuple(reversed(seq)))
                return
            head = edges[seq[-1]]
            earlier = seq[:-1]
            for cand in range(num):
                if cand in seq:
                    continue
                if len(edges[cand] & head) != 1:
                    continue
                if any(edges[cand] & edges[e] for e in earlier):
                    continue
                seq.append(cand)
                grow(seq)
                seq.pop()

        for s in range(num) if last_edge is None else [last_edge]:
            grow([s])
        return len(results), results

    target = edges[last_edge]

    def grow_c(seq):
        bump()
        if len(seq) == k - 1:
            results.append(tuple(reversed(seq)) + (last_edge,))
            return
        head = edges[seq[-1]] if seq else None
        for cand in range(num):
            if cand == last_edge or cand in seq:
                continue
            if head is None:
                if not edges[cand] & target:
                    continue
            else:
                if len(edges[cand] & head) != 1:
                    continue
                if any(edges[cand] & edges[e] for e in seq[:-1]):
                    continue
            seq.append(cand)
            grow_c(seq)
            seq.pop()

    grow_c([])
    return len(results), results


def test_one_grower_matches_two_walk_reference():
    rng = np.random.default_rng(47)
    complex_hits = 0
    for _ in range(300):
        m = int(rng.integers(4, 10))
        ne = int(rng.integers(1, min(math.comb(m, 3), 6) + 1))
        h = _random_instance(m, 3, ne, rng)
        for k in range(1, ne + 1):
            assert enumerate_chain_candidates(h, k) == _enumerate_two_walks(h, k)
            for last in range(ne):
                got = enumerate_chain_candidates(h, k, last_edge=last)
                assert got == _enumerate_two_walks(h, k, last_edge=last)
                if k >= 2:
                    got = enumerate_chain_candidates(h, k, kind=COMPLEX, last_edge=last)
                    assert got == _enumerate_two_walks(h, k, kind=COMPLEX, last_edge=last)
                    complex_hits += got[0]
    assert complex_hits > 100  # the sweep found complex chains to compare


def test_one_grower_exceeds_budget_where_the_reference_does():
    # a run fits a budget iff it makes at most that many visits, so the
    # smallest budget that fits is found by bisection and pins the count
    k8 = Hypergraph(8, 2, [(i, j) for i in range(8) for j in range(i + 1, 8)])

    def fits(enumerate_, kind, last, k, budget):
        try:
            enumerate_(k8, k, kind=kind, last_edge=last, budget=budget)
            return True
        except BudgetExceeded:
            return False

    for kind, last, k in ((ORDERED, None, 3), (ORDERED, 0, 4), (COMPLEX, 5, 4), (COMPLEX, 0, 3)):
        caps = []
        for enumerate_ in (enumerate_chain_candidates, _enumerate_two_walks):
            lo, hi = 0, 10**6  # lo never fits, hi always does
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if fits(enumerate_, kind, last, k, mid) else (mid, hi)
            assert not fits(enumerate_, kind, last, k, hi - 1)
            caps.append(hi)
        assert caps[0] == caps[1] > 1, (kind, last, k, caps)


def test_bound_spot_values():
    assert chain_probability_bound(100, 2, 1) == pytest.approx(3.385737404144304e-31, rel=1e-9)
    assert mono_edge_probability_bound() == pytest.approx(0.04 * math.e, abs=1e-15)
    assert mono_edge_probability_bound() == pytest.approx(0.10873127313836181, abs=1e-12)
    assert expected_deflections_bound(100, 2) == pytest.approx(1.1805347983576451, rel=1e-9)
    assert dangerous_count_bound(100, 2) == pytest.approx(10.857362047581296, rel=1e-9)


def test_bound_chain_decays_in_k():
    values = [chain_probability_bound(100, 2, k) for k in (1, 2, 3)]
    assert values[0] > values[1] > values[2] > 0
