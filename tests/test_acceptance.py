"""Release gates for the library.

One test per headline guarantee, each at a pinned tolerance and seed, each
printing a single [PASS]/[FAIL] line (visible under ``pytest -s``).  The
gates favor exhaustive small-instance oracles over sampling wherever the
domain fits in the time budget; where it does not, seeded samples extend
the exhaustive core.
"""

import contextlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from eqcolor import (
    IMPROPER,
    ORDERED,
    ChainEventSpec,
    Deflected,
    Hypergraph,
    IntervalPartition,
    MonoEdge,
    MonoEdgeExists,
    SolveConfig,
    apply_recolor,
    balanced_mono_prob,
    brute_force_equitable,
    build_rebalance_plan,
    chain_probability_bound,
    choose_p,
    class_targets,
    compute_p_tilde,
    compute_q,
    dangerous_count_bound,
    edge_threshold,
    exact_c0_event_prob,
    excess_shortage,
    expected_deflections_bound,
    extract_chain,
    generate_random,
    greedy_repair,
    is_equitable,
    is_proper,
    mc_estimate,
    mono_edge_probability_bound,
    parse_hypergraph,
    run_interval_coloring,
    sample_weights,
    solve_equitable,
    validate_chain,
)
from eqcolor.chains import COMPLEX

from _reference import counts, enumerate_chains


@contextlib.contextmanager
def gate(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def _random_edges(rng, m, n, ne):
    edges = set()
    while len(edges) < ne:
        edges.add(tuple(sorted(rng.choice(m, n, replace=False).tolist())))
    return sorted(edges)


# ---------------------------------------------------------------------------
# exact formula vs enumeration


def test_balanced_mono_formula_matches_enumeration():
    """The closed-form mono-edge probability under a uniform balanced draw
    equals brute-force enumeration over every balanced coloring, as exact
    rationals, for all m <= 8 with r in {2, 4} dividing m and 2 <= n <= m."""
    cases = 0
    with gate("balanced mono-edge formula = exhaustive enumeration (exact rationals)"):
        for m in (2, 4, 6, 8):
            for r in (2, 4):
                if m % r:
                    continue
                size = m // r
                base = []
                for c in range(r):
                    base += [c + 1] * size
                colorings = set(itertools.permutations(base))
                for n in range(2, m + 1):
                    mono = sum(1 for cl in colorings if len(set(cl[:n])) == 1)
                    want = Fraction(mono, len(colorings))
                    got = balanced_mono_prob(m, n, r)
                    assert got.exact == want, (m, n, r)
                    assert got.value == float(want)
                    cases += 1
        assert cases == 26


# ---------------------------------------------------------------------------
# determinism of the two-stage coloring


def test_interval_coloring_deterministic():
    """Rebuilding the same instance, partition, and weights from scratch
    reproduces the coloring bit for bit, deflection and occupancy vectors
    included."""
    rng = np.random.default_rng(2)
    with gate("two-stage coloring bitwise deterministic on 100 rebuilt instances"):
        for _ in range(100):
            n = int(rng.integers(3, 6))
            r = int(rng.integers(2, 4))
            m = int(rng.integers(max(n, r), 31))
            ne = int(rng.integers(0, min(math.comb(m, n), 3 * m) + 1))
            edges = _random_edges(rng, m, n, ne)
            p = float(rng.uniform(0.05, 0.45))
            wseed = int(rng.integers(0, 2**32))
            a = run_interval_coloring(
                Hypergraph(m, n, edges), r, IntervalPartition(p, r), sample_weights(m, wseed)
            )
            b = run_interval_coloring(
                Hypergraph(m, n, edges), r, IntervalPartition(p, r), sample_weights(m, wseed)
            )
            assert a.coloring == b.coloring
            assert counts(a) == counts(b)
            assert all(np.array_equal(x, y) for x, y in zip(a.deflected, b.deflected))
            assert a.coloring.to_json_dict() == b.coloring.to_json_dict()


# ---------------------------------------------------------------------------
# class-size identity and chain extraction share one batch of runs


@pytest.fixture(scope="module")
def coloring_runs():
    rng = np.random.default_rng(2026)
    runs = []
    for _ in range(10_000):
        n = int(rng.integers(3, 6))
        r = int(rng.integers(2, 4))
        m = int(rng.integers(max(n, r), 31))
        ne = int(rng.integers(0, min(math.comb(m, n), 3 * m) + 1))
        h = Hypergraph(m, n, _random_edges(rng, m, n, ne))
        part = IntervalPartition(float(rng.uniform(0.05, 0.45)), r)
        weights = sample_weights(m, int(rng.integers(0, 2**32)))
        runs.append((h, r, run_interval_coloring(h, r, part, weights)))
    return runs


def test_class_size_identity(coloring_runs):
    """size(K_i) = Z(i) - X(i) + X(i-1) on every run, with X(0) = X(r) = 0."""
    with gate("class-size identity holds on all 10000 randomized runs"):
        for h, r, init in coloring_runs:
            deflections, occupancy = counts(init)
            for i in range(1, r + 1):
                x_i = deflections[i - 1] if i < r else 0
                x_prev = deflections[i - 2] if i >= 2 else 0
                assert init.coloring.sizes[i - 1] == occupancy[i - 1] - x_i + x_prev, (
                    h.m,
                    h.n,
                    r,
                    i,
                )


def test_failure_events_yield_valid_chains(coloring_runs):
    """Every monochromatic edge extracts to an ordered chain and every
    deflected vertex to an improper chain, and each record passes the full
    structural validator."""
    mono_hits = improper_hits = 0
    with gate("all mono edges / deflections certify as valid chains (10000 runs)"):
        for h, r, init in coloring_runs:
            cols = init.coloring.colors
            for ei, edge in enumerate(h.edge_array.tolist()):
                c = cols[edge[0]]
                if c and all(cols[v] == c for v in edge):
                    rec = extract_chain(h, init, MonoEdge(ei, c))
                    assert rec.kind == ORDERED
                    validate_chain(h, init, rec)
                    mono_hits += 1
            for v in init.deflected[0].tolist():
                s = init.partition.slot_of(init.weights[v])
                assert s % 2 == 1  # small_i is slot 2i-1
                rec = extract_chain(h, init, Deflected(v, s // 2 + 1))
                assert rec.kind == IMPROPER
                validate_chain(h, init, rec)
                improper_hits += 1
        assert mono_hits > 1000
        assert improper_hits > 1000


# ---------------------------------------------------------------------------
# candidate counting bounds


def _counts_within_bounds(h):
    ne = len(h.edge_array)
    for k in range(1, ne + 1):
        count, seqs = enumerate_chains(h, k)
        assert count == len(seqs)
        assert count <= 2 * math.comb(ne, k), (h.edge_array.tolist(), k)
    for last in range(ne):
        for k in range(2, ne + 1):
            count, _ = enumerate_chains(h, k, kind=COMPLEX, last_edge=last)
            assert count <= 2 * math.comb(ne, k - 1), (h.edge_array.tolist(), k, last)


def test_candidate_enumeration_bounds():
    """Candidate chains never exceed 2*C(|E|,k), nor 2*C(|E|,k-1) with the
    last edge fixed: exhaustive over all 3-uniform edge sets with m <= 6 and
    |E| <= 5, extended by seeded samples at m in {7, 8, 9}."""
    checked = 0
    with gate("chain candidate counts within 2*C(|E|,k) on 24451 edge sets"):
        for m in (4, 5, 6):
            pool = list(itertools.combinations(range(m), 3))
            for e in range(1, 6):
                if e > len(pool):
                    break
                for edges in itertools.combinations(pool, e):
                    _counts_within_bounds(Hypergraph(m, 3, edges))
                    checked += 1
        rng = np.random.default_rng(55)
        for m in (7, 8, 9):
            pool = list(itertools.combinations(range(m), 3))
            for _ in range(700):
                e = int(rng.integers(1, 6))
                idx = rng.choice(len(pool), e, replace=False)
                _counts_within_bounds(Hypergraph(m, 3, [pool[i] for i in idx]))
                checked += 1
        assert checked == 24451


# ---------------------------------------------------------------------------
# the chain lemma, exactly


def test_chain_lemma_exact():
    """Every monochromatic edge is certified by an ordered chain, so the
    exact P(some edge is monochromatic) is at most the sum of the exact
    ChainEventSpec probabilities over every enumerated k-chain and every
    color it can end in (1 <= k <= color <= r), on ten tiny instances."""
    single = Hypergraph(2, 2, [(0, 1)])
    path4 = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    path5 = Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])
    cyc6 = Hypergraph(6, 2, [(i, (i + 1) % 6) for i in range(6)])
    tri = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])
    k4 = Hypergraph(4, 2, list(itertools.combinations(range(4), 2)))
    # three triangles around a fourth, sharing one vertex with it each
    tri4 = Hypergraph(7, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (1, 3, 5)])
    cases = [(single, 2), (path4, 2), (path5, 2), (cyc6, 2), (tri, 2), (path4, 3), (k4, 3)]
    cases += [(cyc6, 3), (tri, 3), (tri4, 2)]
    with gate("P(mono edge) <= sum of exact chain-event probabilities on 10 instances"):
        for h, r in cases:
            events = [
                ChainEventSpec(seq, color)
                for k in range(1, r + 1)
                for seq in enumerate_chains(h, k)[1]
                for color in range(k, r + 1)
            ]
            mono, *chains = exact_c0_event_prob(h, r, [MonoEdgeExists(), *events])
            assert mono <= sum(chains), (h.edge_array.tolist(), r)


# ---------------------------------------------------------------------------
# solver soundness and completeness at desk scale


def test_solver_sound_and_complete_at_small_scale():
    """Across exhaustive 2-uniform instances (m <= 5, every edge subset) and
    seeded samples up to m = 9, with r in {2, 3}: no returned coloring is
    ever invalid and every oracle-feasible instance is solved within the
    restart budget."""

    def instances():
        for m in (2, 3, 4, 5):
            pool = list(itertools.combinations(range(m), 2))
            for bits in range(2 ** len(pool)):
                yield Hypergraph(
                    m, 2, [pool[i] for i in range(len(pool)) if bits >> i & 1]
                )
        rng = np.random.default_rng(5)
        for m, n, count in ((6, 2, 60), (7, 2, 60), (8, 2, 60), (5, 3, 40), (7, 3, 40), (9, 3, 40)):
            pool = list(itertools.combinations(range(m), n))
            for _ in range(count):
                ne = int(rng.integers(0, min(len(pool), 2 * m) + 1))
                idx = rng.choice(len(pool), ne, replace=False) if ne else []
                yield Hypergraph(m, n, [pool[i] for i in idx])

    total = feasible = invalid = missed = 0
    with gate("solver: zero invalid colorings, 100% of feasible instances solved"):
        for h in instances():
            for r in (2, 3):
                total += 1
                if r > h.m:
                    # a class would stay empty: the rule on r refuses it
                    with pytest.raises(ValueError, match="exceeds"):
                        solve_equitable(h, r)
                    continue
                oracle = brute_force_equitable(h, r)
                restarts = 10_000 if oracle is not None else 40
                rep = solve_equitable(
                    h, r, SolveConfig(seed=17, max_restarts=restarts, enumeration_budget=0)
                )
                if rep.outcome == "success":
                    if not is_equitable(h, rep.coloring):
                        invalid += 1
                if oracle is not None:
                    feasible += 1
                    if rep.outcome != "success":
                        missed += 1
        assert total == 2796
        assert feasible > 1500
        assert invalid == 0
        assert missed <= feasible * 0.01
        assert missed == 0


# ---------------------------------------------------------------------------
# Monte Carlo calibration against the exact oracle


def test_mc_estimates_match_exact_oracle():
    """10^6-trial estimates sit inside their own 3-sigma half-width around
    the exact enumerated probability on five fixed instances covering
    mono-edge, deflection, and chain events."""
    single = Hypergraph(2, 2, [(0, 1)])
    tri = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])
    path5 = Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])
    path4 = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    cyc8 = Hypergraph(8, 2, [(i, (i + 1) % 8) for i in range(8)])
    probes = [
        (single, "mono-edge", {"p": 0.2}, 101, 0.32000000000000006),
        (tri, "mono-edge", {}, 102, 0.41634184975008515),
        (path5, "deflected", {"v": 2}, 103, 0.18133562109530227),
        (path4, "chain-event", {"edges": (0, 1), "color": 2}, 104, 0.057456259993604916),
        (cyc8, "mono-edge", {}, 105, 0.9534258842126974),
    ]
    with gate("Monte Carlo within 3-sigma of the exact oracle on 5 instances"):
        for h, quantity, params, seed, exact in probes:
            rep = mc_estimate(
                quantity, h, 2, params=params, trials=10**6, seed=seed, compare=False
            )
            assert abs(rep.estimate - exact) <= rep.half_width, (quantity, seed)


# ---------------------------------------------------------------------------
# rebalance safety


def test_rebalance_safety():
    """On 1000 scenarios whose shortage is confined to the last color, a
    feasible recoloring plan always lands exactly on the class targets
    without breaking properness."""
    rng = np.random.default_rng(7)
    scenarios = applied = tries = 0
    with gate("rebalancing hits exact targets and stays proper (1000 scenarios)"):
        while scenarios < 1000 and tries < 30_000:
            tries += 1
            r = int(rng.integers(2, 4))
            m = int(rng.integers(6, 25))
            m -= m % r
            if m < 2 * r:
                continue
            ne = int(rng.integers(1, min(math.comb(m, 2), 8) + 1))
            h = Hypergraph(m, 2, _random_edges(rng, m, 2, ne))
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
                h,
                init,
                targets,
                seed=int(rng.integers(0, 2**32)),
                p_tilde=float(rng.uniform(0.3, 1.0)),
            )
            scenarios += 1
            if plan.feasible:
                after = apply_recolor(coloring, plan.wsets)
                assert is_proper(h, after)
                assert list(after.sizes) == targets
                applied += 1
        assert scenarios == 1000
        assert applied >= 300


# ---------------------------------------------------------------------------
# closed-form calculators


def test_bound_spot_values():
    """The threshold, parameter, and bound calculators reproduce frozen
    hand-checked values: the mono-edge constant to 1e-12, everything else
    to relative 1e-9."""
    with gate("closed-form calculators reproduce frozen spot values"):
        assert mono_edge_probability_bound() == pytest.approx(
            0.10873127313836181, abs=1e-12
        )
        p100 = choose_p(100, 2)
        q = compute_q(10**4, 100, 2, p100)
        spots = [
            (edge_threshold(100, 2).value, 2.9535663302651655e28),
            (edge_threshold(4, 2).value, 0.13589148804608305),
            (p100, 0.01538995280090095),
            (choose_p(1000, 3), 0.003316740363377381),
            (choose_p(100, 3), 0.020519937067867935),
            (q, 534.0430709897241),
            (compute_p_tilde(10**4, 100, 2, p100), 0.10847808683425605),
            (chain_probability_bound(100, 2, 1), 3.385737404144304e-31),
            (expected_deflections_bound(100, 2), 1.1805347983576451),
            (dangerous_count_bound(100, 2), 10.857362047581296),
        ]
        for got, want in spots:
            assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# partition soundness


def test_partition_soundness():
    """For 1000 random (p, r) the subinterval lengths sum to one within
    1e-12 and slot_of() maps every subinterval midpoint back to its owner."""
    rng = np.random.default_rng(10)
    with gate("partition lengths sum to 1 and slot_of() finds every owner (1000 draws)"):
        for _ in range(1000):
            r = int(rng.integers(2, 8))
            p = float(rng.uniform(0.01, 0.9))
            part = IntervalPartition(p, r)
            # the closed forms: large blocks (1 - p)/r, small ones p/(r - 1)
            lengths = [(1.0 - p) / r, p / (r - 1)] * (r - 1) + [(1.0 - p) / r]
            assert len(lengths) == 2 * r - 1
            assert abs(sum(lengths) - 1.0) <= 1e-12
            left = 0.0
            for s, width in enumerate(lengths):
                mid = left + width / 2
                assert part.slot_of(mid) == s, (p, r, s)
                left += width


# ---------------------------------------------------------------------------
# memory linear in m


def _peak(call):
    """The ``tracemalloc`` peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _layer_peaks(m, rejecting_seed):
    """Each layer's peak on (m, 8, m / 10) at r = 4.  Seed 0 gives a proper
    two-stage run and a solve accepted on attempt 1; ``rejecting_seed`` a
    one-attempt solve rejected on a monochromatic edge."""
    r = 4
    h = generate_random(m, 8, m // 10, 1)
    text, targets = h.to_text(), class_targets(m, r)
    init = run_interval_coloring(h, r, IntervalPartition(choose_p(8, r), r), sample_weights(m, 0))
    assert is_proper(h, init.coloring) and not is_equitable(h, init.coloring)
    solved = solve_equitable(h, r, SolveConfig(seed=0, max_restarts=1))
    rejected = solve_equitable(h, r, SolveConfig(seed=rejecting_seed, max_restarts=1))
    assert solved.coloring is not None and rejected._rejected is not None
    peaks = {
        "parse": lambda: parse_hypergraph(text),
        "is_equitable": lambda: is_equitable(h, solved.coloring),
        "solve": lambda: solve_equitable(h, r, SolveConfig(seed=0, max_restarts=1)),
        "plan": lambda: build_rebalance_plan(h, init, targets, 0),
        "repair": lambda: greedy_repair(h, init.coloring, targets, weights=init.weights),
        # a fresh report: chains are built on their first read
        "chains": lambda: solve_equitable(
            h, r, SolveConfig(seed=rejecting_seed, max_restarts=1)
        ).chains,
        **{
            q: lambda q=q: mc_estimate(q, h, r, trials=20, seed=0, compare=False)
            for q in ("mono-edge", "dangerous-count", "balanced-mono")
        },
    }
    return {layer: _peak(call) for layer, call in peaks.items()}


def test_layer_memory_grows_linearly_in_m():
    """Every layer's tracemalloc peak grows at most 4.5x from m = 2 10^4 to
    8 10^4 on (m, 8, m / 10) at r = 4: memory linear in m, with no
    quadratic cliff.  The ratios read 3.9-4.1 for parse and the solver's
    layers, and 0.7-1.2 for the 20-trial Monte Carlo runs, whose
    sub-batches shrink as m grows."""
    with gate("tracemalloc peaks grow at most 4.5x for 4x the vertices"):
        small, large = _layer_peaks(20_000, 33), _layer_peaks(80_000, 21)
        ratios = {layer: large[layer] / small[layer] for layer in small}
        print({layer: round(ratio, 2) for layer, ratio in ratios.items()})
        assert max(ratios.values()) <= 4.5, ratios
