"""The four benchmark workloads: seeded instances and the operations of each batch.

Instances are drawn by this module's own numpy code, never by
``eqcolor.generate_random``, so a change to the program cannot change its
own inputs.  Each instance keeps its edge rows as an (|E| x n) array for the
independent output checks and is handed to the program only as text.

Every random choice is a pure function of the workload seed, so the same
seed and batch count give the same inputs, solver seeds and MC seeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

WORKLOADS = ("solve-sparse", "solve-restart", "mc-scale", "exact-small")

# CPU seconds one batch took at the commit that defined the benchmark, on a
# 2-core x86 virtual machine.  The batch count is fixed from --seconds with these, so
# two commits measured with the same --seconds run exactly the same work.
BATCH_SECONDS = {
    "solve-sparse": 0.6,
    "solve-restart": 0.3,
    "mc-scale": 1.2,
    "exact-small": 4.3,
}
MIN_BATCHES = 4


@dataclass
class Instance:
    """One generated hypergraph: its text for the program, its rows for the checks."""

    m: int
    n: int
    rows: np.ndarray
    # r at which no proper r-coloring exists because a complete n-uniform
    # hypergraph on (n-1) r + 1 vertices is planted; None when not built so
    infeasible_r: Optional[int] = None

    @property
    def text(self) -> str:
        lines = [f"{self.m} {self.n} {len(self.rows)}"]
        lines.extend(" ".join(map(str, row)) for row in self.rows.tolist())
        return "\n".join(lines) + "\n"


@dataclass
class Op:
    """One call into the program.  ``kind`` is "solve" (solve_equitable),
    "mc" (mc_estimate) or "oracle" (brute_force_equitable)."""

    kind: str
    inst: int
    r: int
    seed: int = 0
    quantity: str = ""
    params: Optional[dict] = None
    trials: int = 0
    # how an mc estimate is checked: "exact" against its exact comparison
    # value, "reference" against a benchmark-side estimate, "sane" for a
    # finite non-negative mean over the requested trials
    check: str = ""


@dataclass
class Workload:
    instances: list
    batches: list  # batches[j] is the list of Ops of batch j


def batch_count(name: str, seconds: float) -> int:
    return max(MIN_BATCHES, round(seconds / BATCH_SECONDS[name]))


def _seed(seed: int, *path: int) -> int:
    ss = np.random.SeedSequence((seed,) + path)
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed,) + path))


def random_rows(rng: np.random.Generator, m: int, n: int, num_edges: int) -> np.ndarray:
    """``num_edges`` distinct n-subsets of 0..m-1 as sorted rows, in draw order."""
    rows = np.empty((0, n), dtype=np.int64)
    while len(rows) < num_edges:
        cand = np.sort(rng.integers(0, m, size=(2 * (num_edges - len(rows)) + 16, n)), axis=1)
        cand = cand[np.all(cand[:, 1:] != cand[:, :-1], axis=1)]
        rows = np.concatenate([rows, cand])
        _, first = np.unique(rows, axis=0, return_index=True)
        rows = rows[np.sort(first)]
    return rows[:num_edges]


def random_instance(rng, m: int, n: int, num_edges: int) -> Instance:
    return Instance(m, n, random_rows(rng, m, n, num_edges))


def planted_instance(rng, m: int, n: int, num_edges: int, r: int) -> Instance:
    """Random edges on the first vertices plus every n-subset of the last
    (n-1) r + 1 vertices.  Any r-coloring puts n of those last vertices in
    one class, so no proper r-coloring exists."""
    k = (n - 1) * r + 1
    planted = np.array(list(itertools.combinations(range(m - k, m), n)), dtype=np.int64)
    rows = random_rows(rng, m - k, n, num_edges) if num_edges else planted[:0]
    return Instance(m, n, np.concatenate([rows, planted]), infeasible_r=r)


def build(name: str, seed: int, batches: int) -> Workload:
    make = {
        "solve-sparse": _solve_sparse,
        "solve-restart": _solve_restart,
        "mc-scale": _mc_scale,
        "exact-small": _exact_small,
    }[name]
    wid = WORKLOADS.index(name)
    instances, make_batch = make(seed, wid)
    return Workload(instances, [make_batch(j) for j in range(batches)])


def _solve_sparse(seed, wid):
    # Accept path at scale: about 4 in 5 solves succeed on the first
    # two-stage attempt and rebalancing closes the gap.  One solve per
    # batch, so the median batch is a first-attempt solve; denser instances
    # would put it near the border with second-attempt solves.
    instances = [random_instance(_rng(seed, wid, 0, i), 100_000, 8, 10_000) for i in range(2)]

    def batch(j):
        return [Op("solve", j % 2, 4, seed=_seed(seed, wid, 1, j))]

    return instances, batch


def _solve_restart(seed, wid):
    # Reject path: about six in seven attempts end on a monochromatic edge,
    # below the density cliff where attempts grow by orders of magnitude.
    # Many small solves on a pool of 32 instances keep the total work nearly
    # seed-independent.
    shapes = ((1000, 6, 1200, 3), (1000, 10, 2200, 2))
    instances, rs = [], []
    for i in range(16):
        for s, (m, n, e, r) in enumerate(shapes):
            instances.append(random_instance(_rng(seed, wid, 0, i, s), m, n, e))
            rs.append(r)

    def batch(j):
        first = 8 * (j % 4)
        return [Op("solve", first + k, rs[first + k], seed=_seed(seed, wid, 1, j, k)) for k in range(8)]

    return instances, batch


def _mc_scale(seed, wid):
    # The MC kernel alone: no solver code runs.  Each batch draws fresh MC
    # seeds and takes its instances from pools of four per shape, so the
    # work of a run does not hinge on one instance.
    small = [random_instance(_rng(seed, wid, 0, 0, i), 200, 5, 60) for i in range(4)]
    large = [random_instance(_rng(seed, wid, 0, 1, i), 1000, 8, 400) for i in range(4)]

    def batch(j):
        def s(k):
            return _seed(seed, wid, 1, j, k)

        return [
            Op("mc", j % 4, 2, s(0), "mono-edge", {}, 1000, "reference"),
            Op("mc", 4 + j % 4, 3, s(1), "mono-edge", {}, 300, "reference"),
            Op("mc", 4 + (j + 1) % 4, 3, s(2), "dangerous-count", {}, 300, "sane"),
            Op("mc", 4 + (j + 2) % 4, 3, s(3), "expected-deflections", {"i": 1}, 300, "sane"),
        ]

    return small + large, batch


def _exact_small(seed, wid):
    # Tiny instances: the only workload that runs the exact oracles, the
    # balanced route and greedy repair.  Every batch repeats the same
    # solves and estimates, so each 3-sigma check against the exact oracle
    # is made on one estimate per run, not one per batch.  The brute-force
    # calls take 3 of 12 instances per batch, because their search time
    # varies most between instances.
    complete = Instance(6, 3, np.array(list(itertools.combinations(range(6), 3))), infeasible_r=2)
    mono = random_instance(_rng(seed, wid, 0, 0), 7, 3, 5)
    defl = random_instance(_rng(seed, wid, 0, 1), 7, 3, 6)
    balanced = [random_instance(_rng(seed, wid, 0, 2, i), 120, 20, 60) for i in range(4)]
    # m = 250 puts the keep probability above 1 at n = 6, r = 3, so the
    # rebalance plan raises RegimeViolation and greedy repair closes the gap
    repair = [random_instance(_rng(seed, wid, 0, 3, i), 250, 6, 125) for i in range(4)]
    brute = [planted_instance(_rng(seed, wid, 0, 4, i), 19, 3, 4, 2) for i in range(12)]
    instances = [complete, mono, defl] + balanced + repair + brute

    degree = np.bincount(defl.rows.ravel(), minlength=defl.m)
    watched = int(np.argmax(degree))
    ops = [
        Op("solve", 0, 2, seed=_seed(seed, wid, 1, 0)),
        Op("mc", 1, 2, _seed(seed, wid, 2, 0), "mono-edge", {}, 2000, "exact"),
        Op("mc", 2, 2, _seed(seed, wid, 2, 1), "deflected", {"v": watched}, 2000, "exact"),
    ]
    ops += [Op("solve", 3 + i, 4, seed=_seed(seed, wid, 1, 1, i)) for i in range(4)]
    ops += [Op("solve", 7 + i, 3, seed=_seed(seed, wid, 1, 2, i)) for i in range(4)]

    def batch(j):
        return ops + [Op("oracle", 11 + (3 * j + i) % 12, 2) for i in range(3)]

    return instances, batch
