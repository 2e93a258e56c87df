"""Las Vegas construction of equitable colorings.

Small instances (m below n^2 (r-1) / (2 ln n)) draw colorings at the target
class sizes directly and keep the first proper one.  Larger instances run
the two-stage interval coloring, reject on any monochromatic edge, then
close the gap between class sizes and targets: the rebalancing pass when
the shortage is confined to color r, then a greedy repair.  Every
candidate is verified before it is returned, so the output is correct
whenever there is one; only the number of restarts is random.

Attempts of both routes run through one loop, which reads one stream of
the attempts with no monochromatic edge (``_proper_attempts``) and counts
the attempts skipped between them as rejected.  The stream screens its
attempts as arrays in batches of 1, 4, 16, ... attempts.  A route picks
only how a batch is drawn and colored: ``sample_weights`` rows and one
kernel call, or permutations cut at the class targets
(``intervals._balanced_colors``).  Where an edge inside one large block is
expected in an attempt (``_screens_large_blocks``), the two-stage rows that
hold one are rejected from their slots before the kernel runs, as stage 2
leaves that edge monochromatic; only the other rows are colored.  One edge
scan per batch finds the proper rows, and a row's record and coloring are
built only when the loop pulls it.  The report replays the last rejected
two-stage attempt through both stages, and builds its chains, only when
they are read.  Attempts are seeded in blocks of ``_BLOCK`` by the rule of
``seeding``, so batching and the screen change no report, and any attempt
can be drawn again on its own.

At desk scale the per-attempt success probability carries no guarantee, so
after exhausting its restarts the solver consults the brute-force oracle
when the instance fits the enumeration budget, separating "provably no
equitable coloring" from "gave up".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .chains import ChainRecord, MonoEdge, extract_chain
from .hypergraph import (
    Coloring,
    Hypergraph,
    _check_colors,
    _check_targets,
    _integer,
    _mono_edges,
    _power_exceeds,
    _reals,
    brute_force_equitable,
    class_targets,
    is_equitable,
    is_proper,
)
from .intervals import (
    InitialColoring,
    IntervalPartition,
    _balanced_colors,
    _large_block_rows,
    choose_p,
    run_interval_coloring,
    sample_weights,
)
from .rebalance import (
    RegimeViolation,
    RebalancePlan,
    _excess_pattern_holds,
    apply_recolor,
    build_rebalance_plan,
)
from .seeding import ROLE_BALANCED, ROLE_VSETS, ROLE_WEIGHTS, _draw_rows, _streams, derive

__all__ = [
    "AUTO",
    "BALANCED_ONLY",
    "EXHAUSTED",
    "INFEASIBLE",
    "SUCCESS",
    "TWO_STAGE_ONLY",
    "SolveConfig",
    "SolveReport",
    "greedy_repair",
    "solve_equitable",
]

AUTO = "auto"
BALANCED_ONLY = "balanced-only"
TWO_STAGE_ONLY = "two-stage-only"

SUCCESS = "success"
EXHAUSTED = "exhausted"
INFEASIBLE = "infeasible-by-oracle"

PATH_BALANCED = "balanced"
PATH_TWO_STAGE = "two-stage"

# attempts that share one derived generator (see ``seeding``)
_BLOCK = 64
# cap on the cells one batch of attempts gathers, attempts x max(m, n x |E|):
# a solve that stops inside a batch has colored the rest of it for nothing,
# but each kernel call has a fixed cost several rows long, so batches grow
# fourfold up to it; at m = 100 000 this cap keeps every batch at one
# attempt; the batch sizes change no draw
_SUB_BATCH_CELLS = 1 << 17


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0
    max_restarts: int = 10_000
    enumeration_budget: int = 10**6
    force_path: str = AUTO
    allow_fallback_repair: bool = True
    strict_divisibility: bool = False

    def __post_init__(self) -> None:
        for name, least in (("seed", None), ("max_restarts", 1), ("enumeration_budget", None)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if self.force_path not in (AUTO, BALANCED_ONLY, TWO_STAGE_ONLY):
            raise ValueError(f"unknown path choice {self.force_path!r}")


@dataclass
class SolveReport:
    """Outcome of a solve: the coloring on success, plus per-attempt failure
    counters, the chains of the last rejected run, and the last rebalance
    plan, for diagnostics.

    ``diagnostics`` counts each rejected attempt once, under its one
    reason: ``mono-edge`` (some edge is monochromatic), else
    ``repair-failed`` when repair is on and ``rebalance-infeasible`` when
    it is off (no rebalanced or repaired candidate was equitable; with
    repair off this takes a shortage not confined to color r, which
    rebalancing does not close).  A successful attempt counts under none,
    so ``attempts == sum(diagnostics.values()) + (outcome == SUCCESS)``.

    ``chains`` is built on first read and kept.  The report holds only the
    last two-stage attempt rejected on a monochromatic edge, as
    (hypergraph, partition, seed, attempt), and no array of its batch.  The
    read replays it in O(m) memory (the solve's partition, the weights drawn
    again by the block rule of ``seeding``, the two stages) and extracts
    and validates one chain per edge of one ``_mono_edges`` scan through
    ``extract_chain``: kernel rows are bit-identical at every batch size.
    A ``ChainInvalid``, which means a bug, surfaces on that read."""

    outcome: str
    coloring: Optional[Coloring]
    attempts: int
    path: str
    r: int
    diagnostics: dict = field(default_factory=dict)
    plan: Optional[RebalancePlan] = None
    oracle_feasible: Optional[bool] = None
    _rejected: Optional[tuple] = field(default=None, repr=False)

    @cached_property
    def chains(self) -> tuple[ChainRecord, ...]:
        if self._rejected is None:
            return ()
        h, partition, seed, attempt = self._rejected
        rng = derive(seed, attempt // _BLOCK, ROLE_WEIGHTS)
        for _ in range(attempt % _BLOCK + 1):
            weights = sample_weights(h.m, rng)
        init = run_interval_coloring(h, self.r, partition, weights)
        colors = init.coloring.colors
        return tuple(
            extract_chain(h, init, MonoEdge(e, int(colors[h.edge_array[e, 0]])))
            for e in np.flatnonzero(_mono_edges(h, colors)).tolist()
        )

    def to_json_dict(self, explain: bool = False) -> dict:
        out = {
            "outcome": self.outcome,
            "attempts": self.attempts,
            "path": self.path,
            "r": self.r,
            "coloring": None if self.coloring is None else self.coloring.to_json_dict(),
            "diagnostics": dict(self.diagnostics),
            "oracle_feasible": self.oracle_feasible,
        }
        if explain:
            out["chains"] = [c.to_json_dict() for c in self.chains]
            out["plan"] = None if self.plan is None else self.plan.to_json_dict()
        return out


def _route(h: Hypergraph, r: int, cfg: SolveConfig) -> str:
    if cfg.force_path == BALANCED_ONLY:
        return PATH_BALANCED
    if cfg.force_path == TWO_STAGE_ONLY:
        return PATH_TWO_STAGE
    if h.m < h.n**2 * (r - 1) / (2.0 * math.log(h.n)):
        return PATH_BALANCED
    return PATH_TWO_STAGE


def greedy_repair(
    h: Hypergraph,
    coloring: Coloring,
    targets: Sequence[int],
    weights: Optional[Sequence[float]] = None,
) -> Optional[Coloring]:
    """Move vertices from over-target classes to under-target ones whenever
    the move keeps the coloring proper, scanning vertices in increasing
    weight (vertex order when no weights are given; real numbers by
    ``hypergraph._reals``' rule).  Returns a proper coloring meeting the
    targets, or None when no move applies.  The targets must pass
    ``_check_targets``: r integers >= 0 that sum to m.

    Each move takes the first vertex in scan order that has an over-target
    color and a proper move, to the lowest under-target color that allows
    one.  One pass finds every move: classes only shrink or grow toward
    their targets and never cross them, so a vertex of an under-target
    class is never moved, a move blocked by such vertices stays blocked,
    and a vertex the scan passed over stays passed over.
    """
    if not is_proper(h, coloring):
        raise ValueError("repair requires a proper coloring")
    r = coloring.r
    targets = _check_targets(targets, r, h.m)
    if weights is None:
        order = range(h.m)
    elif (weights := _reals(weights, "weight")).shape != (h.m,):
        raise ValueError("need one weight per vertex")
    else:
        order = np.argsort(weights, kind="stable").tolist()
    colors = coloring.colors.tolist()
    sizes = list(coloring.sizes)
    indptr, indices = h.incidence

    # built once; a class leaves when it reaches its target, and under
    # keeps increasing color order
    over = {c for c in range(1, r + 1) if sizes[c - 1] > targets[c - 1]}
    under = dict.fromkeys(c for c in range(1, r + 1) if sizes[c - 1] < targets[c - 1])
    for v in order:
        if not over:
            break
        c_from = colors[v]
        if c_from not in over:
            continue
        # the rows of the edges at v, read only for the vertices tested
        rows = h.edge_array[indices[indptr[v] : indptr[v + 1]]].tolist()
        for c_to in under:
            if _move_keeps_proper(rows, colors, v, c_to):
                colors[v] = c_to
                sizes[c_from - 1] -= 1
                sizes[c_to - 1] += 1
                if sizes[c_from - 1] == targets[c_from - 1]:
                    over.remove(c_from)
                if sizes[c_to - 1] == targets[c_to - 1]:
                    del under[c_to]  # safe: the loop over under breaks here
                break
    if over:
        return None
    return Coloring._trusted(r, colors, sizes)


def _move_keeps_proper(rows, colors, v: int, c_to: int) -> bool:
    """Whether no edge at v, given as ``rows``, would turn monochromatic
    with v at ``c_to``."""
    return not any(all(colors[u] == c_to for u in row if u != v) for row in rows)


def solve_equitable(h: Hypergraph, r: int, cfg: SolveConfig = SolveConfig()) -> SolveReport:
    """Attempt up to cfg.max_restarts independently seeded constructions and
    return the first verified equitable coloring.

    Attempt t draws its weights or its balanced coloring by the block rule
    of ``seeding``, and its rebalancing sets from derive(cfg.seed, t,
    ROLE_VSETS); so identical inputs give an identical report.  The loop
    reads the attempts with no monochromatic edge in attempt order (see
    ``_proper_attempts``) and counts the attempts between them, and after
    the last one up to cfg.max_restarts, under ``mono-edge``; so only the
    attempts up to the returned one are counted.  Every
    returned coloring has passed ``is_equitable``; chains come only from
    two-stage attempts.  With strict_divisibility only perfectly balanced
    targets are accepted and r | m is enforced up front; otherwise targets
    differ by at most one.  After exhaustion, instances with r**m within the
    enumeration budget get a brute-force verdict, upgrading Exhausted to
    Infeasible-by-oracle when no equitable coloring exists at all.  Raises
    ValueError unless 2 <= r <= m.
    """
    r = _check_colors(r, h.m, least=2)
    if cfg.strict_divisibility and h.m % r != 0:
        raise ValueError(f"strict divisibility requires r | m, got m={h.m}, r={r}")

    path = _route(h, r, cfg)
    targets = class_targets(h.m, r)
    diagnostics = {"mono-edge": 0, "rebalance-infeasible": 0, "repair-failed": 0}
    # the one counter of a proper attempt with no equitable candidate
    failure = "repair-failed" if cfg.allow_fallback_repair else "rebalance-infeasible"
    rejected = None  # the last attempt rejected on a monochromatic edge
    plan: Optional[RebalancePlan] = None

    partition = None
    if path == PATH_TWO_STAGE:
        partition = IntervalPartition(choose_p(h.n, r), r)

    def report(outcome: str, coloring: Optional[Coloring], attempts: int, **kw) -> SolveReport:
        # balanced attempts have no chains
        replay = (
            None if rejected is None or partition is None else (h, partition, cfg.seed, rejected)
        )
        return SolveReport(
            outcome, coloring, attempts, path, r, diagnostics, plan, _rejected=replay, **kw
        )

    seen = 0  # attempts counted: each proper one and the rejects before it
    for attempt, init, coloring in _proper_attempts(h, targets, partition, cfg):
        if attempt > seen:
            diagnostics["mono-edge"] += attempt - seen
            rejected = attempt - 1
        seen = attempt + 1
        if is_equitable(h, coloring):
            return report(SUCCESS, coloring, attempt + 1)

        # at most one rebalanced and one repaired candidate, each
        # verified once; an attempt with no equitable one counts once,
        # under ``failure``
        candidate = None
        if _excess_pattern_holds(coloring.sizes, targets):
            try:
                plan = build_rebalance_plan(h, init, targets, derive(cfg.seed, attempt, ROLE_VSETS))
            except RegimeViolation:
                pass
            else:
                if plan.feasible:
                    candidate = apply_recolor(coloring, plan.wsets)
        if candidate is not None and is_equitable(h, candidate):
            return report(SUCCESS, candidate, attempt + 1)
        if cfg.allow_fallback_repair:
            candidate = greedy_repair(h, coloring, targets, weights=init.weights)
            if candidate is not None and is_equitable(h, candidate):
                return report(SUCCESS, candidate, attempt + 1)
        diagnostics[failure] += 1
    if cfg.max_restarts > seen:
        diagnostics["mono-edge"] += cfg.max_restarts - seen
        rejected = cfg.max_restarts - 1

    oracle_feasible = None
    if not _power_exceeds(r, h.m, cfg.enumeration_budget):
        oracle_feasible = brute_force_equitable(h, r, budget=cfg.enumeration_budget) is not None
    outcome = INFEASIBLE if oracle_feasible is False else EXHAUSTED
    return report(outcome, None, cfg.max_restarts, oracle_feasible=oracle_feasible)


def _screens_large_blocks(h: Hypergraph, partition: IntervalPartition) -> bool:
    """Whether ``_proper_attempts`` rejects two-stage rows with an edge
    inside one large block before the kernel: when the expected number of
    such edges per attempt, |E| r ((1 - p) / r)^n, is at least 1.  Under
    the paper's edge bound it is far below 1 and the screen would cost a
    second slot pass on rows that nearly all go to the kernel anyway."""
    big = (1.0 - partition.p) / partition.r
    return len(h.edge_array) * partition.r * big**h.n >= 1.0


def _proper_attempts(
    h: Hypergraph, targets: Sequence[int], partition: Optional[IntervalPartition], cfg: SolveConfig
) -> Iterator[tuple[int, Optional[InitialColoring], Coloring]]:
    """The solve's attempts with no monochromatic edge, in attempt order, as
    (attempt, record, coloring).  Two-stage attempts run when ``partition``
    is given, balanced ones at ``targets`` otherwise; a balanced attempt
    has no record.

    Attempts are drawn, colored and screened as arrays, in batches of 1, 4,
    16, ... attempts, at most ``_SUB_BATCH_CELLS`` // max(m, n |E|) of them
    (at least one), up to cfg.max_restarts.  A two-stage batch draws its
    ``sample_weights`` rows; when ``_screens_large_blocks`` holds,
    ``intervals._large_block_rows`` drops the rows with an edge inside one
    large block, and one ``run_interval_coloring`` call colors the rest (a
    batch left with none makes no call).  A balanced batch is drawn and
    colored by ``_balanced_colors``.  One ``_mono_edges`` scan per colored
    batch finds the proper rows; a row's record and coloring are built only
    when it is pulled.  The batch sizes and the screen change no draw (see
    ``seeding``), and a kernel row does not depend on the rows that share
    its call.  A solve that stops inside a batch has drawn and colored the
    rest of it for nothing; growing fourfold rather than twofold draws more
    such rows but makes fewer kernel calls, each of which costs as much as
    several rows.
    """
    cap = max(1, _SUB_BATCH_CELLS // max(1, h.m, h.edge_array.size))
    role = ROLE_BALANCED if partition is None else ROLE_WEIGHTS
    screen = partition is not None and _screens_large_blocks(h, partition)
    streams = _streams(lambda b: derive(cfg.seed, b, role), _BLOCK)
    start, size = 0, 1
    while start < cfg.max_restarts:
        size = min(size, cfg.max_restarts - start)
        rows, colors = np.arange(size), None
        if partition is None:
            colors = _draw_rows(streams, size, lambda rng, k: _balanced_colors(rng, k, targets))
        else:
            weights = _draw_rows(streams, size, lambda rng, k: sample_weights(h.m, rng, k))
            if screen:
                rows = np.flatnonzero(~_large_block_rows(h, partition, weights))
                weights = weights[rows]
            if len(rows):
                batch = run_interval_coloring(h, partition.r, partition, weights)
                colors = batch.colors
        if colors is not None:
            for k in np.flatnonzero(~_mono_edges(h, colors).any(axis=1)).tolist():
                if partition is None:
                    yield start + k, None, Coloring._trusted(len(targets), colors[k], list(targets))
                else:
                    init = batch.row(k)
                    yield start + int(rows[k]), init, init.coloring
        start, size = start + size, min(4 * size, cap)
