"""Rebalancing an initial coloring whose class sizes miss their targets.

After the two stages, the first r-1 classes tend to run over target while
class r runs short.  Rebalancing repairs exactly this shape: it samples a
candidate set V_i inside each large block, spots the dangerous edges (those
an unlucky recoloring could turn monochromatic in color r), and moves the
lowest-weight candidates into class r while keeping one vertex of every
dangerous edge pinned in place.  Pinning one vertex per dangerous edge is
enough: an edge can only become monochromatic in r if every one of its
candidate vertices moved, and the pinned one never does.

``build_rebalance_plan`` costs one keep draw, one edge gather and work on
the candidates alone: the candidate mask comes from ``_candidates``, the
dangerous edges from ``_dangerous_edges`` (both shared with the Monte Carlo
``dangerous-count`` statistic), and the candidates, grouped by block, give
each V_i and, less the pinned ones, each W_i.  The plan holds V_i and W_i
as sorted vertex-id arrays, and its dangerous edges as arrays too: their
``DangerousEdge`` records are built only when they are read.

The recolor sets bring every class exactly to target when the shortage is
confined to color r; the solver falls back to restarts or greedy repair
when selection is infeasible or the shape does not match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Optional, Sequence, Union

import numpy as np

from .chains import DangerousEdge
from .hypergraph import (
    Coloring,
    Hypergraph,
    _check_colors,
    _check_targets,
    _edge_values,
    _integer,
    _real,
)
from .intervals import InitialColoring, _check_p
from .seeding import ROLE_VSETS, derive

__all__ = [
    "RebalancePlan",
    "RegimeViolation",
    "apply_recolor",
    "build_rebalance_plan",
    "compute_p_tilde",
    "compute_q",
    "excess_shortage",
]


class RegimeViolation(ValueError):
    """The instance is too small for the sampling probability to make sense."""


@dataclass(frozen=True, eq=False)
class RebalancePlan:
    """Everything one rebalancing pass decided, in evaluation order.  Each
    V_i and W_i is a read-only sorted int64 array of vertex ids; ``wsets``
    is None when some V_i cannot supply its excess.

    The plan keeps its dangerous edges as arrays: their edge ids in
    increasing order, their vertex rows, and one mask row per edge marking
    its candidate vertices.  ``dangerous``, one ``DangerousEdge`` per edge
    with U its candidate vertices in id order, is built from them on first
    read and kept."""

    excess: tuple[int, ...]
    shortage: tuple[int, ...]
    q: float
    p_tilde: float
    vsets: tuple[np.ndarray, ...]
    _dangerous: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    wsets: Optional[tuple[np.ndarray, ...]]

    @property
    def feasible(self) -> bool:
        return self.wsets is not None

    @cached_property
    def dangerous(self) -> tuple[DangerousEdge, ...]:
        hit, rows, in_sets = (a.tolist() for a in self._dangerous)
        return tuple(
            DangerousEdge(e, tuple(compress(row, mask))) for e, row, mask in zip(hit, rows, in_sets)
        )

    def to_json_dict(self) -> dict:
        return {
            "ex": list(self.excess),
            "sh": list(self.shortage),
            "q": self.q,
            "p_tilde": self.p_tilde,
            "V": [s.tolist() for s in self.vsets],
            "dangerous": [
                {"edge": d.edge, "U": list(d.u_vertices)} for d in self.dangerous
            ],
            "W": None if self.wsets is None else [s.tolist() for s in self.wsets],
        }


def excess_shortage(
    coloring: Coloring, targets: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-color (max(0, size - target), max(0, target - size)).  The
    targets must pass ``_check_targets``: r integers >= 0 that sum to m."""
    targets = _check_targets(targets, coloring.r, coloring.m)
    ex = tuple(max(0, s - t) for s, t in zip(coloring.sizes, targets))
    sh = tuple(max(0, t - s) for s, t in zip(coloring.sizes, targets))
    return ex, sh


def _excess_pattern_holds(sizes, targets) -> np.ndarray:
    """The shape rebalancing repairs: every class below r at or above its
    target, so that only class r can run short.  (r,) class sizes give one
    bool, (T, r) sizes one per row."""
    return (np.asarray(sizes)[..., :-1] >= np.asarray(targets)[:-1]).all(axis=-1)


def _check_keep(p_tilde: float) -> float:
    """The one rule on a keep probability: p_tilde as a float, ValueError
    unless it is real (``_real``) in [0, 1].  The rebalance plan and the
    Monte Carlo ``dangerous-count`` statistic call it."""
    if not 0.0 <= (p_tilde := _real(p_tilde, "keep probability")) <= 1.0:
        raise ValueError(f"keep probability must lie in [0, 1], got {p_tilde}")
    return p_tilde


def compute_q(m: int, n: int, r: int, p: float) -> float:
    """Candidate-set size scale: m p / (r (r-1)) + 2 sqrt(13 m ln r / r)
    + ((r+1)/r) n / ln n."""
    m, n, r, p = _integer(m, "m", 1), _integer(n, "n", 2), _check_colors(r, least=2), _check_p(p)
    return (
        m * p / (r * (r - 1))
        + 2.0 * math.sqrt(13.0 * m * math.log(r) / r)
        + (r + 1) / r * n / math.log(n)
    )


def compute_p_tilde(m: int, n: int, r: int, p: float) -> float:
    """Per-vertex keep probability q r / ((1-p) m) for candidate sampling,
    with q from ``compute_q``.

    Raises ValueError unless m, n, r, p pass ``compute_q``'s rules, and
    RegimeViolation when the value exceeds 1, which happens whenever m is
    small relative to the q scale; callers may then pass an explicit
    probability instead.
    """
    p_tilde = compute_q(m, n, r, p) * r / ((1.0 - p) * m)
    if p_tilde > 1.0:
        raise RegimeViolation(
            f"candidate keep probability {p_tilde:.6g} exceeds 1; "
            f"m={m} is too small for this n, r"
        )
    return p_tilde


def _candidates(slots, keep, p_tilde: float, r: int) -> np.ndarray:
    """The candidate rule: a vertex joins V_i when it sits in large_i,
    i <= r - 1, and its keep draw is below ``p_tilde``.  Elementwise, so
    (m,) input gives one mask and (T, m) input one row per trial."""
    # slots & 1 tests parity far faster than slots % 2 on int8
    return (slots & 1 == 0) & (slots < 2 * r - 2) & (keep < p_tilde)


def _dangerous_edges(h: Hypergraph, candidate, colors, r: int) -> np.ndarray:
    """The dangerous-edge predicate: some vertex of the edge is a candidate and
    every other one carries color r.  Shaped like ``hypergraph._mono_edges``:
    (m,) input gives an (|E|,) mask, (T, m) input one row per trial.  One
    ``_edge_values`` gather of an int8 state per vertex, 2 for a candidate
    plus 1 for color r, (n, |E|, ...), reduced over axis 0: the edge is
    dangerous iff no state is 0 and some state is at least 2 (a candidate
    may itself carry color r)."""
    # arithmetic, not a shift: numpy's int8 left shift ran about 3x slower
    state = _edge_values(h, 2 * np.asarray(candidate, np.int8) + (np.asarray(colors) == r))
    return ((state.min(axis=0) > 0) & (state.max(axis=0) >= 2)).T


def apply_recolor(coloring: Coloring, wsets: Sequence[np.ndarray]) -> Coloring:
    """Move every vertex of W_i out of class i into class r, in a new
    coloring.  Each W_i is an array (or sequence) of distinct vertex ids in
    0..m-1, each colored i; a ValueError names an id that is not."""
    r, m = coloring.r, coloring.m
    if len(wsets) != r - 1:
        raise ValueError("need one recolor set per color below r")
    colors = coloring.colors.copy()
    # the sizes follow the moves: a recount would be a pass over all m, so
    # each W_i is checked on its own sorted copy, in O(|W_i| log |W_i|)
    sizes = list(coloring.sizes)
    for i, ws in enumerate(wsets, start=1):
        ids = np.asarray(ws, np.int64)
        order = np.sort(ids)
        outside, repeated = ids[(ids < 0) | (ids >= m)], order[1:][order[1:] == order[:-1]]
        for bad, why in ((outside, f"outside 0..{m - 1}"), (repeated, "twice")):
            if len(bad):
                raise ValueError(f"recolor set {i} contains vertex {int(bad[0])} {why}")
        wrong = np.flatnonzero(colors[ids] != i)
        if len(wrong):
            v = int(ids[wrong[0]])
            raise ValueError(f"recolor set {i} contains vertex {v} not colored {i}")
        colors[ids] = r
        sizes[i - 1] -= len(ids)
        sizes[r - 1] += len(ids)
    return Coloring._trusted(r, colors, sizes)


def build_rebalance_plan(
    h: Hypergraph,
    init: InitialColoring,
    targets: Sequence[int],
    seed: Union[int, np.random.Generator],
    p_tilde: Optional[float] = None,
) -> RebalancePlan:
    """Run one full rebalancing pass over the run ``init`` and record every
    intermediate artifact.

    V_i keeps each occupant of large_i independently with probability
    ``p_tilde`` (one ``rng.random(m)`` draw from derive(seed, ROLE_VSETS),
    or from ``seed`` itself when it is a generator).  The dangerous edges
    are those of ``_dangerous_edges``, each with U, its candidate vertices.
    Each dangerous edge pins its lowest-numbered candidate vertex, and W_i
    is the excess_i lowest-weight unpinned vertices of V_i, ties by id.  An
    edge could turn monochromatic in r only if all of its candidate
    vertices moved, and the pin rules that out.

    The candidates are listed once and grouped by block by a stable sort
    of their slots, so V_i needs no pass over all m vertices; W_i comes
    from ``np.partition`` on its pool's weights (``_lowest``), in id order
    without a sort.

    The targets must pass ``_check_targets``, read by ``excess_shortage``.
    ``p_tilde`` overrides the derived keep probability, which must lie in
    [0, 1]; without it, small instances raise RegimeViolation before any
    sampling happens.
    """
    ex, sh = excess_shortage(init.coloring, targets)
    p, r = init.partition.p, init.partition.r
    q = compute_q(h.m, h.n, r, p)
    p_tilde = _check_keep(compute_p_tilde(h.m, h.n, r, p) if p_tilde is None else p_tilde)
    rng = seed if isinstance(seed, np.random.Generator) else derive(seed, ROLE_VSETS)
    slots = init.slots
    candidate = _candidates(slots, rng.random(h.m), p_tilde, r)

    hit = np.flatnonzero(_dangerous_edges(h, candidate, init.coloring.colors, r))
    rows = h.edge_array[hit]
    in_sets = candidate[rows]
    # edge rows are sorted, so the first candidate of a row is its lowest id
    pins = rows[np.arange(len(hit)), in_sets.argmax(axis=1)]

    # the candidates grouped by block, ids increasing within each: a stable
    # sort of narrow integers is a radix sort; large_{i+1} is slot 2i
    cand = np.flatnonzero(candidate)
    cand = cand[np.argsort(slots[cand], kind="stable")]
    bounds = np.searchsorted(slots[cand], np.arange(0, 2 * r - 1, 2)).tolist()
    free = np.ones(h.m, dtype=bool)
    free[pins] = False
    vsets, wsets = [], []
    for i in range(r - 1):
        # a copy, so that no V_i keeps the whole candidate array alive
        vs = cand[bounds[i] : bounds[i + 1]].copy()
        pool = vs[free[vs]]
        if len(pool) >= ex[i]:
            wsets.append(_read_only(_lowest(pool, init.weights[pool], ex[i])))
        vsets.append(_read_only(vs))
    feasible = len(wsets) == r - 1
    return RebalancePlan(
        ex, sh, q, p_tilde, tuple(vsets), (hit, rows, in_sets), tuple(wsets) if feasible else None
    )


def _lowest(pool: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """The k members of ``pool``, an increasing id array, that come first in
    (weight, id) order, in id order: every member below the k-th smallest
    weight, then the lowest ids among those tied with it."""
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    kth = np.partition(weights, k - 1)[k - 1]
    take = weights < kth
    tied = np.flatnonzero(weights == kth)
    take[tied[: k - np.count_nonzero(take)]] = True
    return pool[take]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a
