"""Interval partition of [0,1) and the two-stage randomized coloring.

Each vertex draws a uniform weight in [0,1).  The unit interval is split
into r large blocks separated by r-1 small blocks,

    large_1, small_1, large_2, small_2, ..., small_{r-1}, large_r,

where every large block has length (1-p)/r and every small block has
length p/(r-1).  Stage 1 colors the vertices of large_i with color i.
Stage 2 walks the small-block vertices in increasing weight: a vertex in
small_i takes color i unless that would complete a monochromatic edge
among the already colored vertices, in which case it is deflected to
color i+1 unconditionally.

Only ``run_interval_coloring`` runs the kernel (``_weight_slots``, then
``_stage_colors``), for the solver's and the Monte Carlo driver's batches.
An edge whose vertices all lie in one large block is monochromatic whatever
stage 2 does; ``_large_block_rows`` finds the rows of a batch that hold one
from their slots alone and runs no stage 2, so the solver can reject them
before the kernel runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .hypergraph import (
    Coloring,
    Hypergraph,
    _check_colors,
    _class_sizes,
    _color_dtype,
    _echo,
    _edge_values,
    _in_float_range,
    _integer,
    _real,
    _reals,
)

__all__ = [
    "InitialColoring",
    "InitialColoringBatch",
    "IntervalPartition",
    "MonoProbability",
    "balanced_mono_prob",
    "choose_p",
    "run_interval_coloring",
    "sample_weights",
]

# rounds of the stage-2 fixed point; the trials still changing after them
# get the same blocking rule in one pass in weight order (``_walk``), so a
# long deflection chain costs no more than that pass
_FIXPOINT_ROUNDS = 8

# above this many colors ``_weight_slots`` searches the left ends: at m = 10^5,
# T = 1 (2-core Xeon VM) its 2r - 2 comparisons took 0.13 ms against 1.9 at
# r = 4, 6.5 against 6.7 at 128, 9.6 against 7.0 at 192, 50 against 9.0 at 1000
_SEARCH_SLOTS_ABOVE = 128


def choose_p(n: int, r: int) -> float:
    """Total small-block mass p = ((r-1)/r) * ln(n / ln n) / n.

    Tuned so stage 2 has just enough slack to absorb deflections when the
    edge count is below the colorability threshold.  For integers n, r >= 2
    p lies in (0, 1), as ln(n / ln n) lies in [1, n).  ValueError for an n
    or r that float64 cannot hold (``hypergraph._in_float_range``).
    """
    n, r = _integer(n, "n", 2), _check_colors(r, least=2)
    _in_float_range(("n", n), ("r", r))
    return (r - 1) / r * math.log(n / math.log(n)) / n


def _check_p(p: float) -> float:
    """The one rule on the small-block mass: p as a float, a real number by
    ``hypergraph._real``'s rule in [0, 1); ValueError otherwise.  The
    partition, the rebalance calculators and the exact oracle call it."""
    if not 0.0 <= (p := _real(p, "p")) < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    return p


@dataclass(frozen=True)
class IntervalPartition:
    """The 2r-1 alternating subintervals of [0,1) for a given p and r.

    ``lefts`` holds their left ends in slot order, computed from the closed
    forms large_i = [(i-1)(L+s), iL + (i-1)s) and
    small_i = [iL + (i-1)s, i(L+s)) with L = (1-p)/r and s = p/(r-1), never
    by accumulating sums.  Each block ends where the next one starts, so
    large_i = [lefts[2i-2], lefts[2i-1]), small_i = [lefts[2i-1], lefts[2i])
    and large_r = [lefts[2r-2], 1).  The partition has no vertex count, so
    it checks only r >= 2 and p in [0, 1) (``_check_p``); callers bound r
    by m first (``hypergraph._check_colors``), as ``lefts`` takes O(r).
    """

    p: float
    r: int
    lefts: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        _check_colors(self.r, least=2)
        _check_p(self.p)
        big = (1.0 - self.p) / self.r
        small = self.p / (self.r - 1)
        lefts = []
        for i in range(1, self.r):
            lefts.append((i - 1) * (big + small))
            lefts.append(i * big + (i - 1) * small)
        lefts.append((self.r - 1) * (big + small))
        object.__setattr__(self, "lefts", tuple(lefts))

    def slot_of(self, x: float) -> int:
        """Flat subinterval index 0..2r-2 (large_i is 2i-2, small_i 2i-1): the
        rule of ``_weight_slots`` in plain Python, for one weight, a real
        number by ``hypergraph._real``'s rule."""
        if not 0.0 <= (x := _real(x, "weight")) < 1.0:
            raise ValueError(f"weight {x} outside [0, 1)")
        return sum(1 for left in self.lefts[1:] if left <= x)


def sample_weights(m: int, seed: int | np.random.Generator, rows: int | None = None) -> np.ndarray:
    """Independent uniform [0,1) weights for m vertices (PCG64, fixed seed).

    ``seed`` may be an integer or a numpy Generator to draw from directly.
    Without ``rows``, returns one (m,) draw; with it, one (rows, m) draw,
    one row per attempt.  Either is what ``run_interval_coloring`` takes,
    and a generator yields the same rows however its draws are split.
    """
    m, is_rng = _integer(m, "m", 0), isinstance(seed, np.random.Generator)
    rng = seed if is_rng else np.random.default_rng(_integer(seed, "seed"))
    return rng.random(m if rows is None else (_integer(rows, "rows", 0), m))


@dataclass(eq=False)
class InitialColoring:
    """The record of one run of the two stages.

    ``partition`` is the partition the run used.  ``weights`` and ``slots``
    are read-only (m,) views of the run's weights and of their flat
    subinterval indices (``_weight_slots``).  The weights order the
    vertices, ties by id, in the kernel and in the chain layer
    (``chains._first`` and ``chains._last``).  ``deflected`` is the pair
    (vertices, edges) of read-only int64 arrays: the deflected vertices in
    increasing order, and for each the lowest-index incident edge that
    would have gone monochromatic, the one that forced the deflection; the
    chain layer reads it by ``np.searchsorted`` on the vertices.
    ``eq=False``, since arrays have no truth value.
    """

    coloring: Coloring
    partition: IntervalPartition
    weights: np.ndarray
    slots: np.ndarray
    deflected: tuple[np.ndarray, np.ndarray]


def _weight_slots(partition: IntervalPartition, weights) -> np.ndarray:
    """Flat subinterval index of every weight, as ``partition.slot_of`` gives
    it, for an array of weights of any shape.

    lefts[0] = 0 <= w, so the slot of w is the number of the 2r - 2 later
    left ends ``partition.lefts[1:]`` that are at most w: a sum of 2r - 2
    comparisons, or above ``_SEARCH_SLOTS_ABOVE`` colors one
    ``np.searchsorted`` in the sorted ends (a count ignores their order), in
    ``hypergraph._color_dtype(r)``, the smallest signed integer dtype that
    holds -2r (int8 for r <= 64).
    Slots, stage-1 colors and colors stay in that dtype through the kernel,
    the Monte Carlo statistics and the returned colorings; every value they
    derive from a slot lies within +-(2r - 1)."""
    w = np.asarray(weights, dtype=float)
    if w.size and not (w.min() >= 0.0 and w.max() < 1.0):
        raise ValueError(f"weight {w[~((w >= 0.0) & (w < 1.0))][0]} outside [0, 1)")
    dtype = _color_dtype(partition.r)
    if partition.r > _SEARCH_SLOTS_ABOVE:
        return np.searchsorted(np.sort(partition.lefts[1:]), w, side="right").astype(dtype)
    slots = np.zeros(w.shape, dtype=dtype)
    for left in partition.lefts[1:]:
        slots += w >= left
    return slots


def _large_block_rows(
    h: Hypergraph, partition: IntervalPartition, weights: np.ndarray
) -> np.ndarray:
    """Which rows of a (T, m) weight array hold an edge whose vertices all
    lie in one large block, as a (T,) bool mask.

    Stage 1 gives every vertex of large_i color i for good and stage 2
    moves only small-block vertices, so such an edge is monochromatic in
    the row's final coloring, and ``_mono_edges`` rejects every row flagged
    here.  The test reads the slots alone (``_weight_slots``, one
    ``hypergraph._edge_values`` gather): an edge whose slots are all one
    even value.  One odd value does not suffice, as stage 2 may deflect the
    last vertex of a small block."""
    edge_slots = _edge_values(h, _weight_slots(partition, weights))
    top = edge_slots.max(axis=0)
    return ((top == edge_slots.min(axis=0)) & (top & 1 == 0)).any(axis=0)


def _stage_colors(
    h: Hypergraph, slots: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Both stages on T trials at once: ``slots`` and ``weights`` are
    (T, m) arrays, ``slots[t, v]`` the flat subinterval index of vertex v in
    trial t (even slots are large blocks, odd ones small) and
    ``weights[t, v]`` its weight, which orders the trial's vertices (ties
    by id).

    The one production kernel, called by ``run_interval_coloring`` alone,
    once per (T, m) weight array: a solver batch of attempts, a Monte Carlo
    sub-batch of trials, or T = 1 for a single run.  Stage 1 is
    ``slots // 2 + 1`` for every vertex, which is also the color of every
    small-block vertex that is not deflected.  A vertex of small_i can only
    be deflected by an edge whose other vertices all carry color i, so all
    of its vertices lie in small_{i-1}, large_i or small_i: its largest
    slot is odd and its smallest at least that minus 2.  Only such live
    edges are found, by one
    ``hypergraph._edge_values`` gather in the slots' dtype, (n, |E|, T),
    reduced over axis 0.

    Stage 2 visits vertices in weight order, and a vertex reads as
    uncolored until visited, so a live (trial, edge) pair can only deflect
    its last vertex L by (weight, id), which sits in its top slot small_i.
    Every other vertex is final by then: the pair blocks L iff each of them
    ends at color i, i.e. each of small_i stays at i and each of small_{i-1}
    is deflected to i (large_i ones always are at i).  L is deflected iff
    some pair blocks it, and its blocking edge is the lowest-index one.
    The rule is stated once, as arrays: each pair's L ``lkey``, and for its
    other small-block vertices, its dependencies, their keys ``dep_key``
    and whether each must be deflected, ``dep_need``.  They are read off
    (n, P) arrays of the P pairs' slots, keys and weights, one column per
    pair, each gathered by one 1-D ``take`` from the edge gather or the
    (T, m) arrays, and every later read is a ``take`` or ``put`` at flat
    indices: at the exact-small shapes and the m = 200 Monte Carlo shape
    this took 13-28 % less time per call than (P, n) arrays built by 2-D
    fancy indexing (2-core Xeon VM, numpy 2.4), with bit-identical
    outputs.  Two schedules apply the rule.
    Rounds of a fixed point start with nothing deflected and recompute every
    pair until no deflection that some pair depends on changes; they take
    about as many rounds as the longest chain of edges linked through such
    dependencies.  After ``_FIXPOINT_ROUNDS`` rounds, the trials that still
    change (every trial with a live pair, at 0 rounds) are walked instead:
    ``_walk`` visits their pairs once each in visit order, linear in the
    chain length.  A deflection depends only on earlier vertices, so both
    give the same outcome.  Both mark the blocking pairs; one tail keeps
    the first of each deflected vertex and writes its color, one above its
    stage-1 color.

    Returns colors (T, m) in the slots' dtype and stage 2's one record,
    the deflected vertices as int64 arrays (keys, edges): the increasing
    keys t * m + v of the deflected vertices v of trial t, and for each
    the lowest-index edge that blocked it.  Deflection counts and the
    Monte Carlo statistics are read off them and the slots.
    """
    colors = slots // 2 + 1
    trials, m = slots.shape
    # (n, |E|, T): each vertex position is one slab, reduced elementwise
    edge_slots = _edge_values(h, slots)
    top = edge_slots.max(axis=0)
    # & 1 tests parity far faster than % 2 on int8
    live = (top & 1 == 1) & (edge_slots.min(axis=0) >= top - 2)
    # live.T lists the pairs in (trial, edge) order
    rows, eids = np.divmod(np.flatnonzero(live.T), len(h.edge_array))
    if not len(rows):
        none = np.zeros(0, dtype=np.int64)
        return colors, (none, none)
    n, count = h.n, len(rows)
    pairs = np.arange(count)
    # the pairs' arrays are (n, P), one column per pair, each built by one
    # 1-D take: edge_slots is (n, |E| T), cell (j, e T + t)
    pair_slots = edge_slots.reshape(n, -1).take(eids * trials + rows, axis=1)
    # vertex v of trial t is t * m + v, in int64
    keys = h.edge_array.T.take(eids, axis=1) + rows * m
    pair_weights = weights.take(keys)
    # edge rows list ids in increasing order: L is the last maximal weight,
    # at flat index ``at`` of every (n, P) array
    at = ((n - 1) - np.argmax(pair_weights[::-1], axis=0)) * count + pairs
    lkey = keys.take(at)
    ltop = pair_slots.take(at)
    # each other small-block vertex of a pair must be deflected iff it sits
    # below L's block; dep.T lists the dependencies grouped by pair
    dep = pair_slots & 1 == 1
    dep.put(at, False)
    dep_pair, dep_col = np.divmod(np.flatnonzero(dep.T), n)
    flat = dep_col * count + dep_pair
    dep_key = keys.take(flat)
    dep_need = pair_slots.take(flat) != ltop.take(dep_pair)
    deflected = np.zeros(trials * m, dtype=bool)
    # pairs whose L some pair depends on: only their changes can spread
    feeds = np.zeros(trials * m, dtype=bool)
    feeds[dep_key] = True
    feeds = feeds[lkey]
    blocks = np.zeros(len(rows), dtype=bool)
    # before the first round every pair may still change
    spread = np.ones(len(rows), dtype=bool)
    for _ in range(_FIXPOINT_ROUNDS):
        new = np.ones(len(rows), dtype=bool)
        new[dep_pair[deflected[dep_key] != dep_need]] = False
        spread = (new != blocks) & feeds
        blocks = new
        deflected[lkey] = False
        deflected[lkey[blocks]] = True
        if not spread.any():
            break
    else:
        # the pairs of the trials still changing, stably sorted by L's (weight, id)
        walk = np.flatnonzero(np.isin(rows, rows[spread]))
        walk = walk[np.lexsort((lkey[walk], pair_weights.take(at[walk])))]
        deps = np.searchsorted(dep_pair, np.arange(len(rows) + 1))
        blocks[walk] = False
        blocks[_walk(walk, lkey, deps, dep_key, dep_need)] = True
    # first blocking pair of each deflected vertex: pairs come in (trial,
    # edge) order, and np.unique returns the first occurrence of each key
    hit = np.flatnonzero(blocks)
    hit_keys, first = np.unique(lkey[hit], return_index=True)
    hit = hit[first]
    # a vertex deflected out of small_i takes color i + 1, one above its
    # stage-1 color
    colors.put(hit_keys, ltop[hit] // 2 + 2)
    return colors, (hit_keys, eids[hit])


def _walk(pairs, lkey, deps, dep_key, dep_need) -> np.ndarray:
    """The blocking rule of ``_stage_colors`` applied once to each live pair
    in ``pairs`` in visit order: by L's (weight, id), and in edge order for
    one L.  Pair j deflects L ``lkey[j]``, if no pair before it did, when
    each dependency ``dep_key[deps[j]:deps[j + 1]]`` reads as its
    ``dep_need`` against the deflections walked so far; those are final, as
    every dependency comes before L.  The keys carry their trial, so trials
    are walked together.  Returns the first blocking pair of every
    deflected vertex."""
    lkey, deps, dep_key, dep_need = (a.tolist() for a in (lkey, deps, dep_key, dep_need))
    deflected: set[int] = set()
    hits = []
    for j in pairs.tolist():
        if lkey[j] not in deflected and all(
            (dep_key[k] in deflected) == dep_need[k] for k in range(deps[j], deps[j + 1])
        ):
            deflected.add(lkey[j])
            hits.append(j)
    return np.array(hits, dtype=np.int64)


def run_interval_coloring(
    h: Hypergraph,
    r: int,
    partition: IntervalPartition,
    weights,
) -> Union[InitialColoring, "InitialColoringBatch"]:
    """Run both stages deterministically for the given weights.

    Stage 2 processes small-block vertices in increasing weight (ties by
    vertex id).  A vertex of small_i only ever receives color i or i+1;
    deflection to i+1 is unconditional even if it completes a
    monochromatic edge of color i+1.  Raises ValueError unless
    2 <= r <= m, and on a weight outside [0, 1) or not a real number by
    ``hypergraph._reals``' rule.

    Given (m,) weights, returns one InitialColoring.  Given a (T, m) array
    of weights, one row per attempt, colors all T rows in one kernel call
    and returns an ``InitialColoringBatch``, which builds a row's record
    only when it is asked for.  A single run is the T = 1 case of the same
    call.  No argument is changed.
    """
    _check_colors(r, h.m, least=2)
    if partition.r != r:
        raise ValueError("partition was built for a different number of colors")
    w = _reals(weights, "weight")
    if w.ndim not in (1, 2):
        raise ValueError("weights must be an (m,) or a (T, m) array")
    if w.shape[-1] != h.m:
        raise ValueError("weight vector length does not match vertex count")
    rows = w.reshape(-1, h.m)
    slots = _weight_slots(partition, rows)
    colors, deflected = _stage_colors(h, slots, rows)
    # rows is a new view, so the caller's array stays writable
    for a in (rows, slots, colors, *deflected):
        a.flags.writeable = False
    batch = InitialColoringBatch(partition, rows, slots, colors, deflected)
    return batch if w.ndim == 2 else batch.row(0)


@dataclass(frozen=True, eq=False)
class InitialColoringBatch:
    """The two stages run on a (T, m) array of weights, one row per
    attempt: the record of one kernel call, which names its arrays.

    ``partition`` is the partition used.  ``weights``, ``slots`` and
    ``colors`` are read-only (T, m) views of the weights, their flat
    subinterval indices (``_weight_slots``) and the kernel's colors, the
    last two in ``hypergraph._color_dtype(r)``; ``deflected`` is the
    kernel's read-only (keys, edges) pair (``_stage_colors``).

    ``row(t)`` builds row t's InitialColoring, the same as
    ``run_interval_coloring`` gives for that row alone, for an integer t in
    0..T-1 (``hypergraph._integer``); any other t is a ValueError.  Its
    weights and slots are views of the batch's rows; only its coloring,
    which ``Coloring._trusted`` stores as a copy of row t, and its read-only
    slice of the deflected pairs are built for it.
    ``eq=False``, since arrays have no truth value.
    """

    partition: IntervalPartition
    weights: np.ndarray
    slots: np.ndarray
    colors: np.ndarray
    deflected: tuple[np.ndarray, np.ndarray]

    def __len__(self) -> int:
        return len(self.colors)

    def row(self, t: int) -> InitialColoring:
        if (t := _integer(t, "row", 0)) >= len(self):
            raise ValueError(f"row {_echo(t)} outside 0..{len(self) - 1}")
        r, m = self.partition.r, self.colors.shape[1]
        colors = self.colors[t]
        # row t's deflected vertices are the keys in [t * m, (t + 1) * m)
        keys, edges = self.deflected
        lo, hi = np.searchsorted(keys, (t * m, (t + 1) * m))
        vertices = keys[lo:hi] - t * m
        vertices.flags.writeable = False
        return InitialColoring(
            Coloring._trusted(r, colors, _class_sizes(colors, r)),
            self.partition,
            self.weights[t],
            self.slots[t],
            (vertices, edges[lo:hi]),
        )


class MonoProbability(NamedTuple):
    value: float
    exact: Fraction


def balanced_mono_prob(m: int, n: int, r: int) -> MonoProbability:
    """P(a fixed n-edge is monochromatic) under a uniform balanced coloring.

    Exactly r * C(m-n, m/r-n) / C(m, m/r), computed in integer arithmetic.
    Zero when a class cannot hold a whole edge (n > m/r).  ValueError
    unless the integers m, n, r have 1 <= r <= m, r | m and 1 <= n <= m.
    """
    m, n, r = _integer(m, "m", 1), _integer(n, "edge size", 1), _check_colors(r, m)
    if m % r != 0:
        raise ValueError(f"balanced colorings need r | m, got m={_echo(m)}, r={r}")
    if n > m:
        raise ValueError(f"edge size {_echo(n)} outside 1..{_echo(m)}")
    size = m // r
    if n > size:
        frac = Fraction(0)
    else:
        frac = Fraction(r * math.comb(m - n, size - n), math.comb(m, size))
    return MonoProbability(float(frac), frac)


def _balanced_colors(rng: np.random.Generator, rows: int, sizes: Sequence[int]) -> np.ndarray:
    """``rows`` uniform colorings with class sizes ``sizes``, (rows, m) in
    ``_color_dtype(r)``.  One in-place ``rng.permuted`` call over tiled
    aranges draws, and leaves ``rng`` as, ``rows`` ``permutation(m)``
    calls; vertex perm[t, j] takes the j-th of 1, ..., 1, 2, ..., r
    (sizes[i-1] copies of i), so each coloring with those sizes comes from
    equally many permutations.  The solver and ``balanced-mono`` draw it."""
    perms = np.tile(np.arange(sum(sizes)), (rows, 1))
    rng.permuted(perms, axis=1, out=perms)
    colors = np.empty(perms.shape, dtype=_color_dtype(len(sizes)))
    colors[np.arange(rows)[:, None], perms] = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return colors
