"""The exact event oracle for the two-stage coloring.

The oracle exploits a discreteness property of the process: the outcome
depends only on which of the 2r-1 subintervals each vertex falls in (the
probability is a product of subinterval lengths) and on the relative order
of vertices inside each small block (uniform over orders).  Summing the
exact measure over all such configurations gives the event probability
with no sampling error.  The configurations are counted before any work,
so an over-budget request fails at once.  Slot vectors are grouped by
their small-block sizes, and a dynamic program sums the orders of runs of
consecutive groups: as the order is uniform, a state needs only the status
of every vertex (its class, or the small block it waits in) and its group,
not its slot vector or the order the vertices came in, and it counts the
(vector, order) pairs that reach it.  Vectors whose vertices end in the
same places merge.  Each color class is a bitmask of its vertices (so m <=
``_MASK_MAX_M``), and placing a vertex is one lookup, in a table built
once per call from the edge masks, of whether an edge at it has its other
vertices in the class.  The oracle calls no production kernel or
predicate, so the two routes can check each other: from the package it
imports only data types, the argument rules for integers, r and p, and
the derived p, as a test of its imports checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .chains import Deflected
from .hypergraph import BudgetExceeded, Hypergraph, _check_colors, _integer
from .intervals import _check_p, choose_p

__all__ = ["ChainEventSpec", "MonoEdgeExists", "exact_c0_event_prob"]

# the exact oracle's largest m per r
_ORACLE_MAX_M = {2: 10, 3: 8}
# the largest m whose class tables (m * 2^m entries) the oracle builds
_MASK_MAX_M = 12
# cap on the configurations of a run of slot-vector groups (see
# ``exact_c0_event_prob``); the runs change no value
_RUN_CELLS = 1 << 18


@dataclass(frozen=True)
class MonoEdgeExists:
    """Oracle event: some edge is monochromatic after the two stages."""


@dataclass(frozen=True)
class ChainEventSpec:
    """Oracle event: the fixed edge tuple forms an ordered chain certifying
    a monochromatic last edge of the given color: a nonempty tuple of
    integers >= 0 (``hypergraph._integer``), and an integer color >= 1."""

    edges: tuple[int, ...]
    color: int

    def __post_init__(self):
        if not isinstance(self.edges, tuple) or not self.edges:
            raise ValueError(f"chain edges {self.edges!r} are not a nonempty tuple")
        object.__setattr__(self, "edges", tuple(_integer(e, "chain edge", 0) for e in self.edges))
        object.__setattr__(self, "color", _integer(self.color, "color", 1))


def exact_c0_event_prob(
    h: Hypergraph,
    r: int,
    event,
    p: Optional[float] = None,
    budget: int = 10**7,
) -> float | tuple[float, ...]:
    """Exact probability of an event of the two-stage coloring: the exact
    measure of the (subinterval assignment, within-small-block order)
    configurations where it holds.

    Supports MonoEdgeExists, Deflected (interval None means any small
    block), and ChainEventSpec, and raises ValueError for an event naming a
    vertex, small block or edge that ``h`` and r lack.  Given a list (or
    other iterable) of events, returns a tuple with one probability per
    event, in order, from one enumeration: each event has its own
    accumulator, capped at 1 against rounding, so each entry equals the
    value of a call with that event alone, to the last bit.
    Requires 2 <= r <= m, m <= 10 at r = 2 and m <= 8 at r = 3, and p in
    [0, 1) (``intervals._check_p``), by default ``choose_p(n, r)``, and an
    integer ``budget`` (``hypergraph._integer``); raises BudgetExceeded,
    before any work, when the configuration count passes it.  Each group
    of slot vectors with the same small-block sizes adds, in group order,
    its weight times the exact count of its configurations where the event
    holds.  The counts come from ``_visit_states``, over runs of
    consecutive groups of at most ``_RUN_CELLS`` = 2^18 configurations in
    all (a larger group runs alone), which change no value: one pass for
    all MonoEdgeExists and Deflected events, one per ChainEventSpec.
    """
    _check_colors(r, h.m, least=2)
    if r > 3 or h.m > _ORACLE_MAX_M[r]:
        raise ValueError("exact enumeration supports m <= 10 at r = 2 and m <= 8 at r = 3")
    p, budget = _check_p(choose_p(h.n, r) if p is None else p), _integer(budget, "budget")
    m = h.m
    lengths = [(1.0 - p) / r if s % 2 == 0 else p / (r - 1) for s in range(2 * r - 1)]
    # K vertices in small blocks: m!/(m-K)! ordered picks, C(K+r-2, r-2)
    # ways to cut them into r-1 ordered blocks, r large slots for the rest
    configurations = sum(
        math.comb(k + r - 2, r - 2) * math.perm(m, k) * r ** (m - k) for k in range(m + 1)
    )
    if configurations > budget:
        raise BudgetExceeded(
            f"exact enumeration of {configurations} configurations exceeds budget {budget}"
        )

    single = isinstance(event, (MonoEdgeExists, Deflected, ChainEventSpec))
    events = [event] if single else list(event)
    totals = [0.0] * len(events)
    blocked, mono = _class_tables(h)
    passes = _passes(h, r, events, mono)
    # every slot vector, grouped by its per-small-block counts k_1..k_{r-1}
    # as the base-(m + 1) digits of one integer key: key order is the rows'
    # lexicographic order, so the groups come in that order
    slot_rows = np.indices((2 * r - 1,) * m, dtype=np.int8).reshape(m, -1).T
    key = sum((slot_rows == 2 * i - 1).sum(axis=1) * (m + 1) ** (r - 1 - i) for i in range(1, r))
    order = np.argsort(key, kind="stable")
    slot_rows = slot_rows[order]
    bounds = np.flatnonzero(np.diff(key[order], prepend=-1, append=-1)).tolist()
    # the measure of one configuration: the slot lengths times one over the
    # number of orders of each small block; a group's configurations bound
    # the rows of every step of its dynamic program
    weights, sizes = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        first = slot_rows[lo].tolist()
        orders = math.prod(math.factorial(first.count(2 * i - 1)) for i in range(1, r))
        weights.append(math.prod(lengths[s] for s in first) / orders)
        sizes.append((hi - lo) * orders)
    # consecutive groups share each pass while their configurations stay
    # within _RUN_CELLS; a larger group runs alone
    g = 0
    while g < len(weights):
        end, cells = g + 1, sizes[g]
        while end < len(weights) and cells + sizes[end] <= _RUN_CELLS:
            cells += sizes[end]
            end += 1
        vectors = slot_rows[bounds[g] : bounds[end]]
        group = np.repeat(np.arange(end - g), np.diff(bounds[g : end + 1]))
        for select, links, watch, tests in passes:
            pick = slice(None) if select is None else select(vectors)
            masks, deflected, groups, count = _visit_states(
                blocked, r, vectors[pick], group[pick], watch, links
            )
            for j, holds in tests:
                # float sums of integer counts below 2^53: exact
                held = count * holds(masks, deflected)
                sums = np.bincount(groups, weights=held, minlength=end - g)
                for weight, hits in zip(weights[g:end], sums.tolist()):
                    totals[j] += weight * int(hits)
        g = end
    # a sure event's group weights can sum to a rounding error above 1
    values = tuple(min(total, 1.0) for total in totals)
    return values[0] if single else values


def _class_tables(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Bool tables over vertex bitmasks S: ``blocked[v * 2^m + S]``, some
    edge at v has its other vertices in S; ``mono[S]``, some edge lies in
    S.  Each marks the exact masks, then their supersets one bit at a
    time.  ValueError above m = ``_MASK_MAX_M``, before any allocation."""
    m = h.m
    if m > _MASK_MAX_M:
        raise ValueError(f"class tables need m <= {_MASK_MAX_M}")
    own = np.left_shift(1, h.edge_array.astype(np.int64))
    whole = own.sum(axis=1)
    table = np.zeros((m + 1, 1 << m), dtype=bool)
    table[h.edge_array, whole[:, None] ^ own] = True
    table[m, whole] = True
    for b in range(m):
        halves = table.reshape(m + 1, -1, 2, 1 << b)
        halves[:, :, 1] |= halves[:, :, 0]
    return table[:m].ravel(), table[m]


def _visit_states(blocked, r: int, vectors, group, watch: int = 0, links=()):
    """The two stages over (S, m) slot vectors, whose group indices
    ``group`` decide nothing but keep their states apart, as a dynamic
    program over visit states.  A small block's visit order is uniform, so
    a state is the status of every vertex, packed into one int64 key: the r
    class masks of the placed vertices, then the r - 1 small blocks'
    unvisited members, then the deflected vertices of the mask ``watch``,
    then the group; it counts the (vector, order) pairs that reach it, and
    vectors whose vertices end in the same places merge.  A step of small_i
    branches each state on each unvisited member v, which joins class i, or
    class i + 1 when ``blocked`` (see ``_class_tables``) says so; a state
    with none left waits for the next block.  A link (u, before, after) of
    vertex masks drops the orders that visit u while a member of ``before``
    in its block is unvisited, or a member of ``after`` while u is.
    Returns the final class masks (S', r), deflected masks, groups and
    counts."""
    m = vectors.shape[1]
    if 2 * r * m + int(group.max(initial=0)).bit_length() > 63:
        raise ValueError("a state key of this shape needs more than 63 bits")
    full = (1 << m) - 1
    bits = np.left_shift(1, np.arange(m, dtype=np.int64))
    # the members of every vertex mask, as bool rows (one numpy call finds
    # all members of a batch of masks, far faster than a 2-d nonzero)
    members = np.arange(1 << m)[:, None] & bits != 0
    # the field of slot s: class s / 2 + 1 if s is even, else small_(s+1)/2
    field = (vectors // 2 + r * (vectors & 1)) * m
    key = np.left_shift(group, 2 * r * m, dtype=np.int64)
    for v in range(m):
        key |= bits[v] << field[:, v]
    count = np.ones(len(key), dtype=np.int64)
    for i in range(1, r):
        at, low, keys, counts = (r + i - 1) * m, (i - 1) * m, [], []
        # the key change of visiting v, at 2v + moved: v leaves the
        # unvisited members and joins class i, or class i + 1 and, if
        # watched, the deflected vertices
        flips = (bits << at)[:, None] | np.stack([bits << low, bits << low + m], axis=1)
        flips[:, 1] |= (bits & watch) << (2 * r - 1) * m
        flips = flips.ravel()
        while True:
            unvisited = key >> at & full
            busy = unvisited != 0
            keys.append(key[~busy])
            counts.append(count[~busy])
            if not busy.any():
                break
            key, count, unvisited = key[busy], count[busy], unvisited[busy]
            row, v = np.divmod(np.flatnonzero(members.take(unvisited, axis=0)), m)
            state = key[row]
            moved = blocked.take(v << m | state >> low & full)
            state ^= flips.take(2 * v + moved)
            if links:
                waiting, live = unvisited[row], np.ones(len(state), dtype=bool)
                for u, before, after in links:
                    live &= (v != u) | (before & waiting == 0)
                    live &= (after >> v & 1 == 0) | (waiting >> u & 1 == 0)
                state, row = state[live], row[live]
            # equal states merge: sort, keep the first of each run, add counts
            order = np.argsort(state)
            state = state[order]
            first = np.flatnonzero(state[1:] != state[:-1]) + 1
            first = np.concatenate(([0], first)) if len(state) else first
            key, count = state[first], np.add.reduceat(count[row[order]], first)
        key, count = np.concatenate(keys), np.concatenate(counts)
    masks = key[:, None] >> m * np.arange(r) & full
    return masks, key >> (2 * r - 1) * m & full, key >> 2 * r * m, count


def _passes(h: Hypergraph, r: int, events, mono) -> list:
    """The ``_visit_states`` passes that decide ``events``, as (select,
    links, watch, tests): ``select`` picks a run's slot vectors (None:
    all), ``links`` and ``watch`` go to ``_visit_states``, and a test (j,
    holds) gives event j's verdict, holds(class masks, deflected masks) on
    the final states.  All MonoEdgeExists and Deflected events share one
    pass, which watches the deflections of the Deflected vertices only; a
    chain event's links drop orders, so it has its own."""
    shared, watch, passes = [], 0, []
    for j, event in enumerate(events):
        if isinstance(event, MonoEdgeExists):
            shared.append((j, lambda masks, deflected: mono.take(masks).any(axis=1)))
        elif isinstance(event, Deflected):
            if event.vertex >= h.m or (event.interval or 1) > r - 1:
                raise ValueError(f"{event}: vertex outside 0..{h.m - 1} or block past {r - 1}")
            shared.append((j, partial(_deflected_holds, event)))
            watch |= 1 << event.vertex
        elif isinstance(event, ChainEventSpec):
            if max(event.edges) >= len(h.edge_array):
                raise ValueError(f"{event}: edge outside 0..{len(h.edge_array) - 1}")
            passes += _chain_pass(h, r, event, j)
        else:
            raise TypeError(f"unknown event type {type(event).__name__}")
    return ([(None, (), watch, shared)] if shared else []) + passes


def _deflected_holds(event: Deflected, masks, deflected) -> np.ndarray:
    """Deflected out of small_i: deflected, and so in class i + 1."""
    hit = deflected >> event.vertex & 1 == 1
    if event.interval is None:
        return hit
    return hit & (masks[:, event.interval] >> event.vertex & 1 == 1)


def _chain_pass(h: Hypergraph, r: int, event: ChainEventSpec, j: int) -> list:
    """The pass of chain event j for ``_passes``, or none if it cannot
    hold.  The link v of the t-th edge pair (B, A) is in small block c1 + t
    and comes last of B and first of A: across slots by slot order, which
    ``select`` tests with the first edge's first slot; inside v's block by
    visit order, which the link (v, B's others, A's others) tests.
    ``holds`` reads the final colors: B's others at c1 + t, the last edge
    at ``color``."""
    seq, color = event.edges, event.color
    c1 = color - len(seq) + 1
    members = [h.edge_array[e].tolist() for e in seq]
    shared = [set(b) & set(a) for b, a in zip(members, members[1:])]
    if c1 < 1 or color > r or any(len(common) != 1 for common in shared):
        return []

    def bits(vertices):
        return sum(1 << w for w in vertices)

    links, sides, need = [], [], [(color - 1, bits(members[-1]))]
    for t, ((v,), b, a) in enumerate(zip(shared, members, members[1:])):
        before, after = [w for w in b if w != v], [w for w in a if w != v]
        links.append((v, bits(before), bits(after)))
        sides.append((v, 2 * (c1 + t) - 1, before, after))
        need.append((c1 + t - 1, bits(before)))

    def select(vectors):
        first = vectors[:, members[0]]
        if not sides:
            return (first == 2 * color - 2).all(axis=1)
        ok = first.min(axis=1) // 2 == c1 - 1
        for v, slot, before, after in sides:
            at = vectors[:, v : v + 1]
            ok &= (at[:, 0] == slot) & (vectors[:, before] <= at).all(axis=1)
            ok &= (vectors[:, after] >= at).all(axis=1)
        return ok

    def holds(masks, deflected):
        return np.logical_and.reduce([(masks[:, c] & b) == b for c, b in need])

    return [(select, links, 0, [(j, holds)])]
