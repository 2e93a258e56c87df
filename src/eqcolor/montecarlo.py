"""Monte Carlo estimators and an exact discrete oracle for the coloring
process.

Each quantity ``mc_estimate`` knows is one entry of the private table
``_SPECS``: its params, which the CLI turns into ``mc`` flags, and a
builder that validates them and gives the per-trial statistic, the report
label and the comparison.  One generic path samples, compares and reports.

Trials are seeded in blocks of ``_BLOCK`` trials, by the rule stated in
``seeding``.  They run in sub-batches of at most ``_SUB_BATCH_CELLS`` =
2^18 cells, trials x max(draws per trial, n x |E|), and each sub-batch
draws only its own rows.  The cap trades the kernel's fixed cost per call
(about 60 us) against the memory of the draws and of the kernel's
per-(trial, edge) arrays, which grows with the cap when almost every pair
is live (p near 1).  At m = 1000, n = 8, |E| = 400 a sub-batch holds 81
trials, and at p = 0.99 the kernel's arrays for one sub-batch peak at
about 14 MB.  Each sub-batch is colored at once, by one call of the
production kernel ``intervals._stage_colors`` or, for ``balanced-mono``,
by a balanced draw: each row of weights sorted into a permutation, which
``intervals._colors_at_sizes`` cuts into r equal classes, the same helper
that colors the solver's balanced attempts.  Every statistic acts on the
whole sub-batch: the production predicates ``hypergraph._mono_edges``,
``rebalance._candidates`` and ``_dangerous_edges``, and
``chains._chain_event_holds`` for their quantities, array expressions for
the other counts.

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
predicate, so the two routes can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .chains import (
    Deflected,
    _chain_event_holds,
    chain_probability_bound,
    dangerous_count_bound,
    expected_deflections_bound,
    mono_edge_probability_bound,
)
from .hypergraph import BudgetExceeded, Hypergraph, _check_colors, _mono_edges, class_targets
from .intervals import (
    IntervalPartition,
    _colors_at_sizes,
    _row_counts,
    _stage_colors,
    _weight_slots,
    balanced_mono_prob,
    choose_p,
)
from .rebalance import _candidates, _dangerous_edges, compute_p_tilde
from .seeding import ROLE_TRIALS, derive

__all__ = [
    "ChainEventSpec",
    "Comparison",
    "EstimateReport",
    "MonoEdgeExists",
    "QUANTITIES",
    "exact_c0_event_prob",
    "mc_estimate",
]

# trials that share one derived generator (see ``seeding``)
_BLOCK = 16384
# cap on the cells one sub-batch of ``_sample`` draws or gathers, trials x
# max(width, n x |E|): large enough to share the kernel's fixed cost per
# call among many trials, small enough to bound the draws and the kernel's
# per-(trial, edge) arrays when p is near 1; the sub-batch sizes change no
# estimate
_SUB_BATCH_CELLS = 1 << 18
# the exact oracle's largest m per r
_ORACLE_MAX_M = {2: 10, 3: 8}
# the largest m whose class tables (m * 2^m entries) the oracle builds
_MASK_MAX_M = 12

@dataclass(frozen=True)
class MonoEdgeExists:
    """Oracle event: some edge is monochromatic after the two stages."""


@dataclass(frozen=True)
class ChainEventSpec:
    """Oracle event: the fixed edge tuple forms an ordered chain certifying
    a monochromatic last edge of the given color."""

    edges: tuple[int, ...]
    color: int


@dataclass(frozen=True)
class Comparison:
    kind: str  # "exact" | "bound"
    value: float


@dataclass(frozen=True)
class EstimateReport:
    quantity: str
    trials: int
    estimate: float
    half_width: float
    comparison: Optional[Comparison]

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "trials": self.trials,
            "estimate": self.estimate,
            "half_width": self.half_width,
            "comparison": None
            if self.comparison is None
            else {"kind": self.comparison.kind, "value": self.comparison.value},
        }


def _sample(
    h: Hypergraph,
    r: int,
    partition: Optional[IntervalPartition],
    trials: int,
    seed: int,
    stat,
    with_keep: bool,
) -> tuple[float, float]:
    """Sampling loop over sub-batches.  Trial t draws ``width`` uniforms,
    m weights and then, when ``with_keep``, m keep draws, by the block rule
    of ``seeding``.  A sub-batch holds at most ``_SUB_BATCH_CELLS`` //
    max(width, n |E|) trials (at least one) and never crosses a block, so
    it draws its rows in one call.  Every sub-batch is colored at once: by
    the two-stage kernel on ``partition``, or, when ``partition`` is None,
    by a uniform balanced draw (each row of weights sorted into a
    permutation, cut into r equal classes by ``_colors_at_sizes``).
    ``stat(colors, deflections, slots, u, keep)`` gets the sub-batch's
    (T, m) arrays (``deflections`` and ``slots`` are None for balanced
    draws, ``keep`` is None unless ``with_keep``) and returns one integer
    or boolean value per trial.  ``slots`` and ``colors``, from the kernel
    or a balanced draw, come in the narrow signed dtype
    ``hypergraph._color_dtype(r)`` (int8 for r <= 64), so a statistic
    computes in that dtype only what stays within +-2r and widens the rest.
    The sums of values and squared values come back for the caller to turn
    into estimate and half-width."""
    m = h.m
    sizes = class_targets(m, r)
    width = 2 * m if with_keep else m
    sub = max(1, _SUB_BATCH_CELLS // max(1, width, h.edge_array.size))
    total = total_sq = lo = 0
    while lo < trials:
        if lo % _BLOCK == 0:
            rng = derive(seed, lo // _BLOCK, ROLE_TRIALS)
        take = min(sub, trials - lo, _BLOCK - lo % _BLOCK)
        mat = rng.random((take, width))
        u, keep = mat[:, :m], mat[:, m:] if with_keep else None
        if partition is None:
            perms = np.argsort(u, axis=1, kind="stable")
            colors, deflections, slots = _colors_at_sizes(perms, sizes), None, None
        else:
            slots = _weight_slots(partition, u)
            colors, deflections, _ = _stage_colors(h, r, slots, u)
        vals = np.asarray(stat(colors, deflections, slots, u, keep), dtype=np.int64)
        total += int(vals.sum())
        total_sq += int((vals * vals).sum())
        lo += take
    return float(total), float(total_sq)


def _oracle_or_bound(h, r, p, event, bound_value: Optional[float]) -> Optional[Comparison]:
    if h.m <= _ORACLE_MAX_M.get(r, -1):
        try:
            return Comparison("exact", exact_c0_event_prob(h, r, event, p=p, budget=10**6))
        except BudgetExceeded:
            pass
    if bound_value is None:
        return None
    return Comparison("bound", bound_value)


class _Param(NamedTuple):
    """A key of ``mc_estimate``'s params; ``type`` parses its CLI flag."""

    name: str
    type: Callable[[str], object]
    required: bool
    help: str


class _Spec(NamedTuple):
    """A quantity.  ``build(h, r, p, values)`` validates the param values
    and returns the report label, the per-trial statistic (see ``_sample``)
    and a function computing the comparison.  ``mean``: the estimate is a
    mean, not a probability; ``with_keep``: each trial draws m keep values
    after its m weights.  Quantities that take ``p`` run the two stages, the
    others get p = None and balanced draws."""

    build: Callable
    params: tuple[_Param, ...]
    mean: bool = False
    with_keep: bool = False


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _small_block(i, r: int) -> int:
    i = int(i)
    if not 1 <= i <= r - 1:
        raise ValueError(f"small-block index must lie in 1..{r - 1}")
    return i


def _mono_edge(h, r, p, values):
    def stat(colors, deflections, slots, u, keep):
        return _mono_edges(h, colors).any(axis=1)

    return "mono-edge", stat, lambda: _oracle_or_bound(
        h, r, p, MonoEdgeExists(), mono_edge_probability_bound()
    )


def _expected_deflections(h, r, p, values):
    i = _small_block(values["i"], r)

    def stat(colors, deflections, slots, u, keep):
        return deflections[:, i - 1]

    # one enumeration sums the deflection probabilities of all m vertices;
    # the generator builds the m events only if the oracle runs
    return f"expected-deflections(i={i})", stat, lambda: _oracle_or_bound(
        h, r, p, (Deflected(v, i) for v in range(h.m)), expected_deflections_bound(h.n, r)
    )


def _excess_pattern(h, r, p, values):
    targets = class_targets(h.m, r)

    def stat(colors, deflections, slots, u, keep):
        sizes = _row_counts(colors, r + 1)[:, 1:]
        return (sizes[:, : r - 1] >= targets[: r - 1]).all(axis=1)

    return "excess-pattern", stat, lambda: Comparison("bound", 0.5 - 0.04 * math.e)


def _dangerous_count(h, r, p, values):
    p_tilde = values.get("p_tilde")
    p_tilde = float(p_tilde) if p_tilde is not None else compute_p_tilde(h.m, h.n, r, p)
    if not 0.0 <= p_tilde <= 1.0:
        raise ValueError("keep probability must lie in [0, 1]")

    def stat(colors, deflections, slots, u, keep):
        candidate = _candidates(slots, keep, p_tilde, r)
        return _dangerous_edges(h, candidate, colors, r).sum(axis=1)

    label = f"dangerous-count(p_tilde={p_tilde:.6g})"
    return label, stat, lambda: Comparison("bound", dangerous_count_bound(h.n, r))


def _balanced_mono(h, r, p, values):
    if h.m % r != 0:
        raise ValueError("balanced draws require r | m")
    if not len(h.edge_array):
        raise ValueError("balanced-mono needs an edge to watch")
    edge_idx = int(values.get("edge", 0))
    if not 0 <= edge_idx < len(h.edge_array):
        raise ValueError("edge must index into the hypergraph")
    edge = h.edge_array[edge_idx]

    def stat(colors, deflections, slots, u, keep):
        sub = colors[:, edge]
        return np.all(sub == sub[:, :1], axis=1)

    label = f"balanced-mono(edge={edge_idx})"
    return label, stat, lambda: Comparison("exact", balanced_mono_prob(h.m, h.n, r).value)


def _chain_event(h, r, p, values):
    seq = tuple(int(e) for e in values["edges"])
    color = int(values["color"])
    k = len(seq)
    if k < 1 or not all(0 <= e < len(h.edge_array) for e in seq):
        raise ValueError("edges must index into the hypergraph")
    if color - k + 1 < 1 or color > r:
        raise ValueError("chain length does not fit the color")
    for j in range(k - 1):
        if len(np.intersect1d(h.edge_array[seq[j]], h.edge_array[seq[j + 1]])) != 1:
            raise ValueError("consecutive edges must share exactly one vertex")

    def stat(colors, deflections, slots, u, keep):
        return _chain_event_holds(h, slots, u, colors, seq, color)

    label = f"chain-event(edges={','.join(map(str, seq))};color={color})"
    return label, stat, lambda: _oracle_or_bound(
        h, r, p, ChainEventSpec(seq, color), chain_probability_bound(h.n, r, k)
    )


def _deflected(h, r, p, values):
    v0 = int(values["v"])
    i = values.get("i")
    if not 0 <= v0 < h.m:
        raise ValueError("vertex out of range")
    if i is not None:
        i = _small_block(i, r)

    def stat(colors, deflections, slots, u, keep):
        s = slots[:, v0]
        block = (s + 1) // 2
        hit = (s & 1 == 1) & (colors[:, v0] == block + 1)
        return hit if i is None else hit & (block == i)

    label = f"deflected(v={v0})" if i is None else f"deflected(v={v0},i={i})"
    return label, stat, lambda: _oracle_or_bound(h, r, p, Deflected(v0, i), None)


_P = _Param("p", float, False, "override the subinterval parameter")
_I = _Param("i", int, True, "small-block index")
_SPECS = {
    "mono-edge": _Spec(_mono_edge, (_P,)),
    "expected-deflections": _Spec(_expected_deflections, (_P, _I), mean=True),
    "excess-pattern": _Spec(_excess_pattern, (_P,)),
    "dangerous-count": _Spec(
        _dangerous_count,
        (_P, _Param("p_tilde", float, False, "candidate keep probability")),
        mean=True,
        with_keep=True,
    ),
    "balanced-mono": _Spec(_balanced_mono, (_Param("edge", int, False, "edge index, default 0"),)),
    "chain-event": _Spec(
        _chain_event,
        (
            _P,
            _Param("edges", _int_list, True, "comma-separated edge tuple"),
            _Param("color", int, True, "chain color"),
        ),
    ),
    "deflected": _Spec(
        _deflected, (_P, _Param("v", int, True, "vertex"), _I._replace(required=False))
    ),
}
QUANTITIES = tuple(_SPECS)


def mc_estimate(
    quantity: str,
    h: Hypergraph,
    r: int,
    params: Optional[dict] = None,
    trials: int = 10**5,
    seed: int = 0,
    compare: bool = True,
) -> EstimateReport:
    """Estimate one quantity of the coloring process by simulation.

    Quantities, their params and their comparison values:

    * ``mono-edge``: probability that the two stages leave some edge
      monochromatic.  Exact when enumerable, else the bound 0.04e.
    * ``expected-deflections`` (``i``): mean number of deflections out of
      small_i.  Exact when enumerable, else the bound 0.04e n / (r ln n).
    * ``excess-pattern``: probability that every class below r ends at or
      above its target size.  Always the lower bound 1/2 - 0.04e.
    * ``dangerous-count`` (optional ``p_tilde``): mean number of dangerous
      edges when candidate sets are drawn after every run, monochromatic
      or not.  Always the tail threshold n / (r ln n) that the count
      should rarely exceed, not its mean.
    * ``balanced-mono`` (optional ``edge``, default 0): probability that
      the edge is monochromatic under a uniform balanced draw; requires
      r | m.  Always its exact closed form.
    * ``chain-event`` (``edges``, ``color``): probability that the edge
      tuple forms an ordered chain certifying a monochromatic last edge.
      Exact when enumerable, else the chain bound.
    * ``deflected`` (``v``, optional ``i``): probability that vertex v is
      deflected, out of small_i or out of any small block.  Exact when
      enumerable, else none.

    Every quantity but ``balanced-mono`` also takes ``p``, in [0, 1), which
    overrides the derived subinterval parameter; r lies in 1..m, and in
    2..m for the quantities that take ``p``, both checked before any
    sampling.  With ``compare`` the report carries the comparison value;
    "enumerable" means within the oracle's limits (m <= 10 at r = 2, m <= 8
    at r = 3) and at most 10^6 configurations (m <= 8 at r = 2, m <= 7 at
    r = 3).
    """
    _check_colors(r, h.m)
    if trials < 1:
        raise ValueError("need at least one trial")
    if quantity not in _SPECS:
        raise ValueError(f"unknown quantity {quantity!r}")
    spec = _SPECS[quantity]
    params = dict(params or {})
    values = {}
    for prm in spec.params:
        if prm.name in params:
            values[prm.name] = params.pop(prm.name)
        elif prm.required:
            raise ValueError(f"{quantity} needs params[{prm.name!r}]")
    if params:
        raise ValueError(f"unexpected params: {sorted(params)}")
    partition = None
    if _P in spec.params:
        p = values.pop("p", None)
        partition = IntervalPartition(choose_p(h.n, r) if p is None else float(p), r)
    label, stat, comparison = spec.build(h, r, None if partition is None else partition.p, values)
    total, total_sq = _sample(h, r, partition, trials, seed, stat, spec.with_keep)
    return _report(label, trials, total, total_sq, spec.mean, comparison() if compare else None)


def _report(label, trials, total, total_sq, mean: bool, comparison) -> EstimateReport:
    """Point estimate and 3-sigma half-width: binomial for a probability,
    from the sample variance for a mean."""
    estimate = total / trials
    if not mean:
        hw = 3.0 * math.sqrt(max(0.0, estimate * (1.0 - estimate)) / trials)
    elif trials >= 2:
        var = max(0.0, (total_sq - total * total / trials) / (trials - 1))
        hw = 3.0 * math.sqrt(var / trials)
    else:
        hw = 0.0
    return EstimateReport(label, trials, estimate, hw, comparison)


def exact_c0_event_prob(
    h: Hypergraph,
    r: int,
    event,
    p: Optional[float] = None,
    budget: int = 10**7,
) -> float:
    """Exact probability of an event of the two-stage coloring: the exact
    measure of the (subinterval assignment, within-small-block order)
    configurations where it holds.

    Supports MonoEdgeExists, Deflected (interval None means any small
    block), and ChainEventSpec.  Given a list (or other iterable) of
    events, returns the sum of their probabilities: each event has its own
    accumulator, capped at 1 against rounding, and the accumulators are
    summed in order, so the sum equals that of one call per event.
    Requires 2 <= r <= m, m <= 10 at r = 2 and m <= 8 at r = 3, and p in
    [0, 1), the partition's rule; raises BudgetExceeded, before any work,
    when the configuration count passes ``budget``.
    Each group of slot vectors with the same small-block sizes adds, in
    group order, its weight times the exact count of its configurations
    where the event holds.  The counts come from ``_visit_states``, over
    runs of consecutive groups of at most ``_SUB_BATCH_CELLS``
    configurations in all (a larger group runs alone): one pass for all
    MonoEdgeExists and Deflected events, one per ChainEventSpec.
    """
    _check_colors(r, h.m, least=2)
    if r > 3 or h.m > _ORACLE_MAX_M[r]:
        raise ValueError("exact enumeration supports m <= 10 at r = 2 and m <= 8 at r = 3")
    p = IntervalPartition(choose_p(h.n, r) if p is None else p, r).p
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
    # within _SUB_BATCH_CELLS; a larger group runs alone
    g = 0
    while g < len(weights):
        end, cells = g + 1, sizes[g]
        while end < len(weights) and cells + sizes[end] <= _SUB_BATCH_CELLS:
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
    return sum(min(total, 1.0) for total in totals)


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
            shared.append((j, partial(_deflected_holds, event)))
            watch |= 1 << event.vertex
        elif isinstance(event, ChainEventSpec):
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
