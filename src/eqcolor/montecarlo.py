"""Monte Carlo estimators for the coloring process.

Each quantity ``mc_estimate`` knows is one entry of the private table
``_SPECS``: its params, which the CLI turns into ``mc`` flags, and a
builder that validates them and gives the per-trial statistic, the report
label and the comparison.  One generic path samples, compares and reports.

Trials are seeded in blocks of ``_BLOCK`` trials, by the rule stated in
``seeding``.  They run in sub-batches of at most ``_SUB_BATCH_CELLS`` =
2^18 cells, trials x max(draws per trial, n x |E|), and each sub-batch
draws only its own rows.  The cap trades the kernel's fixed cost per call
(37-102 us at T = 1 on five desk-scale instances, measured on a 2-core
VM) against the memory of the draws and of the kernel's
per-(trial, edge) arrays, which grows with the cap when almost every pair
is live (p near 1).  At m = 1000, n = 8, |E| = 400 a sub-batch holds 81
trials, and at p = 0.99 the kernel's arrays for one sub-batch peak at
about 14 MB.  Each sub-batch is colored at once: by one
``intervals.run_interval_coloring`` call, the only way into the two
stages, or for ``balanced-mono`` by sorting each row of weights into a
permutation that ``intervals._colors_at_sizes`` cuts into r equal
classes, as the solver colors its balanced attempts.  Every statistic
reads the whole sub-batch through the production predicates
(``hypergraph._mono_edges``, ``rebalance._candidates`` and
``_dangerous_edges``, ``chains._chain_event_holds``) or the batch's
deflected pairs.  Within its limits, the exact oracle of ``oracle`` gives
the comparison value.  Integer params are read by ``hypergraph._integer``
and the real ones, ``p`` and ``p_tilde``, by ``hypergraph._real``; both
refuse a bool or a string rather than read it as a number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .chains import (
    Deflected,
    _chain_event_holds,
    _link_vertex,
    chain_probability_bound,
    dangerous_count_bound,
    expected_deflections_bound,
    mono_edge_probability_bound,
)
from .hypergraph import (
    BudgetExceeded,
    Hypergraph,
    _check_colors,
    _integer,
    _mono_edges,
    _real,
    class_targets,
)
from .intervals import (
    IntervalPartition,
    _colors_at_sizes,
    balanced_mono_prob,
    choose_p,
    run_interval_coloring,
)
from .oracle import _ORACLE_MAX_M, ChainEventSpec, MonoEdgeExists, exact_c0_event_prob
from .rebalance import (
    _candidates,
    _check_keep,
    _dangerous_edges,
    _excess_pattern_holds,
    compute_p_tilde,
)
from .seeding import ROLE_TRIALS, _draw_rows, _streams, derive

__all__ = ["Comparison", "EstimateReport", "QUANTITIES", "mc_estimate"]

# trials that share one derived generator (see ``seeding``)
_BLOCK = 16384
# cap on the cells one sub-batch of ``_sample`` draws or gathers, trials x
# max(width, n x |E|): large enough to share the kernel's fixed cost per
# call among many trials, small enough to bound the draws and the kernel's
# per-(trial, edge) arrays when p is near 1; the sub-batch sizes change no
# estimate
_SUB_BATCH_CELLS = 1 << 18


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
        # the fields in order, the comparison as {"kind", "value"} or None
        return asdict(self)


def _sample(
    h: Hypergraph,
    r: int,
    partition: Optional[IntervalPartition],
    trials: int,
    seed: int,
    stat,
    with_keep: bool,
) -> tuple[float, float]:
    """Sampling loop over sub-batches.  Trial t draws ``width`` uniforms, m
    weights and then, when ``with_keep``, m keep draws, by the block rule of
    ``seeding``.  A sub-batch holds at most ``_SUB_BATCH_CELLS`` //
    max(width, n |E|) trials (at least one), colored by one
    ``run_interval_coloring`` call on ``partition`` or, when it is None, by
    a balanced draw.  ``stat(colors, batch, keep)`` takes its (T, m) colors,
    its ``InitialColoringBatch`` (None for a balanced draw) and keep draws
    (None unless ``with_keep``) and returns one integer or boolean per
    trial; colors and slots are in ``hypergraph._color_dtype(r)``, so it
    widens what may leave +-2r.  Returns the sums of values and squares."""
    m = h.m
    sizes = class_targets(m, r)
    width = 2 * m if with_keep else m
    sub = max(1, _SUB_BATCH_CELLS // max(1, width, h.edge_array.size))
    streams = _streams(lambda b: derive(seed, b, ROLE_TRIALS), _BLOCK)
    total = total_sq = 0
    for lo in range(0, trials, sub):
        mat = _draw_rows(streams, min(sub, trials - lo), lambda rng, k: rng.random((k, width)))
        u, keep = mat[:, :m], mat[:, m:] if with_keep else None
        if partition is None:
            colors, batch = _colors_at_sizes(np.argsort(u, axis=1, kind="stable"), sizes), None
        else:
            batch = run_interval_coloring(h, r, partition, u)
            colors = batch.colors
        vals = np.asarray(stat(colors, batch, keep), dtype=np.int64)
        # drop this sub-batch's record before the next one is drawn and colored
        del batch, colors
        total += int(vals.sum())
        total_sq += int((vals * vals).sum())
    return float(total), float(total_sq)


def _row_counts(values: np.ndarray, k: int) -> np.ndarray:
    """(T, k) counts of the values 0..k-1 in each row of a (T, m) integer
    array: one bincount, row t offset by t * k in int64 (no narrow overflow)."""
    offsets = np.arange(0, len(values) * k, k, dtype=np.int64)[:, None]
    return np.bincount((values + offsets).ravel(), minlength=len(values) * k).reshape(-1, k)


def _oracle_or_bound(h, r, p, event, bound_value: Optional[float]) -> Optional[Comparison]:
    if h.m <= _ORACLE_MAX_M.get(r, -1):
        try:
            value = exact_c0_event_prob(h, r, event, p=p, budget=10**6)
            # a list of events gives one value each, summed in order
            return Comparison("exact", sum(value) if isinstance(value, tuple) else value)
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
    i = _integer(i, "params['i']", 1)
    if i > r - 1:
        raise ValueError(f"small-block index must lie in 1..{r - 1}")
    return i


def _mono_edge(h, r, p, values):
    def stat(colors, batch, keep):
        return _mono_edges(h, colors).any(axis=1)

    return "mono-edge", stat, lambda: _oracle_or_bound(
        h, r, p, MonoEdgeExists(), mono_edge_probability_bound()
    )


def _expected_deflections(h, r, p, values):
    i = _small_block(values["i"], r)

    def stat(colors, batch, keep):
        # the deflected vertices in small_i, slot 2i - 1, counted per trial
        keys = batch.deflected[0]
        return np.bincount(keys[batch.slots.take(keys) == 2 * i - 1] // h.m, minlength=len(batch))

    # one enumeration gives the deflection probabilities of all m vertices;
    # the generator builds the m events only if the oracle runs
    return f"expected-deflections(i={i})", stat, lambda: _oracle_or_bound(
        h, r, p, (Deflected(v, i) for v in range(h.m)), expected_deflections_bound(h.n, r)
    )


def _excess_pattern(h, r, p, values):
    targets = class_targets(h.m, r)

    def stat(colors, batch, keep):
        return _excess_pattern_holds(_row_counts(colors, r + 1)[:, 1:], targets)

    return "excess-pattern", stat, lambda: Comparison("bound", 0.5 - mono_edge_probability_bound())


def _dangerous_count(h, r, p, values):
    p_tilde = values.get("p_tilde")
    if p_tilde is None:
        p_tilde = compute_p_tilde(h.m, h.n, r, p)
    else:
        p_tilde = _real(p_tilde, "params['p_tilde']")
    _check_keep(p_tilde)

    def stat(colors, batch, keep):
        candidate = _candidates(batch.slots, keep, p_tilde, r)
        return _dangerous_edges(h, candidate, colors, r).sum(axis=1)

    label = f"dangerous-count(p_tilde={p_tilde:.6g})"
    return label, stat, lambda: Comparison("bound", dangerous_count_bound(h.n, r))


def _balanced_mono(h, r, p, values):
    if h.m % r != 0:
        raise ValueError("balanced draws require r | m")
    if not len(h.edge_array):
        raise ValueError("balanced-mono needs an edge to watch")
    edge_idx = _integer(values.get("edge", 0), "params['edge']")
    if not 0 <= edge_idx < len(h.edge_array):
        raise ValueError("edge must index into the hypergraph")
    watched = Hypergraph(h.m, h.n, h.edge_array[[edge_idx]])

    def stat(colors, batch, keep):
        return _mono_edges(watched, colors)[:, 0]

    label = f"balanced-mono(edge={edge_idx})"
    return label, stat, lambda: Comparison("exact", balanced_mono_prob(h.m, h.n, r).value)


def _chain_event(h, r, p, values):
    try:
        seq = list(values["edges"])
    except TypeError:
        raise ValueError(f"params['edges'] {values['edges']!r} is not a sequence") from None
    seq = tuple(_integer(e, "params['edges']") for e in seq)
    color = _integer(values["color"], "params['color']")
    k = len(seq)
    if k < 1 or not all(0 <= e < len(h.edge_array) for e in seq):
        raise ValueError("edges must index into the hypergraph")
    if color - k + 1 < 1 or color > r:
        raise ValueError("chain length does not fit the color")
    parts = h.edge_array[list(seq)]
    if any(_link_vertex(b, a) is None for b, a in zip(parts, parts[1:])):
        raise ValueError("consecutive edges must share exactly one vertex")

    def stat(colors, batch, keep):
        return _chain_event_holds(batch.slots, batch.weights, colors, parts, color)

    label = f"chain-event(edges={','.join(map(str, seq))};color={color})"
    return label, stat, lambda: _oracle_or_bound(
        h, r, p, ChainEventSpec(seq, color), chain_probability_bound(h.n, r, k)
    )


def _deflected(h, r, p, values):
    v0 = _integer(values["v"], "params['v']")
    i = values.get("i")
    if not 0 <= v0 < h.m:
        raise ValueError("vertex out of range")
    if i is not None:
        i = _small_block(i, r)

    def stat(colors, batch, keep):
        # v0 of trial t is key t * m + v0
        hit = np.isin(np.arange(len(batch)) * h.m + v0, batch.deflected[0])
        return hit if i is None else hit & (batch.slots[:, v0] == 2 * i - 1)

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
      above its target size.  Always 1/2 - 0.04e, a lower bound.
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

    The paper claims its bounds in its theorem's regime only: at most
    ``edge_threshold(n, r)`` edges (but for the chain bound), r < (ln
    n)^(1/5), n large and the derived p; elsewhere they are references.

    Every quantity but ``balanced-mono`` also takes ``p``, in [0, 1), which
    overrides the derived subinterval parameter; r lies in 1..m, and in 2..m
    for the quantities that take ``p``, and ``trials`` is at least 1, all
    checked before any sampling.  With ``compare`` the report carries the
    comparison value; "enumerable" means within the oracle's limits (m <= 10
    at r = 2, m <= 8 at r = 3) and at most 10^6 configurations (m <= 8 at
    r = 2, m <= 7 at r = 3).
    """
    r, trials, seed = _check_colors(r, h.m), _integer(trials, "trials", 1), _integer(seed, "seed")
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
        p = choose_p(h.n, r) if p is None else _real(p, "params['p']")
        partition = IntervalPartition(p, r)
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
