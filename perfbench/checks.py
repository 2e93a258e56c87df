"""Output checks that do not trust the program.

Colorings are checked with this module's own numpy code against the
benchmark's own edge rows; ``eqcolor.is_proper`` is never called.  Every
check returns None when the output is correct and a one-line reason when
it is not.
"""

from __future__ import annotations

import math

import numpy as np


def coloring_error(inst, r: int, colors) -> str | None:
    """Colors in 1..r, no monochromatic edge, class sizes floor or ceil of m/r."""
    c = np.asarray(colors, dtype=np.int64)
    if c.shape != (inst.m,):
        return f"coloring has {c.size} entries for {inst.m} vertices"
    if c.min() < 1 or c.max() > r:
        return "color outside 1..r"
    edge_colors = c[inst.rows]
    mono = np.all(edge_colors == edge_colors[:, :1], axis=1)
    if mono.any():
        return f"edge {int(np.argmax(mono))} is monochromatic"
    sizes = np.bincount(c, minlength=r + 1)[1:]
    if not np.all((sizes == inst.m // r) | (sizes == -(-inst.m // r))):
        return f"class sizes {sizes.tolist()} are not equitable"
    return None


def solve_error(inst, op, report) -> str | None:
    if inst.infeasible_r == op.r:
        if report.outcome == "infeasible-by-oracle" and report.coloring is None:
            return None
        return f"outcome {report.outcome} on an instance infeasible by construction"
    if report.outcome != "success" or report.coloring is None:
        return f"outcome {report.outcome} on an instance not infeasible by construction"
    return coloring_error(inst, op.r, report.coloring.colors)


def oracle_error(inst, op, coloring) -> str | None:
    if coloring is None:
        if inst.infeasible_r == op.r:
            return None
        return "no coloring on an instance not infeasible by construction"
    return coloring_error(inst, op.r, coloring.colors)


def mc_error(op, report, reference=None) -> str | None:
    """``reference`` is the (estimate, half_width) pair of a benchmark-side
    estimate, needed when op.check is "reference"."""
    if report.trials != op.trials or not math.isfinite(report.estimate):
        return f"{report.trials} trials, estimate {report.estimate}"
    if report.estimate < 0 or report.half_width < 0:
        return "negative estimate or half-width"
    if op.check == "exact":
        cmp = report.comparison
        if cmp is None or cmp.kind != "exact":
            return "no exact comparison value"
        if abs(report.estimate - cmp.value) > report.half_width:
            return (
                f"estimate {report.estimate:.6g} is more than its half-width "
                f"{report.half_width:.3g} from the exact value {cmp.value:.6g}"
            )
    elif op.check == "reference":
        ref, ref_hw = reference
        if abs(report.estimate - ref) > report.half_width + ref_hw:
            return (
                f"estimate {report.estimate:.6g} +- {report.half_width:.3g} disagrees "
                f"with the benchmark-side estimate {ref:.6g} +- {ref_hw:.3g}"
            )
    return None


def reference_mono_edge(eq, h, inst, r: int, trials: int, seed: tuple) -> tuple[float, float]:
    """Probability that the two stages leave an edge monochromatic, estimated
    from the public ``sample_weights`` and ``run_interval_coloring`` on this
    benchmark's own seeds, with the same 3-sigma half-width as the program."""
    partition = eq.IntervalPartition(eq.choose_p(inst.n, r), r)
    rng = np.random.default_rng(np.random.SeedSequence((0x5EF,) + tuple(seed)))
    hits = 0
    for _ in range(trials):
        init = eq.run_interval_coloring(h, r, partition, eq.sample_weights(inst.m, rng))
        edge_colors = np.asarray(init.coloring.colors)[inst.rows]
        hits += bool(np.all(edge_colors == edge_colors[:, :1], axis=1).any())
    p = hits / trials
    return p, 3.0 * math.sqrt(p * (1.0 - p) / trials)
