"""Rebalancing a proper coloring onto exact class targets.

The two stages deliver properness but not equitability: deflections push
vertices toward higher colors, so low classes run over target and the last
class runs short.  Rebalancing recolors a few stage-1 vertices to color r,
avoiding "dangerous" edges that recoloring could make monochromatic.
"""

import numpy as np

from eqcolor import (
    Hypergraph,
    IntervalPartition,
    RegimeViolation,
    apply_recolor,
    build_rebalance_plan,
    class_targets,
    compute_p_tilde,
    compute_q,
    choose_p,
    excess_shortage,
    is_proper,
    run_interval_coloring,
    sample_weights,
)

# The recoloring quota q and per-vertex keep probability p~ at the scale the
# guarantee targets.
p = choose_p(100, 2)
q = compute_q(10**4, 100, 2, p)
print(f"q at m=10^4, n=100, r=2: {q:.4f}")
print(f"p~: {compute_p_tilde(10**4, 100, 2, p):.6f}")

# At desk scale q overshoots m and the derived p~ exceeds 1; the calculator
# refuses and callers pass an explicit keep probability instead.
try:
    compute_p_tilde(20, 2, 2, 0.2)
except RegimeViolation as exc:
    print("desk scale:", exc)

# A concrete rebalance: search weight seeds for a run that comes out proper
# with all shortage on the last color and admits a feasible plan.  Plans can
# come back infeasible when the candidate draw leaves too few unpinned
# vertices; the caller just redraws.
h = Hypergraph(12, 2, [(0, 3), (2, 7), (4, 9), (5, 11), (1, 8)])
part = IntervalPartition(0.3, 2)
targets = class_targets(12, 2)
rng = np.random.default_rng(0)
attempts = 0
while True:
    attempts += 1
    init = run_interval_coloring(h, 2, part, sample_weights(12, int(rng.integers(0, 2**32))))
    coloring = init.coloring
    ex, sh = excess_shortage(coloring, targets)
    if not is_proper(h, coloring) or any(sh[:-1]) or sum(ex) == 0:
        continue
    plan = build_rebalance_plan(h, init, targets, seed=int(rng.integers(0, 2**32)), p_tilde=0.9)
    if plan.feasible:
        break
print(f"usable scenario after {attempts} runs")
print("sizes before:", list(coloring.sizes), "targets:", targets)
print("excess:", ex, "shortage:", sh)
# V_i and W_i are sorted vertex-id arrays
print("candidate sets V:", [v.tolist() for v in plan.vsets])
print("dangerous edges:", plan.dangerous)
print("recolor sets W:", [w.tolist() for w in plan.wsets])

# The plan recolors each W_i to color r on a copy; the result is proper and
# exactly on target.
after = apply_recolor(coloring, plan.wsets)
print("sizes after:", list(after.sizes), "proper:", is_proper(h, after))
