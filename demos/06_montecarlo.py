"""Monte Carlo estimators and the exact event oracle.

mc_estimate simulates the two-stage coloring in vectorized sub-batches,
seeded per block of trials (see eqcolor.seeding), and reports an estimate
with a 3-sigma half-width.  For instances small enough to enumerate (for
mc_estimate, m <= 8 and r <= 3; the oracle itself goes to m = 10 at r = 2)
an independent exact oracle integrates over every subinterval assignment
and within-block order, giving ground truth the estimates are checked
against; beyond that the report falls back to the closed-form bound.
"""

from eqcolor import (
    ChainEventSpec,
    Deflected,
    Hypergraph,
    MonoEdgeExists,
    exact_c0_event_prob,
    mc_estimate,
)

# One edge, p=0.2: the exact mono probability is 0.32 (both endpoints in
# the same large block: 2 * 0.4^2), and the only small-block configurations
# that stay monochromatic contribute the rest.
single = Hypergraph(2, 2, [(0, 1)])
exact = exact_c0_event_prob(single, 2, MonoEdgeExists(), p=0.2)
rep = mc_estimate("mono-edge", single, 2, params={"p": 0.2}, trials=200_000, seed=1)
print(f"single edge: exact {exact:.6f}, "
      f"estimate {rep.estimate:.6f} +- {rep.half_width:.6f}")
assert abs(rep.estimate - exact) <= rep.half_width

# With compare left on, the report carries the oracle value itself.
tri = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])
rep = mc_estimate("mono-edge", tri, 2, trials=100_000, seed=2)
print("tri-pair estimate:", round(rep.estimate, 5),
      "comparison:", rep.comparison)

# Other event shapes: a fixed vertex deflected, and a fixed edge pair
# forming a chain.
print("P(vertex 2 deflected):",
      exact_c0_event_prob(tri, 2, Deflected(2, None)))
print("P(edges (0,1) chain for color 2):",
      exact_c0_event_prob(tri, 2, ChainEventSpec((0, 1), 2)))

# Means work the same way: expected deflections out of small_1.
rep = mc_estimate("expected-deflections", tri, 2, params={"i": 1},
                  trials=100_000, seed=3)
print(f"E[X(1)] estimate: {rep.estimate:.4f} +- {rep.half_width:.4f}",
      "exact:", rep.comparison.value)

# Past m=8 mc_estimate does not ask the oracle and the comparison degrades
# to the bound.
big = Hypergraph(12, 3, [(i, i + 1, i + 2) for i in range(10)])
rep = mc_estimate("mono-edge", big, 2, trials=50_000, seed=4)
print("m=12 comparison kind:", rep.comparison.kind,
      "value:", round(rep.comparison.value, 5))

# Balanced-draw events have their own closed form to check against.
square = Hypergraph(4, 2, [(0, 1)])
rep = mc_estimate("balanced-mono", square, 2, trials=100_000, seed=5)
print(f"balanced mono estimate: {rep.estimate:.4f} (exact 1/3)")
