"""Certificate chains for coloring failures.

When the two stages leave an edge monochromatic or deflect a vertex, a
backward walk through the blocking edges produces a chain: a sequence of
edges linked by single shared vertices whose placement and colors certify
exactly how the failure happened.  Chains are the unit the failure
probability analysis counts.
"""

from eqcolor import (
    Deflected,
    Hypergraph,
    IntervalPartition,
    MonoEdge,
    chain_probability_bound,
    extract_chain,
    mc_estimate,
    mono_edge_probability_bound,
    run_interval_coloring,
)

# Two edges sharing vertex 1.  Weights put vertex 0 in large_1, vertex 1 in
# small_1, vertex 2 in large_2.  Stage 2 deflects vertex 1 (edge (0,1) would
# go mono in color 1), which hands edge (1,2) to color 2 monochromatically.
h = Hypergraph(3, 2, [(0, 1), (1, 2)])
part = IntervalPartition(0.2, 2)
init = run_interval_coloring(h, 2, part, [0.1, 0.45, 0.7])
print("colors:", init.coloring.colors.tolist())

# The mono edge extracts to an ordered 2-chain: edge (0,1) explains why
# vertex 1 carries color 2 inside edge (1,2).  The walk reads the run's
# record alone (its slots, weights and blocking edges), and extract_chain
# checks every chain it builds with validate_chain before returning it.
rec = extract_chain(h, init, MonoEdge(1, 2))
print("ordered chain:", rec.to_json_dict())

# The deflection itself extracts to an improper chain ending at vertex 1.
rec2 = extract_chain(h, init, Deflected(1, 1))
print("improper chain:", rec2.to_json_dict())

# The converse question fixes an edge sequence and asks how often random
# weights make it an ordered chain for a color.  mc_estimate answers it
# with the chain predicate the analysis counts, over whole batches of
# trials; at this size the exact oracle gives the true value alongside.
rep = mc_estimate("chain-event", h, 2, {"edges": (0, 1), "color": 2, "p": part.p},
                  trials=20000, seed=3)
print(f"P((0,1)->(1,2) chained for color 2) ~ {rep.estimate:.4f} +- {rep.half_width:.4f},",
      f"exact {rep.comparison.value:.4f}")

# Closed-form bounds on chain probabilities, valid below the edge-count
# threshold.  The union bound sums the bound for a fixed k-chain over the
# edge sequences that could chain, at most 2 * C(|E|, k) of them.  They are
# asymptotic statements; at desk scale they can exceed observed frequencies
# by orders of magnitude without contradiction.
print("P(fixed 1-chain) at n=100, r=2:",
      chain_probability_bound(100, 2, 1))
print("P(any mono edge) bound:",
      mono_edge_probability_bound())
