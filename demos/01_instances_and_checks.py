"""Instances, colorings, and the exhaustive oracle.

Builds hypergraphs three ways (constructor, text format, random generator),
checks colorings for properness and equitability, and asks the brute-force
oracle whether an equitable coloring exists at all.
"""

from eqcolor import (
    Coloring,
    Hypergraph,
    brute_force_equitable,
    class_targets,
    edge_threshold,
    generate_random,
    is_equitable,
    is_proper,
    parse_hypergraph,
)

# A 4-cycle as a 2-uniform hypergraph.  Edges go in as vertex tuples and
# are stored as the sorted rows of one read-only array, edge_array;
# vertices are 0..m-1.
cycle = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3), (3, 0)])
print("cycle:", cycle.m, "vertices,", len(cycle.edge_array), "edges")

# The text format: header line "m n E", one edge per line, # comments allowed.
text = """\
# the same 4-cycle
4 2 4
0 1
1 2
2 3
3 0
"""
assert parse_hypergraph(text) == cycle

# Colorings give every vertex one of the colors 1..r, and never change.
alternating = Coloring(4, 2, [1, 2, 1, 2])
lopsided = Coloring(4, 2, [1, 1, 2, 2])
print("alternating proper:", is_proper(cycle, alternating))
print("alternating equitable:", is_equitable(cycle, alternating))
print("lopsided proper:", is_proper(cycle, lopsided))  # edge (0,1) is mono

# Targets for equitable classes: sizes differ by at most one, largest first.
print("targets for m=7, r=3:", class_targets(7, 3))

# K4 has no equitable 2-coloring: every split into two pairs is an edge.
k4 = Hypergraph(4, 2, [(a, b) for a in range(4) for b in range(a + 1, 4)])
print("K4 equitable 2-coloring:", brute_force_equitable(k4, 2))

# A feasible instance instead; the oracle returns a witness.
path = Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])
witness = brute_force_equitable(path, 2)
print("path witness:", witness.colors.tolist(), "sizes", list(witness.sizes))
assert witness.colors.tolist() == [1, 2, 1, 2, 1]

# Random instances are seeded and reproducible.
h = generate_random(m=12, n=3, num_edges=8, seed=42)
assert generate_random(m=12, n=3, num_edges=8, seed=42) == h
print("random instance edges:", h.edge_array[:4].tolist(), "...")

# The guarantee threshold: instances with fewer edges than this are always
# equitably r-colorable for large n.  At desk scale the flag warns that the
# asymptotic regime does not apply.
bound = edge_threshold(100, 2)
print(f"edge threshold at n=100, r=2: {bound.value:.4g} "
      f"(asymptotic regime: {bound.asymptotic_regime})")
