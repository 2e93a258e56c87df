"""The two-stage interval coloring.

Vertices get i.i.d. uniform weights in [0,1); the unit interval is cut into
alternating large blocks (stage 1 assigns their occupants color i outright)
and small blocks (stage 2 walks their occupants by increasing weight and
deflects a vertex to the next color when keeping it would finish a
monochromatic edge).
"""

import numpy as np

from eqcolor import (
    Hypergraph,
    IntervalPartition,
    choose_p,
    run_interval_coloring,
    sample_weights,
)

# The small-block budget p shrinks as instances grow.
for n, r in ((100, 2), (1000, 3)):
    print(f"choose_p(n={n}, r={r}) = {choose_p(n, r):.6f}")

# A partition for r=2 at p=0.2: large_1 = [0, 0.4), small_1 = [0.4, 0.6),
# large_2 = [0.6, 1.0).  Blocks are numbered by slot: large_i is slot 2i-2
# and small_i slot 2i-1.
part = IntervalPartition(0.2, 2)
print("left ends:", [round(x, 3) for x in part.lefts])
for x in (0.1, 0.45, 0.95):
    print(f"  slot_of({x}) ->", part.slot_of(x))

# Hand-picked weights.  Vertex 1 lands in small_1; when its turn comes,
# vertex 0 already wears color 1 and edge (0,1) would go monochromatic, so
# vertex 1 is deflected to color 2.  The result is the run's record: its
# coloring, deflected vertices and their blocking edges, with the partition,
# weights and slots it was computed from.
h = Hypergraph(4, 2, [(0, 1)])
init = run_interval_coloring(h, 2, part, [0.1, 0.5, 0.7, 0.45])
print("colors:", init.coloring.colors.tolist())
assert init.coloring.colors.tolist() == [1, 2, 2, 1]
print("slots:", init.slots.tolist())
# The counts the analysis tracks are read off the slots: X[i-1] counts the
# vertices deflected out of small_i, Z[i-1] the weights in large_i or small_i.
x = np.bincount(init.slots[init.deflected[0]] // 2, minlength=1)
z = np.bincount(init.slots // 2, minlength=2)
print("deflections X:", x.tolist())
print("occupancy Z:", z.tolist())
# deflected pairs the deflected vertices, in increasing order, with the
# edge that deflected each.
for v, e in zip(*(a.tolist() for a in init.deflected)):
    print(f"vertex {v} deflected by edge {e} {h.edge_array[e].tolist()}")

# The bookkeeping identity: each class collects its block occupants, minus
# the vertices deflected out, plus the ones deflected in.
for i in range(1, 3):
    x_i = x[i - 1] if i < 2 else 0
    x_prev = x[i - 2] if i >= 2 else 0
    assert init.coloring.sizes[i - 1] == z[i - 1] - x_i + x_prev
print("class-size identity: ok")

# Random weights are seeded; the whole pipeline is deterministic from
# (instance, r, partition, seed).
h2 = Hypergraph(30, 3, [(i, i + 1, i + 2) for i in range(28)])
w2 = sample_weights(30, seed=7)
a = run_interval_coloring(h2, 3, IntervalPartition(choose_p(3, 3), 3), w2)
b = run_interval_coloring(h2, 3, IntervalPartition(choose_p(3, 3), 3), w2)
assert a.coloring.colors.tolist() == b.coloring.colors.tolist()
print("30-vertex run: sizes", list(a.coloring.sizes),
      "deflected vertices", a.deflected[0].tolist())
