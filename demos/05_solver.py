"""The end-to-end Las Vegas solver.

solve_equitable retries randomized constructions until one verifies, so any
returned coloring is correct by construction; only the restart count is
random.  Small instances draw uniform balanced colorings directly; larger
ones run the two-stage coloring plus rebalancing.  When restarts run out,
an optional exhaustive pass settles feasibility outright.
"""

import json

from eqcolor import Hypergraph, SolveConfig, greedy_repair, is_equitable, solve_equitable
from eqcolor import Coloring

# A feasible instance.  The report records the outcome, the winning attempt,
# and the route taken.
h = Hypergraph(10, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 0)])
report = solve_equitable(h, 3, SolveConfig(seed=1))
print("outcome:", report.outcome)
print("coloring:", report.coloring.colors.tolist(), "sizes", list(report.coloring.sizes))
print("attempts:", report.attempts, "path:", report.path)
assert is_equitable(h, report.coloring)

# Reports serialize for logs and the command line.
print(json.dumps(report.to_json_dict(), indent=1)[:200], "...")

# K4 has no equitable 2-coloring.  With an enumeration budget the solver
# proves it rather than just giving up.
k4 = Hypergraph(4, 2, [(a, b) for a in range(4) for b in range(a + 1, 4)])
report = solve_equitable(k4, 2, SolveConfig(seed=1, max_restarts=30))
print("K4:", report.outcome)

# Without a budget the same instance merely exhausts its restarts.
report = solve_equitable(k4, 2, SolveConfig(seed=1, max_restarts=30, enumeration_budget=0))
print("K4 without enumeration:", report.outcome)

# Forcing a route shows the two construction paths individually.
big = Hypergraph(40, 3, [(i, i + 1, i + 2) for i in range(38)])
for path in ("balanced-only", "two-stage-only"):
    report = solve_equitable(big, 2, SolveConfig(seed=4, force_path=path))
    print(f"{path}: {report.outcome} in {report.attempts} attempts")

# greedy_repair nudges a proper, total coloring onto exact targets by
# recoloring light vertices; it returns None when every move would break
# properness.
pairs = Hypergraph(6, 2, [(0, 1), (2, 3)])
fixed = greedy_repair(pairs, Coloring(6, 2, [1, 2, 1, 2, 1, 1]), [3, 3])
print("repaired:", fixed.colors.tolist(), "sizes", list(fixed.sizes))
assert fixed.colors.tolist() == [1, 2, 1, 2, 2, 1]

star = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])
print("stuck star repair:", greedy_repair(star, Coloring(4, 2, [1, 2, 2, 2]), [2, 2]))
