"""Plain references the tests share: the chain-candidate enumerator, the
deflection and occupancy counts of a two-stage run, and the reader of a
module's imports from the package."""

import ast

import numpy as np

from eqcolor import ORDERED, BudgetExceeded


def enumerate_chains(h, k, kind=ORDERED, last_edge=None, budget=10**7):
    """Every edge sequence of length k matching the structural chain
    pattern, as (count, sequences).

    Ordered pattern: k distinct edges, consecutive pairs share exactly one
    vertex, non-consecutive pairs are disjoint; with ``last_edge`` only the
    sequences ending in it.  Complex pattern (k >= 2, ``last_edge``
    required): the first k-1 edges follow the ordered pattern among
    themselves, the (k-1)-th meets the fixed last edge, and earlier edges
    are unconstrained with respect to it.  Each walk grows backward from
    the last edge, one visit per partial sequence; BudgetExceeded after
    ``budget`` visits.
    """
    edges = [set(e) for e in h.edge_array.tolist()]
    num = len(edges)
    visits = 0
    results = []

    def bump():
        nonlocal visits
        visits += 1
        if visits > budget:
            raise BudgetExceeded(f"candidate enumeration exceeded budget {budget}")

    if kind == ORDERED:

        def grow(seq):
            bump()
            if len(seq) == k:
                results.append(tuple(reversed(seq)))
                return
            head = edges[seq[-1]]
            earlier = seq[:-1]
            for cand in range(num):
                if cand in seq:
                    continue
                if len(edges[cand] & head) != 1:
                    continue
                if any(edges[cand] & edges[e] for e in earlier):
                    continue
                seq.append(cand)
                grow(seq)
                seq.pop()

        for s in range(num) if last_edge is None else [last_edge]:
            grow([s])
        return len(results), results

    target = edges[last_edge]

    def grow_c(seq):
        bump()
        if len(seq) == k - 1:
            results.append(tuple(reversed(seq)) + (last_edge,))
            return
        head = edges[seq[-1]] if seq else None
        for cand in range(num):
            if cand == last_edge or cand in seq:
                continue
            if head is None:
                if not edges[cand] & target:
                    continue
            else:
                if len(edges[cand] & head) != 1:
                    continue
                if any(edges[cand] & edges[e] for e in seq[:-1]):
                    continue
            seq.append(cand)
            grow_c(seq)
            seq.pop()

    grow_c([])
    return len(results), results


def deflection_counts(deflected, slots, r):
    """(T, r - 1) deflections out of each small block, read off the
    kernel's deflected (key, edge) pairs and (T, m) slots: key t * m + v
    counts for trial t in column i - 1 when v's slot is small_i, 2i - 1."""
    keys = deflected[0]
    out = np.zeros((len(slots), r - 1), dtype=np.int64)
    np.add.at(out, (keys // slots.shape[1], slots.take(keys) // 2), 1)
    return out


def counts(init):
    """(X, Z) of a run's InitialColoring, as tuples of ints: X[i-1] counts
    the small_i vertices deflected to color i+1 (``deflection_counts`` of
    its one row), and Z[i-1] the vertices whose weight landed in large_i or
    small_i (just large_r for the last color)."""
    r = init.partition.r
    x = deflection_counts(init.deflected, init.slots[None], r)[0]
    z = np.bincount(init.slots // 2, minlength=r)
    return tuple(x.tolist()), tuple(z.tolist())


def package_imports(source: str) -> list[tuple[str, str]]:
    """Every (module, name) that ``source`` imports from the eqcolor
    package, by a relative or an absolute import; a whole module imported
    by name counts as (module, "*")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "eqcolor":
                    continue
                module = module.removeprefix("eqcolor").lstrip(".")
            if module:
                found += [(module, alias.name) for alias in node.names]
            else:
                found += [(alias.name, "*") for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "eqcolor":
                    found.append((alias.name.removeprefix("eqcolor").lstrip("."), "*"))
    return found
