"""Chain certificates for failures of the two-stage coloring.

Every failure event of the two-stage coloring is witnessed by a chain of
edges linked through deflected vertices:

* ordered chain: certifies a monochromatic edge of some color i.  Walking
  back from the edge's first vertex, each step crosses a deflected vertex
  into the edge that blocked it, one color lower.
* improper chain: certifies a single deflection.  Same walk, starting from
  the blocking edge, with the deflected vertex attached as terminal.
* complex chain: certifies a dangerous edge during rebalancing.  The walk
  starts from the reduced edge (the part of the dangerous edge weighted in
  small_{r-1} or large_r) treated as a pseudo-edge of color r.

The walk terminates when the first vertex of the current edge sits in the
large block of the current color, or, in a boundary case, when the current
edge lies wholly inside the small block of its color (its first vertex was
then colored there without deflection, so no earlier edge exists).  The
leading edge of a chain may therefore start inside a small block; validation
accepts both terminal shapes and otherwise checks the full membership,
ordering, coloring, and intersection pattern edge by edge.

Places are integer slots, read from ``intervals._assignment_slots``:
large_c is slot 2c-2 and small_c is slot 2c-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

import numpy as np

from .hypergraph import BudgetExceeded, Hypergraph
from .intervals import InitialColoring, IntervalPartition, WeightAssignment, _assignment_slots

__all__ = [
    "ChainInvalid",
    "ChainLink",
    "ChainRecord",
    "DangerousEdge",
    "Deflected",
    "MonoEdge",
    "chain_probability_bound",
    "dangerous_count_bound",
    "enumerate_chain_candidates",
    "expected_deflections_bound",
    "extract_chain",
    "mono_edge_probability_bound",
    "validate_chain",
]

ORDERED = "ordered"
IMPROPER = "improper"
COMPLEX = "complex"


class ChainInvalid(ValueError):
    """A chain record violates one of its structural invariants."""


@dataclass(frozen=True)
class MonoEdge:
    """Failure event: edge ``edge`` came out monochromatic in color ``color``."""

    edge: int
    color: int


@dataclass(frozen=True)
class Deflected:
    """Failure event: ``vertex`` in small_``interval`` was deflected."""

    vertex: int
    interval: int


@dataclass(frozen=True)
class DangerousEdge:
    """Failure event: ``edge`` could go monochromatic in color r if all of
    ``u_vertices``, its members inside the candidate sets, were recolored."""

    edge: int
    u_vertices: tuple[int, ...]


@dataclass(frozen=True)
class ChainLink:
    vertex: int
    weight: float


@dataclass(frozen=True)
class ChainRecord:
    """A certificate chain.

    ``edges`` lists edge indices from the earliest color to the failure;
    ``links`` holds the deflected vertex joining each consecutive pair.
    Improper chains add the deflected ``terminal_vertex``; complex chains
    add the ``reduced_edge`` (pseudo-edge vertices) and the
    ``candidate_vertices`` U that rebalancing would recolor.
    """

    kind: str
    color: int
    edges: tuple[int, ...]
    links: tuple[ChainLink, ...]
    terminal_vertex: Optional[int] = None
    reduced_edge: Optional[tuple[int, ...]] = None
    candidate_vertices: Optional[tuple[int, ...]] = None

    @property
    def k(self) -> int:
        return len(self.edges)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "color": self.color,
            "edges": list(self.edges),
            "links": [{"v": ln.vertex, "x": ln.weight} for ln in self.links],
            "terminal": self.terminal_vertex,
            "U": None if self.candidate_vertices is None else list(self.candidate_vertices),
        }


def _conflicting(h, slots, key, colors, b_edge, a_edge, color) -> np.ndarray:
    """Whether (A, B) conflict for ``color`` in each of T trials: they share
    exactly one vertex v, v is the last vertex of B and the first of A, v
    lies in small_{color-1}, and all of B minus v carries color-1.
    ``slots``, ``key`` and ``colors`` are (T, m) arrays, and trial t orders
    vertices by (key[t, v], v).  Returns one boolean per trial."""
    b, a = h.edge_array[[b_edge, a_edge]]
    shared = np.intersect1d(b, a)
    if len(shared) != 1:
        return np.zeros(len(slots), dtype=bool)
    v = shared[0]
    # edges list their vertices in id order, so ties by (key, id) go to the
    # last maximal key of B (a reversed argmax) and the first minimal of A
    last = b[len(b) - 1 - np.argmax(key[:, b[::-1]], axis=1)]
    first = a[np.argmin(key[:, a], axis=1)]
    ok = (last == v) & (first == v) & (slots[:, v] == 2 * color - 3)
    return ok & (colors[:, b[b != v]] == color - 1).all(axis=1)


def _first_last(wa: WeightAssignment, vertices: Collection[int]) -> tuple[int, int]:
    """The first and the last of ``vertices`` in the order of the key
    (weights[v], v): by weight, exact ties by vertex id."""
    ordered = sorted(vertices, key=lambda v: (wa.weights[v], v))
    return ordered[0], ordered[-1]


def _block(slot: int) -> str:
    """Name of a slot: large_c for slot 2c-2, small_c for slot 2c-1."""
    return f"{'small' if slot % 2 else 'large'}_{slot // 2 + 1}"


def _walk_back(
    h: Hypergraph,
    slots: np.ndarray,
    wa: WeightAssignment,
    init: InitialColoring,
    members: Sequence[int],
    start_edge: int,
    color: int,
) -> tuple[list[int], list[ChainLink]]:
    """Follow blocking records from the first vertex of ``members`` down to a
    terminal edge, returning the chain's edge indices and links."""
    cols = init.coloring.colors
    edges: list[int] = [start_edge]
    links: list[ChainLink] = []
    c = color
    while True:
        u = _first_last(wa, members)[0]
        if cols[u] != c:
            raise RuntimeError(
                f"chain walk inconsistency: vertex {u} should carry color {c}, found {cols[u]}"
            )
        s = slots[u]
        # large_c, or the whole edge sits inside small_c: either way u was
        # colored c without deflection, so the chain starts here
        if s == 2 * c - 2 or s == 2 * c - 1:
            break
        if s != 2 * c - 3:
            raise RuntimeError(
                f"chain walk inconsistency: vertex {u} colored {c} from {_block(s)}"
            )
        b = int(init.blocking[u])
        if b < 0:
            raise RuntimeError(
                f"chain walk inconsistency: no blocking edge recorded for deflected vertex {u}"
            )
        links.insert(0, ChainLink(u, float(wa.weights[u])))
        edges.insert(0, b)
        members = h.edge_array[b].tolist()
        c -= 1
    return edges, links


def extract_chain(
    h: Hypergraph,
    partition: IntervalPartition,
    wa: WeightAssignment,
    init: InitialColoring,
    failure: MonoEdge | Deflected | DangerousEdge,
) -> ChainRecord:
    """Build the certificate chain for an observed failure event.

    Raises ValueError when the event names an edge or vertex that does not
    exist or did not actually occur, or a dangerous edge that lies wholly
    in the candidate sets (no vertex to walk back from), and RuntimeError on walk
    inconsistencies that would indicate a bug in the coloring stages
    themselves.
    """
    cols = init.coloring.colors
    slots = _assignment_slots(partition, wa)
    if isinstance(failure, (MonoEdge, DangerousEdge)):
        if not 0 <= failure.edge < len(h.edge_array):
            raise ValueError(f"edge {failure.edge} outside 0..{len(h.edge_array) - 1}")

    if isinstance(failure, MonoEdge):
        edge = h.edge_array[failure.edge].tolist()
        if any(cols[v] != failure.color for v in edge):
            raise ValueError(
                f"edge {failure.edge} is not monochromatic in color {failure.color}"
            )
        edges, links = _walk_back(h, slots, wa, init, edge, failure.edge, failure.color)
        return ChainRecord(ORDERED, failure.color, tuple(edges), tuple(links))

    if isinstance(failure, Deflected):
        v, i = failure.vertex, failure.interval
        if not 0 <= v < h.m:
            raise ValueError(f"vertex {v} outside 0..{h.m - 1}")
        if slots[v] != 2 * i - 1:
            raise ValueError(f"vertex {v} does not lie in small_{i}")
        start = int(init.blocking[v])
        if cols[v] != i + 1 or start < 0:
            raise ValueError(f"vertex {v} was not deflected out of small_{i}")
        edges, links = _walk_back(h, slots, wa, init, h.edge_array[start].tolist(), start, i)
        return ChainRecord(IMPROPER, i, tuple(edges), tuple(links), terminal_vertex=v)

    if isinstance(failure, DangerousEdge):
        r = init.coloring.r
        edge = h.edge_array[failure.edge].tolist()
        u_set = tuple(v for v in edge if v in failure.u_vertices)
        reduced = tuple(v for v in edge if v not in failure.u_vertices)
        if not u_set:
            raise ValueError(f"edge {failure.edge} has no candidate-set vertices")
        if set(u_set) != set(failure.u_vertices):
            raise ValueError(
                f"candidate vertices of edge {failure.edge} must be members of it"
            )
        if not reduced:
            raise ValueError(
                f"edge {failure.edge} lies wholly in the candidate sets: "
                "no reduced edge to walk back from"
            )
        if any(cols[v] != r for v in reduced):
            raise ValueError(
                f"edge {failure.edge} is not dangerous: not all non-candidate vertices carry color {r}"
            )
        for v in reduced:
            s = slots[v]
            # small_{r-1} or large_r
            if s != 2 * r - 3 and s != 2 * r - 2:
                raise RuntimeError(
                    f"chain walk inconsistency: vertex {v} carries color {r} from {_block(s)}"
                )
        edges, links = _walk_back(h, slots, wa, init, reduced, failure.edge, r)
        return ChainRecord(
            COMPLEX,
            r,
            tuple(edges),
            tuple(links),
            reduced_edge=reduced,
            candidate_vertices=u_set,
        )

    raise TypeError(f"unknown failure type {type(failure).__name__}")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ChainInvalid(message)


def validate_chain(
    h: Hypergraph,
    partition: IntervalPartition,
    wa: WeightAssignment,
    init: InitialColoring,
    record: ChainRecord,
    vsets: Optional[Sequence[Collection[int]]] = None,
) -> None:
    """Check every structural invariant of a chain record, raising
    ChainInvalid on the first violation.

    Edge j of a k-chain for color i belongs to color c_j = i - k + j.  The
    checks cover the range of every edge index and vertex named, the
    intersection pattern (consecutive edges share exactly the link vertex,
    non-consecutive edges are disjoint), link placement (link j sits in
    small_{c_j}, was deflected by edge j, and is the last vertex of edge j
    and the first of edge j+1), and per-vertex membership: interior
    vertices of edge j carry color c_j from small_{c_j-1}, large_{c_j}, or
    small_{c_j}, except that the leading edge admits no small_{c_1 - 1}
    vertices and the last edge of an ordered or complex chain admits no
    small_{c_k} ones.
    """
    k = record.k
    i = record.color
    cols = init.coloring.colors
    slots = _assignment_slots(partition, wa)

    _check(k >= 1, "chain has no edges")
    _check(len(record.links) == k - 1, "link count must be k - 1")
    _check(i - k + 1 >= 1, "chain is longer than its color allows")
    if record.kind == ORDERED:
        _check(record.terminal_vertex is None, "ordered chains have no terminal vertex")
    elif record.kind == IMPROPER:
        _check(record.terminal_vertex is not None, "improper chains need a terminal vertex")
        _check(i <= init.coloring.r - 1, "improper chains certify deflections below color r")
    elif record.kind == COMPLEX:
        _check(i == init.coloring.r, "complex chains certify color r")
        _check(record.reduced_edge is not None, "complex chains need a reduced edge")
        _check(record.candidate_vertices is not None, "complex chains need candidate vertices")
    else:
        raise ChainInvalid(f"unknown chain kind {record.kind!r}")
    for e in record.edges:
        _check(0 <= e < len(h.edge_array), f"edge {e} outside 0..{len(h.edge_array) - 1}")
    for v in [ln.vertex for ln in record.links] + [record.terminal_vertex]:
        _check(v is None or 0 <= v < h.m, f"vertex {v} outside 0..{h.m - 1}")

    # vertex sets; for complex chains the last edge participates through
    # its reduced pseudo-edge
    member_sets = [set(h.edge_array[e].tolist()) for e in record.edges]
    if record.kind == COMPLEX:
        full_last = member_sets[-1]
        member_sets[-1] = set(record.reduced_edge)
        _check(
            member_sets[-1] <= full_last and set(record.candidate_vertices) <= full_last,
            "reduced edge and candidate vertices must come from the last edge",
        )
        _check(
            member_sets[-1] | set(record.candidate_vertices) == full_last
            and not member_sets[-1] & set(record.candidate_vertices),
            "reduced edge and candidate vertices must partition the last edge",
        )
        _check(len(record.candidate_vertices) > 0, "complex chains need a nonempty U")

    # intersection pattern
    for j in range(k - 1):
        link = record.links[j]
        shared = member_sets[j] & member_sets[j + 1]
        _check(
            shared == {link.vertex},
            f"edges {j} and {j + 1} must share exactly the link vertex",
        )
    for a in range(k):
        for b in range(a + 2, k):
            _check(
                not member_sets[a] & member_sets[b],
                f"non-consecutive edges {a} and {b} must be disjoint",
            )

    # links: placement, deflection record, ordering
    for j in range(k - 1):
        link = record.links[j]
        v = link.vertex
        c_j = i - k + j + 1
        _check(slots[v] == 2 * c_j - 1, f"link {j} must lie in small_{c_j}")
        _check(cols[v] == c_j + 1, f"link {j} must carry color {c_j + 1}")
        _check(
            init.blocking[v] == record.edges[j],
            f"link {j} must have been deflected by edge {j} of the chain",
        )
        _check(
            _first_last(wa, member_sets[j])[1] == v,
            f"link {j} must be the last vertex of edge {j}",
        )
        _check(
            _first_last(wa, member_sets[j + 1])[0] == v,
            f"link {j} must be the first vertex of edge {j + 1}",
        )
        _check(
            link.weight == float(wa.weights[v]),
            f"link {j} records the wrong weight",
        )

    # terminal vertex of an improper chain
    terminal = record.terminal_vertex
    if record.kind == IMPROPER:
        _check(slots[terminal] == 2 * i - 1, "terminal must lie in small_i")
        _check(cols[terminal] == i + 1, "terminal must carry color i + 1")
        _check(
            init.blocking[terminal] == record.edges[-1],
            "terminal must have been deflected by the last edge",
        )
        _check(
            _first_last(wa, member_sets[-1])[1] == terminal,
            "terminal must be the last vertex of the last edge",
        )

    # per-vertex membership and coloring: slots small_{c_j-1}, large_{c_j}
    # and small_{c_j}, trimmed at the chain's ends
    link_vertices = {ln.vertex for ln in record.links}
    for j in range(k):
        c_j = i - k + j + 1
        lo = 2 * c_j - 2 if j == 0 else 2 * c_j - 3
        hi = 2 * c_j - 2 if j == k - 1 and record.kind in (ORDERED, COMPLEX) else 2 * c_j - 1
        for v in member_sets[j]:
            if v in link_vertices or v == terminal:
                continue
            _check(cols[v] == c_j, f"vertex {v} of edge {j} must carry color {c_j}")
            s = slots[v]
            _check(
                lo <= s <= hi,
                f"vertex {v} of edge {j} lies in {_block(s)}, outside its allowed subintervals",
            )

    # candidate vertices of a complex chain live in the matching candidate
    # set: large_c below color r is slot 2c-2 <= 2r-4
    if record.kind == COMPLEX and vsets is not None:
        for v in record.candidate_vertices:
            s = slots[v]
            _check(
                s % 2 == 0 and s <= 2 * init.coloring.r - 4,
                f"candidate vertex {v} must sit in a large block below color r",
            )
            _check(
                v in vsets[s // 2],
                f"candidate vertex {v} missing from candidate set {s // 2 + 1}",
            )


def _chain_event_holds(h, slots, key, colors, edge_seq, color) -> np.ndarray:
    """Whether ``edge_seq`` came out as an ordered chain certifying a
    monochromatic last edge of ``color``, in each of T trials given as
    (T, m) arrays as ``_conflicting`` takes them.

    For k = 1 this asks for the whole edge to sit in large_color.  For
    longer chains: the last edge is monochromatic, every consecutive pair
    conflicts at its color, and the leading edge starts in its large block
    or lies wholly inside its small block.  The Monte Carlo ``chain-event``
    statistic calls it once per sub-batch."""
    k = len(edge_seq)
    trials = len(slots)
    if color - k + 1 < 1:
        return np.zeros(trials, dtype=bool)
    lead = h.edge_array[edge_seq[0]]
    holds = (colors[:, h.edge_array[edge_seq[-1]]] == color).all(axis=1)
    if k == 1:
        return holds & (slots[:, lead] == 2 * color - 2).all(axis=1)
    for j in range(1, k):
        c_j = color - k + j + 1
        holds &= _conflicting(h, slots, key, colors, edge_seq[j - 1], edge_seq[j], c_j)
    # the first vertex of the leading edge by (key, id)
    first = lead[np.argmin(key[:, lead], axis=1)]
    s = slots[np.arange(trials), first]
    c_1 = color - k + 1
    return holds & ((s == 2 * c_1 - 2) | (s == 2 * c_1 - 1))


def enumerate_chain_candidates(
    h: Hypergraph,
    k: int,
    kind: str = ORDERED,
    last_edge: Optional[int] = None,
    budget: int = 10**7,
) -> tuple[int, list[tuple[int, ...]]]:
    """Exhaustively list edge sequences matching the structural chain pattern.

    Ordered pattern: k distinct edges, consecutive pairs share exactly one
    vertex, non-consecutive pairs are disjoint.  Complex pattern (k >= 2,
    ``last_edge`` required): the first k-1 edges follow the ordered pattern
    among themselves, the (k-1)-th meets the fixed last edge, and earlier
    edges are unconstrained with respect to it.  The count never exceeds
    2 * C(|E|, k) (ordered) or 2 * C(|E|, k-1) (complex).
    """
    if k < 1:
        raise ValueError("chain length must be positive")
    edges = [set(e) for e in h.edge_array.tolist()]
    num = len(edges)
    if last_edge is not None and not 0 <= last_edge < num:
        raise ValueError(f"last edge {last_edge} outside 0..{num - 1}")
    if kind == ORDERED:
        starts = range(num) if last_edge is None else [last_edge]
        # the complex pattern differs in two ways: the edge before the last
        # need only meet it, and no earlier edge has to avoid it
        meet_last, avoid_from = False, 0
    elif kind == COMPLEX:
        if last_edge is None or k < 2:
            raise ValueError("complex enumeration needs last_edge and k >= 2")
        starts = [last_edge]
        meet_last, avoid_from = True, 1
    else:
        raise ValueError(f"unknown candidate kind {kind!r}")
    visits = 0
    results: list[tuple[int, ...]] = []

    # build backward from the last edge, so a fixed last edge prunes at once
    def grow(seq: list[int]) -> None:
        nonlocal visits
        visits += 1
        if visits > budget:
            raise BudgetExceeded(f"candidate enumeration exceeded budget {budget}")
        if len(seq) == k:
            results.append(tuple(reversed(seq)))
            return
        head = edges[seq[-1]]
        loose = meet_last and len(seq) == 1
        avoid = seq[avoid_from:-1]
        for cand in range(num):
            if cand in seq:
                continue
            shared = len(edges[cand] & head)
            if shared != 1 and not (loose and shared):
                continue
            if any(edges[cand] & edges[e] for e in avoid):
                continue
            seq.append(cand)
            grow(seq)
            seq.pop()

    for s in starts:
        grow([s])
    return len(results), results


def chain_probability_bound(n: int, r: int, k: int) -> float:
    """Upper bound 2 (ln n / n)^(k (r-1)/r) r^(-(n-1)k - 1) on the probability
    that a fixed structurally valid k-tuple forms an ordered chain."""
    if n < 2 or r < 2 or k < 1:
        raise ValueError("bound requires n >= 2, r >= 2, k >= 1")
    ln_n = math.log(n)
    log_val = (
        math.log(2.0)
        + k * (r - 1) / r * (math.log(ln_n) - ln_n)
        - ((n - 1) * k + 1) * math.log(r)
    )
    return math.exp(log_val)


def mono_edge_probability_bound() -> float:
    """Bound 0.04 e on the probability that any edge is monochromatic after
    the two stages, for instances below the edge-count threshold."""
    return 0.04 * math.e


def expected_deflections_bound(n: int, r: int) -> float:
    """Bound 0.04 e n / (r ln n) on the expected deflections per small block."""
    if n < 2 or r < 2:
        raise ValueError("bound requires n >= 2 and r >= 2")
    return 0.04 * math.e * n / (r * math.log(n))


def dangerous_count_bound(n: int, r: int) -> float:
    """Tail threshold n / (r ln n) for the number of dangerous edges,
    exceeded with probability at most 0.02 below the edge-count threshold."""
    if n < 2 or r < 2:
        raise ValueError("bound requires n >= 2 and r >= 2")
    return n / (r * math.log(n))
