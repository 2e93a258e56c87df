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

``extract_chain`` only walks: it follows the blocking records back while
the first vertex of the current edge was deflected out of the small block
below the current color, and stops at the first vertex that was not (one in
the large block of the current color or, in a boundary case, one colored in
its own small block without deflection, the edge then lying wholly inside
that block).  It then checks the record it built with ``validate_chain``,
which reads a chain as a list of parts (a complex chain ends in its reduced
edge, an improper one in the pseudo-part {terminal} one color up) and tests
them with ``_chain_event_holds``, the one predicate of the chain event, as
the Monte Carlo ``chain-event`` statistic does.  That predicate joins
consecutive parts by ``_conflicting``, the one link rule.

Places are integer slots, read from the run's record
(``InitialColoring.slots``): large_c is slot 2c-2 and small_c is slot 2c-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

import numpy as np

from .hypergraph import Hypergraph, _check_colors, _integer, _integers
from .intervals import InitialColoring

__all__ = [
    "COMPLEX",
    "IMPROPER",
    "ORDERED",
    "ChainInvalid",
    "ChainLink",
    "ChainRecord",
    "DangerousEdge",
    "Deflected",
    "MonoEdge",
    "chain_probability_bound",
    "dangerous_count_bound",
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
    """Failure event: edge ``edge`` >= 0 came out monochromatic in color ``color`` >= 1."""

    edge: int
    color: int

    def __post_init__(self):
        object.__setattr__(self, "edge", _integer(self.edge, "edge", 0))
        object.__setattr__(self, "color", _integer(self.color, "color", 1))


@dataclass(frozen=True)
class Deflected:
    """Failure event: ``vertex`` in small_``interval`` (any if None) was deflected."""

    vertex: int
    interval: Optional[int]

    def __post_init__(self):
        object.__setattr__(self, "vertex", _integer(self.vertex, "vertex", 0))
        if self.interval is not None:
            object.__setattr__(self, "interval", _integer(self.interval, "interval", 1))


@dataclass(frozen=True)
class DangerousEdge:
    """Failure event: ``edge`` >= 0 could go monochromatic in color r if all
    of ``u_vertices``, its members inside the candidate sets, were
    recolored.  U is read as a tuple of vertices >= 0, in the order given;
    ValueError when it is not iterable."""

    edge: int
    u_vertices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edge", _integer(self.edge, "edge", 0))
        try:
            vertices = iter(self.u_vertices)
        except TypeError:
            raise ValueError(f"U {self.u_vertices!r} is not iterable") from None
        u_vertices = tuple(_integer(v, "vertex", 0) for v in vertices)
        object.__setattr__(self, "u_vertices", u_vertices)


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


def _first(key: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The first of ``vertices``, listed in id order, in each of T trials
    that order vertices by the key (key[t, v], v): the first minimal key."""
    return vertices[np.argmin(key[:, vertices], axis=1)]


def _last(key: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The last of ``vertices``, listed in id order, in each of T trials: a
    reversed argmax, so exact ties go to the highest id."""
    return vertices[len(vertices) - 1 - np.argmax(key[:, vertices[::-1]], axis=1)]


def _link_vertex(b: np.ndarray, a: np.ndarray) -> Optional[int]:
    """The one vertex parts B and A share, or None: the link rule's first test."""
    shared = b[np.isin(b, a)]  # not np.intersect1d, which imports numpy.ma
    return int(shared[0]) if len(shared) == 1 else None


def _conflicting(slots, key, colors, b, a, color) -> np.ndarray:
    """The link rule of ``_chain_event_holds``: whether part A follows part
    B in a chain for ``color``, in each of T trials.  B and A are vertex
    arrays in id order, edges or the pseudo-parts of ``validate_chain``.
    They share exactly one vertex v (``_link_vertex``), v is the last
    vertex of B and the first of A, v lies in small_{color-1}, and all of B
    minus v carries color-1.  ``slots``, ``key`` and ``colors`` are (T, m)
    arrays, and trial t orders vertices by (key[t, v], v).  Returns one
    boolean per trial."""
    v = _link_vertex(b, a)
    if v is None:
        return np.zeros(len(slots), dtype=bool)
    ok = (_last(key, b) == v) & (_first(key, a) == v) & (slots[:, v] == 2 * color - 3)
    return ok & (colors[:, b[b != v]] == color - 1).all(axis=1)


def _blocking_edge(h: Hypergraph, deflected: tuple[np.ndarray, np.ndarray], v: int) -> int:
    """The edge that deflected v, found by ``np.searchsorted`` in the run's
    increasing deflected vertices, or -1; ChainInvalid if it names no edge."""
    vertices, edges = deflected
    at = int(np.searchsorted(vertices, v))
    edge = int(edges[at]) if at < len(vertices) and vertices[at] == v else -1
    if not -1 <= edge < len(h.edge_array):
        raise ChainInvalid(f"vertex {v} was deflected by edge {edge}, outside the hypergraph")
    return edge


def _walk_back(
    h: Hypergraph, init: InitialColoring, part: np.ndarray, edge: int, color: int
) -> tuple[list[int], list[ChainLink]]:
    """Follow the run's blocking records back from ``part``, the part of
    ``edge`` that carries ``color``: while the first vertex u of the current
    part was deflected out of small_{c-1} (slot 2c-3, a blocking edge
    recorded), u links in the edge that blocked it, one color lower.
    Returns the chain's edge indices and links."""
    slots, key, edges, links = init.slots, init.weights, [edge], []
    u = int(_first(key[None], part)[0])
    while slots[u] == 2 * color - 3 and (blocker := _blocking_edge(h, init.deflected, u)) >= 0:
        links.insert(0, ChainLink(u, float(key[u])))
        edges.insert(0, blocker)
        color -= 1
        u = int(_first(key[None], h.edge_array[edges[0]])[0])
    return edges, links


def extract_chain(
    h: Hypergraph, init: InitialColoring, failure: MonoEdge | Deflected | DangerousEdge
) -> ChainRecord:
    """Build the certificate chain for an observed failure event, and check
    it with ``validate_chain`` before returning it.

    ``Deflected(v, None)`` reads v's small block from v's slot.  Raises
    ValueError when the event names an edge or vertex that does not exist, a
    vertex with no blocking edge, or a dangerous edge that lies wholly in
    the candidate sets (no vertex to walk back from), and ChainInvalid, a
    ValueError, when a blocking record it reads names no edge or the walked
    record fails validation, as it does for an event that did not occur.
    """
    terminal = reduced = candidates = None
    if isinstance(failure, Deflected):
        terminal = failure.vertex
        if terminal >= h.m:
            raise ValueError(f"vertex {terminal} outside 0..{h.m - 1}")
        edge = _blocking_edge(h, init.deflected, terminal)
        if edge < 0:
            raise ValueError(f"vertex {terminal} was not deflected")
        kind, part = IMPROPER, h.edge_array[edge]
        color = failure.interval
        if color is None:
            color = (int(init.slots[terminal]) + 1) // 2
    elif isinstance(failure, (MonoEdge, DangerousEdge)):
        if (edge := failure.edge) >= len(h.edge_array):
            raise ValueError(f"edge {edge} outside 0..{len(h.edge_array) - 1}")
        part = h.edge_array[edge]
        if isinstance(failure, MonoEdge):
            kind, color = ORDERED, failure.color
        else:
            kind, color = COMPLEX, init.coloring.r
            candidates = tuple(sorted(set(failure.u_vertices)))
            reduced = tuple(v for v in part.tolist() if v not in candidates)
            if not reduced:
                raise ValueError(
                    f"edge {edge} lies wholly in the candidate sets: "
                    "no reduced edge to walk back from"
                )
            part = np.array(reduced)
    else:
        raise TypeError(f"unknown failure type {type(failure).__name__}")
    edges, links = _walk_back(h, init, part, edge, color)
    record = ChainRecord(kind, color, tuple(edges), tuple(links), terminal, reduced, candidates)
    validate_chain(h, init, record)
    return record


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ChainInvalid(message)


def validate_chain(
    h: Hypergraph,
    init: InitialColoring,
    record: ChainRecord,
    vsets: Optional[Sequence[Collection[int]]] = None,
) -> None:
    """Check every structural invariant of a chain record, raising
    ChainInvalid on the first violation.

    Edge j of a k-chain for color i belongs to color c_j = i - k + j.  The
    record's color, edges and vertices are integers by ``hypergraph``'s
    rule (``_integer``, ``_integers``), its edges and vertices are in range,
    and it carries its kind's fields;
    a complex chain's nonempty reduced edge and nonempty U partition its
    last edge.  The chain is read as a list of parts: its edges, the last
    one of a complex chain replaced by the reduced edge, and for an
    improper chain the pseudo-part {terminal} at color i + 1.  The parts
    form the event of ``_chain_event_holds``: the last part carries its
    color, consecutive parts obey the link rule of ``_conflicting`` (they
    share exactly one vertex, the last of the earlier part and the first of
    the later one, in small_{c_j}, and every other vertex of the earlier
    part carries c_j), and the leading edge's first vertex lies in
    large_{c_1} or small_{c_1}.  The record adds that each link (or the
    terminal) is the vertex its parts share, was deflected by the edge
    before it and records its weight, and that no vertex of the last part
    of an ordered or complex chain lies in small_{c_k} or above.  Slots
    never decrease as weight grows, so the rest follows: every vertex of
    edge j lies in small_{c_j-1}, large_{c_j} or small_{c_j}, none of the
    leading edge in small_{c_1-1}, and non-consecutive edges, whose slot
    ranges are disjoint, share no vertex.  With ``vsets``, every vertex of
    U lies in the candidate set of its large block below color r.
    """
    joins = [ln.vertex for ln in record.links]
    try:
        i = _integer(record.color, "color")
        _integers(record.edges, "edge")
        for ids in (joins, record.reduced_edge, record.candidate_vertices):
            _integers(() if ids is None else ids, "vertex")
        if record.terminal_vertex is not None:
            _integer(record.terminal_vertex, "vertex")
    except ValueError as exc:
        raise ChainInvalid(str(exc)) from None
    k = record.k
    cols, slots, weights = init.coloring.colors, init.slots, init.weights

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
    for v in joins + [record.terminal_vertex]:
        _check(v is None or 0 <= v < h.m, f"vertex {v} outside 0..{h.m - 1}")

    parts = [h.edge_array[e] for e in record.edges]
    if record.kind == COMPLEX:
        reduced, u_set = set(record.reduced_edge), set(record.candidate_vertices)
        _check(bool(reduced and u_set), "complex chains need a nonempty reduced edge and U")
        _check(
            reduced | u_set == set(parts[-1].tolist()) and not reduced & u_set,
            "reduced edge and candidate vertices must partition the last edge",
        )
        parts[-1] = np.array(sorted(reduced))
    elif record.kind == IMPROPER:
        parts.append(np.array([record.terminal_vertex]))
        joins.append(record.terminal_vertex)

    for j, v in enumerate(joins):
        _check(
            v in parts[j] and v in parts[j + 1],
            f"vertex {v} must be the one edge {j} and part {j + 1} share",
        )
        _check(
            _blocking_edge(h, init.deflected, v) == record.edges[j],
            f"vertex {v} must have been deflected by edge {j} of the chain",
        )
    for j, link in enumerate(record.links):
        _check(link.weight == float(weights[link.vertex]), f"link {j} records the wrong weight")
    c_last = i - k + len(parts)
    _check(
        _chain_event_holds(slots[None], weights[None], cols[None], parts, c_last)[0],
        f"the parts must form a chain ending in color {c_last}",
    )
    _check(
        record.kind == IMPROPER or slots[parts[-1]].max() <= 2 * i - 2,
        f"the last edge must not reach small_{i}",
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


def _chain_event_holds(slots, key, colors, parts, color) -> np.ndarray:
    """The chain event: whether ``parts``, vertex arrays in id order, form
    a chain for ``color`` in each of T trials, given as (T, m) arrays as
    ``_conflicting`` takes them.  Part j (from 1) belongs to color c_j =
    color - len(parts) + j: the last part carries ``color``, consecutive
    parts pass ``_conflicting`` at the later one's color, and the first
    part's first vertex lies in large_{c_1} or small_{c_1}, which no slot
    is for c_1 < 1.  A monochromatic single edge passing this lies in
    large_color: its last vertex, were it in small_color, would have been
    deflected.  ``validate_chain`` and the Monte Carlo ``chain-event``
    call it."""
    c_1 = color - len(parts) + 1
    holds = (colors[:, parts[-1]] == color).all(axis=1)
    for j in range(1, len(parts)):
        holds &= _conflicting(slots, key, colors, parts[j - 1], parts[j], c_1 + j)
    s = slots[np.arange(len(slots)), _first(key, parts[0])]
    return holds & ((s == 2 * c_1 - 2) | (s == 2 * c_1 - 1))


def chain_probability_bound(n: int, r: int, k: int) -> float:
    """Bound 2 (ln n / n)^(k (r-1)/r) r^(-(n-1)k - 1) on the probability
    that a fixed structurally valid k-tuple forms an ordered chain: an upper
    bound at the derived p for r < (ln n)^(1/5) and n large, not below."""
    n, r, k = _integer(n, "n", 2), _check_colors(r, least=2), _integer(k, "k", 1)
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
    n, r = _integer(n, "n", 2), _check_colors(r, least=2)
    return 0.04 * math.e * n / (r * math.log(n))


def dangerous_count_bound(n: int, r: int) -> float:
    """Tail threshold n / (r ln n) for the number of dangerous edges,
    exceeded with probability at most 0.02 below the edge-count threshold."""
    n, r = _integer(n, "n", 2), _check_colors(r, least=2)
    return n / (r * math.log(n))
