"""n-uniform hypergraphs, colorings, and exact small-instance oracles.

Vertices are the integers 0..m-1, colors are 1..r (0 means unassigned).
An edge is a set of exactly n distinct vertices, stored as a sorted tuple.
Instances round-trip through a plain text format and through JSON.
"""

from __future__ import annotations

import json
import math
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "BudgetExceeded",
    "Coloring",
    "FormatError",
    "Hypergraph",
    "ThresholdBound",
    "brute_force_equitable",
    "edge_threshold",
    "generate_random",
    "is_equitable",
    "is_proper",
    "parse_hypergraph",
]


class FormatError(ValueError):
    """An instance file or edge list violates the expected format."""


class BudgetExceeded(RuntimeError):
    """An exhaustive computation would exceed its configured budget."""


class Hypergraph:
    """Vertex set 0..m-1 with edges of exactly n distinct vertices each.

    Edges are normalized to sorted vertex tuples and deduplicated in
    first-seen order, so serialization round-trips are stable.  A per-vertex
    incidence index (edge indices in increasing order) supports the
    incremental monochromaticity checks used throughout, and ``edge_array``
    holds the same edges as a read-only int32 (|E| x n) array for the
    vectorized scans.
    """

    __slots__ = ("m", "n", "edges", "incidence", "edge_array")

    def __init__(self, m: int, n: int, edges: Iterable[Sequence[int]]):
        if m <= 0:
            raise FormatError(f"vertex count must be positive, got {m}")
        if n < 2:
            raise FormatError(f"edge size must be at least 2, got {n}")
        self.m = m
        self.n = n
        seen: set[tuple[int, ...]] = set()
        stored: list[tuple[int, ...]] = []
        for e in edges:
            t = tuple(sorted(int(v) for v in e))
            if len(t) != n:
                raise FormatError(f"edge {t} has {len(t)} vertices, expected {n}")
            if any(t[i] == t[i + 1] for i in range(len(t) - 1)):
                raise FormatError(f"edge {t} repeats a vertex")
            if t[0] < 0 or t[-1] >= m:
                raise FormatError(f"edge {t} has a vertex outside 0..{m - 1}")
            if t not in seen:
                seen.add(t)
                stored.append(t)
        self.edges: tuple[tuple[int, ...], ...] = tuple(stored)
        incidence: list[list[int]] = [[] for _ in range(m)]
        for idx, t in enumerate(self.edges):
            for v in t:
                incidence[v].append(idx)
        self.incidence: tuple[tuple[int, ...], ...] = tuple(tuple(lst) for lst in incidence)
        flat = np.fromiter(chain.from_iterable(self.edges), np.int32, len(self.edges) * n)
        self.edge_array = flat.reshape(len(self.edges), n)
        self.edge_array.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.m, self.n, self.edges) == (other.m, other.n, other.edges)

    def __repr__(self) -> str:
        return f"Hypergraph(m={self.m}, n={self.n}, edges={len(self.edges)})"

    def to_text(self) -> str:
        lines = [f"{self.m} {self.n} {len(self.edges)}"]
        lines.extend(" ".join(str(v) for v in e) for e in self.edges)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Hypergraph":
        try:
            return cls(int(obj["m"]), int(obj["n"]), obj["edges"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed hypergraph JSON: {exc}") from exc


def parse_hypergraph(text: str | bytes) -> Hypergraph:
    """Parse the text instance format.

    Line 1 holds ``m n E``; each of the following E lines holds n
    space-separated vertex ids.  Blank lines and lines starting with '#'
    are ignored.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    content = [ln.strip() for ln in text.splitlines()]
    content = [ln for ln in content if ln and not ln.startswith("#")]
    if not content:
        raise FormatError("empty instance: no header line")
    header = content[0].split()
    if len(header) != 3:
        raise FormatError(f"malformed header {content[0]!r}, expected 'm n E'")
    try:
        m, n, num_edges = (int(x) for x in header)
    except ValueError as exc:
        raise FormatError(f"malformed header {content[0]!r}: {exc}") from exc
    body = content[1:]
    if len(body) != num_edges:
        raise FormatError(f"header promises {num_edges} edges, found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        try:
            edges.append([int(x) for x in parts])
        except ValueError as exc:
            raise FormatError(f"malformed edge line {ln!r}: {exc}") from exc
    return Hypergraph(m, n, edges)


class Coloring:
    """Mutable assignment of colors 1..r to vertices, with 0 = unassigned.

    ``colors`` is an int64 numpy array of length m (``colors.tolist()``
    gives a plain list) and ``sizes`` a list of the r class sizes, kept in
    step on every assignment.  The public constructor and
    ``from_json_dict`` validate their input; the JSON shapes are plain
    lists.
    """

    __slots__ = ("r", "colors", "sizes")

    def __init__(self, m: int, r: int, colors: Optional[Sequence[int]] = None):
        if r < 1:
            raise ValueError(f"color count must be positive, got {r}")
        values = [0] * m if colors is None else [int(c) for c in colors]
        if len(values) != m:
            raise ValueError("color vector length does not match vertex count")
        try:
            array = np.array(values, dtype=np.int64)
        except OverflowError:
            raise ValueError("color out of range 0..r") from None
        if m and (array.min() < 0 or array.max() > r):
            raise ValueError("color out of range 0..r")
        self.r = r
        self.colors = array
        self.sizes = _class_sizes(array, r)

    @classmethod
    def _trusted(cls, r: int, colors: np.ndarray) -> "Coloring":
        """Wrap an int64 array of colors in 0..r without checking it, for
        colorings the package computed itself (kernel output, balanced
        draws, repairs).  The coloring takes ownership of the array."""
        out = cls.__new__(cls)
        out.r = r
        out.colors = colors
        out.sizes = _class_sizes(colors, r)
        return out

    @property
    def m(self) -> int:
        return len(self.colors)

    def assign(self, v: int, c: int) -> None:
        if not 1 <= c <= self.r:
            raise ValueError(f"color {c} out of range 1..{self.r}")
        old = int(self.colors[v])
        if old:
            self.sizes[old - 1] -= 1
        self.colors[v] = c
        self.sizes[c - 1] += 1

    def is_total(self) -> bool:
        return bool(self.colors.all())

    def copy(self) -> "Coloring":
        out = Coloring.__new__(Coloring)
        out.r = self.r
        out.colors = self.colors.copy()
        out.sizes = list(self.sizes)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.r == other.r and np.array_equal(self.colors, other.colors)

    def __repr__(self) -> str:
        return f"Coloring(r={self.r}, sizes={self.sizes})"

    def to_json_dict(self) -> dict:
        return {"r": self.r, "colors": self.colors.tolist(), "sizes": list(self.sizes)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Coloring":
        try:
            col = cls(len(obj["colors"]), int(obj["r"]), obj["colors"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed coloring JSON: {exc}") from exc
        if "sizes" in obj and list(obj["sizes"]) != col.sizes:
            raise FormatError("coloring JSON sizes disagree with the color vector")
        return col


def _class_sizes(colors: np.ndarray, r: int) -> list[int]:
    """Sizes of classes 1..r of a color array with values in 0..r."""
    return np.bincount(colors, minlength=r + 1)[1:].tolist()


def _mono_edges(h: Hypergraph, colors) -> np.ndarray:
    """Boolean mask of the monochromatic edges under ``colors``, one numpy
    pass over ``h.edge_array``: colors of shape (m,) give a mask of shape
    (|E|,), colors of shape (T, m) one row of masks per trial.  The one
    edge scan behind ``is_proper``, the solver's rejection step and the
    Monte Carlo ``mono-edge`` statistic."""
    # (..., n, |E|): comparing whole rows is far faster than reducing over a
    # short last axis
    edge_colors = np.asarray(colors, dtype=np.int64)[..., h.edge_array.T]
    return (edge_colors == edge_colors[..., :1, :]).all(axis=-2)


def is_proper(h: Hypergraph, coloring: Coloring) -> bool:
    """True iff no edge is monochromatic.  The coloring must be total."""
    if not coloring.is_total():
        raise ValueError("properness is only defined for total colorings")
    return not _mono_edges(h, coloring.colors).any()


def is_equitable(h: Hypergraph, coloring: Coloring) -> bool:
    """True iff the coloring is proper and class sizes differ by at most 1."""
    if not is_proper(h, coloring):
        return False
    return max(coloring.sizes) - min(coloring.sizes) <= 1


def class_targets(m: int, r: int) -> list[int]:
    """Per-color class sizes for an exactly balanced split of m into r parts.

    When r does not divide m the lower color indices take the larger part,
    so targets are ceil(m/r) for the first m mod r colors and floor(m/r)
    for the rest.
    """
    base, extra = divmod(m, r)
    return [base + 1 if i < extra else base for i in range(r)]


def generate_random(m: int, n: int, num_edges: int, seed: int) -> Hypergraph:
    """Draw ``num_edges`` distinct uniformly random n-subsets of 0..m-1.

    Deterministic for a fixed seed (PCG64 via numpy's default generator).
    """
    if num_edges < 0:
        raise ValueError(f"num_edges must be non-negative, got {num_edges}")
    if n > m:
        raise ValueError(f"cannot place edges of size {n} on {m} vertices")
    universe = math.comb(m, n)
    if num_edges > universe:
        raise ValueError(f"requested {num_edges} edges but only {universe} exist")
    rng = np.random.default_rng(seed)
    if universe <= 200_000:
        pool = list(combinations(range(m), n))
        idx = rng.choice(universe, size=num_edges, replace=False)
        chosen = [pool[i] for i in idx]
    else:
        acc: set[tuple[int, ...]] = set()
        while len(acc) < num_edges:
            acc.add(tuple(sorted(rng.choice(m, size=n, replace=False).tolist())))
        chosen = list(acc)
    return Hypergraph(m, n, sorted(chosen))


class ThresholdBound(NamedTuple):
    value: float
    log_value: float
    asymptotic_regime: bool


def edge_threshold(n: int, r: int) -> ThresholdBound:
    """Edge-count threshold below which equitable r-colorability is guaranteed
    for large n: 0.01 * (n / ln n)^((r-1)/r) * r^(n-1).

    Evaluated in log space so huge n does not overflow intermediates; the
    returned value may still be inf when the result exceeds float range.
    The flag reports whether r < (ln n)^(1/5), the regime the guarantee
    is stated for.
    """
    if n < 2 or r < 2:
        raise ValueError("edge_threshold requires n >= 2 and r >= 2")
    ln_n = math.log(n)
    log_value = math.log(0.01) + (r - 1) / r * (ln_n - math.log(ln_n)) + (n - 1) * math.log(r)
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return ThresholdBound(value, log_value, r < ln_n ** 0.2)


def brute_force_equitable(h: Hypergraph, r: int, budget: int = 10**8) -> Optional[Coloring]:
    """Exhaustive search for an equitable proper r-coloring.

    Enumerates assignments vertex by vertex, pruning any class that would
    exceed its balanced target and any completed edge that went
    monochromatic.  Restricting classes to the fixed target profile loses
    no solutions: color classes of any equitable coloring can be permuted
    onto the profile.  Returns None when no equitable proper coloring
    exists.  Raises ValueError when r < 1 and BudgetExceeded when r^m is
    beyond ``budget``.
    """
    if r < 1:
        raise ValueError(f"need at least one color, got r={r}")
    m = h.m
    if r**m > budget:
        raise BudgetExceeded(f"{r}^{m} assignments exceed the budget of {budget}")
    targets = class_targets(m, r)

    # edges become checkable once their largest vertex is colored
    edges_by_max = [[] for _ in range(m)]
    for e in h.edges:
        edges_by_max[e[-1]].append(e)

    colors = [0] * m
    sizes = [0] * r

    def extend(v: int) -> bool:
        if v == m:
            return True
        for c in range(1, r + 1):
            if sizes[c - 1] == targets[c - 1]:
                continue
            colors[v] = c
            if not any(all(colors[u] == c for u in e) for e in edges_by_max[v]):
                sizes[c - 1] += 1
                if extend(v + 1):
                    return True
                sizes[c - 1] -= 1
        colors[v] = 0
        return False

    if extend(0):
        return Coloring(m, r, colors)
    return None
