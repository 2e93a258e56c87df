"""n-uniform hypergraphs, colorings, and exact small-instance oracles.

Vertices are the integers 0..m-1, and a coloring gives each one a color in
1..r.  An edge is a set of exactly n distinct vertices, a sorted row.
Instances round-trip through a plain text format and through JSON.
"""

from __future__ import annotations

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
    "class_targets",
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


# edge_array stores vertex ids as int32, so the ids 0..m-1 must fit it
_MAX_VERTICES = 2**31


class Hypergraph:
    """Vertex set 0..m-1 with edges of exactly n distinct vertices each.

    m >= 1, n >= 2 and the vertex ids are integers by ``_integer``'s rule: a
    bool, a float or a string is refused with a FormatError, not truncated.
    ``edge_array``, the one stored copy of the edges, is a read-only int32
    (|E| x n) array of sorted rows, deduplicated in first-seen order so
    serialization round-trips are stable; int32 ids bound m by 2^31.  It is
    stored column-major: each vertex position is one contiguous run of |E|
    ids, and ``edge_array.T`` is C-contiguous.  The
    CSR pair ``incidence`` = (indptr, indices) of read-only int64 arrays
    lists vertex v's edges in increasing order as
    indices[indptr[v]:indptr[v + 1]]; it is built on first read and cached.
    """

    __slots__ = ("m", "n", "edge_array", "_incidence")

    def __init__(self, m: int, n: int, edges: Iterable[Sequence[int]]):
        try:
            m, n = _integer(m, "vertex count", 1), _integer(n, "edge size", 2)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        if m > _MAX_VERTICES:
            raise FormatError(f"vertex count {m} exceeds 2^31: vertex ids are stored as int32")
        self.m = m
        self.n = n
        raw = edges if isinstance(edges, np.ndarray) else list(edges)
        rows = _int_rows(raw, n)
        if rows is not None:
            rows.sort(axis=1)
            bad = (rows[:, 0] < 0) | (rows[:, -1] >= m) | (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        if rows is None or bad.any():
            raise _first_bad_edge(raw, n, m)
        # a uint64 hash per row (wrapping): equal rows hash equal, so when no
        # two sorted hashes agree the rows are distinct and stay as they are.
        # Else (a duplicate or a mere collision) each row is one n * 8-byte
        # key of an exact 1-d unique, first occurrences kept in order
        hashes = np.sort(rows.astype(np.uint64) @ _row_multipliers(n))
        if (hashes[1:] == hashes[:-1]).any():
            keys = np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * n)))
            _, first = np.unique(keys[:, 0], return_index=True)
            rows = rows[np.sort(first)]
        # column-major, so that edge_array.T, the index of every gather, is
        # C-contiguous
        self.edge_array = np.asfortranarray(rows, dtype=np.int32)
        self.edge_array.flags.writeable = False
        self._incidence: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): vertex v's edges, in increasing order, are
        indices[indptr[v]:indptr[v + 1]]."""
        if self._incidence is None:
            num_edges = len(self.edge_array)
            # the keys vertex * |E| + edge are distinct, so one plain sort lists
            # each vertex's edges in index order, faster than a stable argsort
            keys = self.edge_array.astype(np.int64) * num_edges + np.arange(num_edges)[:, None]
            indices = np.sort(keys, axis=None) % num_edges
            indptr = np.zeros(self.m + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.edge_array.ravel(), minlength=self.m), out=indptr[1:])
            indptr.flags.writeable = indices.flags.writeable = False
            self._incidence = (indptr, indices)
        return self._incidence

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        same = (self.m, self.n) == (other.m, other.n)
        return same and np.array_equal(self.edge_array, other.edge_array)

    def __repr__(self) -> str:
        return f"Hypergraph(m={self.m}, n={self.n}, edges={len(self.edge_array)})"

    def to_text(self) -> str:
        lines = [f"{self.m} {self.n} {len(self.edge_array)}"]
        lines.extend(" ".join(map(str, e)) for e in self.edge_array.tolist())
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "edges": self.edge_array.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Hypergraph":
        """Parse and validate untrusted JSON by the constructor's checks.
        Raises FormatError otherwise."""
        try:
            return cls(obj["m"], obj["n"], obj["edges"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed hypergraph JSON: {exc}") from exc


def _int_rows(raw, n: int) -> Optional[np.ndarray]:
    """The edges as a fresh (|E| x n) int64 array, or None when some edge
    does not have n entries or some entry is not an integer (``_integer``)
    within int64."""
    matrix = isinstance(raw, np.ndarray) and raw.ndim == 2
    # a bool array casts to int64, but its entries are not integers
    if matrix and raw.dtype != bool and np.can_cast(raw.dtype, np.int64):
        if raw.shape[1] != n and len(raw):
            return None
        return raw.astype(np.int64).reshape(len(raw), n)
    try:
        if not set(map(len, raw)) <= {n}:
            return None
        ids = list(chain.from_iterable(raw))
        types = set(map(type, ids))
        if bool in types or not all(issubclass(t, (int, np.integer)) for t in types):
            return None
        flat = np.fromiter(map(int, ids), np.int64, len(ids))
    except (TypeError, OverflowError):
        return None
    return flat.reshape(len(raw), n)


def _row_multipliers(n: int) -> np.ndarray:
    """The n fixed random uint64 multipliers of the constructor's row hash."""
    return np.random.PCG64(n).random_raw(n)


def _first_bad_edge(raw, n: int, m: int) -> Exception:
    """The error for the first malformed edge of ``raw``, each edge checked
    in turn for an entry that is not an integer, its size, a repeated vertex
    and the vertex range.  Runs only once the array checks have found a
    fault."""
    for e in raw:
        try:
            t = tuple(sorted(_integer(v, "vertex id") for v in e))
        except ValueError as exc:
            return FormatError(str(exc))
        if len(t) != n:
            return FormatError(f"edge {_echo(t)} has {len(t)} vertices, expected {n}")
        if any(t[i] == t[i + 1] for i in range(len(t) - 1)):
            return FormatError(f"edge {_echo(t)} repeats a vertex")
        if t[0] < 0 or t[-1] >= m:
            return FormatError(f"edge {_echo(t)} has a vertex outside 0..{m - 1}")
    return TypeError("every edge must be a sequence of vertex ids")


def parse_hypergraph(text: str | bytes) -> Hypergraph:
    """Parse the text instance format.

    Line 1 holds ``m n E``; each of the following E lines holds n
    whitespace-separated vertex ids.  Blank lines and lines starting with '#'
    are ignored.  A text whose first line is ``m n E`` in ASCII digits and
    single spaces hands the rest, unsplit, to ``_c_read``, which reads a
    body in the form ``to_text`` writes in one pass.  Any other text, or a
    body ``_c_read`` refuses, is split into stripped lines without comments
    or blank lines, and ``_c_read`` gets them joined; when it refuses those
    too they go line by line through ``int()``, the one path that produces
    every error message, so a bad line is named before any edge is checked.
    """
    raw = text.encode() if isinstance(text, str) and text.isascii() else text
    if isinstance(raw, bytes):
        head, _, body = raw.partition(b"\n")
        header = head.split(b" ")
        # the line path reads a longer header, as one past int()'s digit limit
        if len(head) <= 64 and len(header) == 3 and all(map(bytes.isdigit, header)):
            m, n, num_edges = map(int, header)
            rows = _c_read(body, m, n, num_edges)
            if rows is not None:
                return Hypergraph(m, n, rows)
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    content = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not content:
        raise FormatError("empty instance: no header line")
    header = content[0].split()
    if len(header) != 3:
        raise FormatError(f"malformed header {_echo(content[0])}, expected 'm n E'")
    try:
        m, n, num_edges = (int(x) for x in header)
    except ValueError as exc:
        raise FormatError(f"malformed header {_echo(content[0])}: {exc}") from exc
    body = content[1:]
    if len(body) != num_edges:
        raise FormatError(f"header promises {num_edges} edges, found {len(body)}")
    joined = "\n".join(body) + "\n"
    rows = _c_read(joined.encode(), m, n, num_edges) if joined.isascii() else None
    return Hypergraph(m, n, [_edge_line(ln) for ln in body] if rows is None else rows)


def _c_read(body: bytes, m: int, n: int, num_edges: int) -> Optional[np.ndarray]:
    """The body as an (E x n) int64 array read by ``np.fromstring``, or None
    when the line-by-line path must read it.

    The reader takes only the form ``to_text`` writes: E lines of n
    unsigned decimal ids with no leading zero, single spaces between them,
    each line ended by a line break.  With its digits deleted the body must
    be n - 1 spaces and a line break, E times over, so it holds no other
    byte (no sign, tab, carriage return or comment) and exactly E lines.
    No separator may start the body or follow another, so each line holds
    exactly n non-empty tokens: the reader cannot raise, warn or return a
    short array, and no id moves across a line break.  A token beyond int64
    reads as 2^63 - 1, which the range check refuses with every other id at
    least m or 2^31 (int32 ids bound m by 2^31), so an accepted id has at
    most 10 digits and reads as ``int()`` reads it.  Every refused body
    goes to the line path, which produces the errors.
    """
    seps = body.translate(None, b"0123456789")
    # lengths first, so that no header's n or E sizes a pattern; this also
    # refuses n = 0, whose pattern is E bytes long
    if not num_edges or len(seps) != n * num_edges or seps != (b" " * (n - 1) + b"\n") * num_edges:
        return None
    sep = (raw := np.frombuffer(body, np.uint8)) < 48
    # no empty token, and no 0 that starts a token and has a digit after it
    zero = raw == 48
    zero[1:] &= sep[:-1]
    if sep[0] or (sep[1:] & sep[:-1]).any() or (zero[:-1] > sep[1:]).any():
        return None
    flat = np.fromstring(body, dtype=np.int64, sep=" ")
    if int(flat.max()) >= min(m, _MAX_VERTICES):
        return None
    return flat.reshape(num_edges, n)


def _edge_line(ln: str) -> list[int]:
    try:
        return [int(x) for x in ln.split()]
    except ValueError as exc:
        raise FormatError(f"malformed edge line {_echo(ln)}: {exc}") from exc


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut to 200 characters and
    marked when longer, so no input makes a long error line."""
    text = repr(value)
    return text if len(text) <= 200 else f"{text[:200]}... ({len(text)} characters)"


def _check_colors(r: int, m: Optional[int] = None, least: int = 1) -> int:
    """The one rule on the number of colors: r as an int, ValueError unless
    it is an integer (``_integer``) with least <= r <= max(m, 1), since past
    m a class of an equitable coloring stays empty.  Every entry point that
    takes r calls it before any O(r) work.  Without m only the lower bound
    is checked; the caller bounds r first."""
    r = _integer(r, "r", least)
    if m is not None and r > max(m, 1):
        raise ValueError(f"r = {r} exceeds the {m} vertices, so a class would stay empty")
    return r


def _color_dtype(r: int) -> np.dtype:
    """The one integer dtype of colors 1..r, and of the kernel's slots and
    stage-1 colors: the smallest signed dtype that holds -2r (int8 for
    r <= 64, int16 up to 16384), capped at int64, where numpy's rule would
    give ``object``."""
    dtype = np.min_scalar_type(-2 * r)
    return dtype if dtype.kind == "i" else np.dtype(np.int64)


class Coloring:
    """Total assignment of colors 1..r to vertices, never changed once made.

    ``colors`` is a read-only numpy array of length m in ``_color_dtype(r)``
    (int8 for r <= 64; ``colors.tolist()`` gives a plain list) and ``sizes``
    a list of the r class sizes.  The public constructor and
    ``from_json_dict`` validate their input, r within 1..max(m, 1) by
    ``_check_colors``; the JSON shapes are plain lists.
    """

    __slots__ = ("r", "colors", "sizes")

    def __init__(self, m: int, r: int, colors: Sequence[int]):
        m, r = _integer(m, "vertex count", 0), _check_colors(r, m)
        values = [_integer(c, "color") for c in colors]
        if len(values) != m:
            raise ValueError("color vector length does not match vertex count")
        try:
            array = np.array(values, dtype=np.int64)
        except OverflowError:
            raise ValueError("color out of range 1..r") from None
        if m and (array.min() < 1 or array.max() > r):
            raise ValueError("color out of range 1..r")
        self.r = r
        self.sizes = np.bincount(array, minlength=r + 1)[1:].tolist()
        self.colors = array.astype(_color_dtype(r))
        self.colors.flags.writeable = False

    @classmethod
    def _trusted(cls, r: int, colors: np.ndarray | list[int], sizes: list[int]) -> "Coloring":
        """The one storage rule for a coloring the package computed itself,
        from colors in 1..r (an array or a list) and its class sizes, both
        unchecked.  The colors are stored in ``_color_dtype(r)``, in an
        array that owns its m entries, read-only.  A view, such as a batch
        row, is copied, so the coloring keeps no larger array alive; an
        array that owns its entries in that dtype is taken over as it is,
        so the caller hands over a copy it made and changes it no more."""
        colors = np.asarray(colors, _color_dtype(r))
        if colors.base is not None:
            colors = colors.copy()
        colors.flags.writeable = False
        out = cls.__new__(cls)
        out.r = r
        out.colors = colors
        out.sizes = sizes
        return out

    @property
    def m(self) -> int:
        return len(self.colors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.r == other.r and np.array_equal(self.colors, other.colors)

    def __repr__(self) -> str:
        return f"Coloring(r={self.r}, sizes={self.sizes})"

    def to_json_dict(self) -> dict:
        return {"r": self.r, "colors": self.colors.tolist(), "sizes": list(self.sizes)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Coloring":
        """Parse and validate untrusted JSON: r and every color are
        integers, every color lies in 1..r, and r passes the constructor's
        bound max(m, 1) for m colored vertices.  Raises FormatError
        otherwise."""
        try:
            col = cls(len(obj["colors"]), obj["r"], obj["colors"])
            agree = "sizes" not in obj or list(obj["sizes"]) == col.sizes
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed coloring JSON: {exc}") from exc
        if not agree:
            raise FormatError("coloring JSON sizes disagree with the color vector")
        return col


def _integer(value, what: str, least: Optional[int] = None) -> int:
    """The one rule on integer arguments: ``value`` as an int if it is a
    Python or numpy integer of at least ``least`` (when given); a bool, a
    float, a string or anything else is refused rather than truncated, by
    a ValueError naming ``what``, and so is a smaller value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {_echo(value)} is not an integer")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float if it is a Python or numpy integer or float; a
    bool, a string or anything else is refused by a ValueError naming
    ``what``, as ``_integer`` refuses it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} {_echo(value)} is not a real number")
    return float(value)


def _integers(values, what: str) -> np.ndarray:
    """A sequence of ids as an int64 array, each by ``_integer``'s rule.  An
    array is read by its dtype in O(1): an integer dtype, or no entries at
    all (``np.asarray([])`` is float64); a list or tuple entry by entry,
    each within int64."""
    if isinstance(values, np.ndarray):
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"{what}: dtype {values.dtype} is not an integer dtype")
        return values.astype(np.int64, copy=False)
    ids = [_integer(v, what) for v in values]
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"a {what} lies outside the int64 range") from None


def _reals(values, what: str) -> np.ndarray:
    """An array of any shape, or nested sequences, as a float array, each
    entry by ``_real``'s rule.  An array is read by its dtype in O(1), an
    integer or float one, and anything else entry by entry."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise ValueError(f"{what}: dtype {values.dtype} is not a real dtype")
        return values.astype(float, copy=False)
    cells = np.array(values, dtype=object)
    return np.array([_real(x, what) for x in cells.flat], dtype=float).reshape(cells.shape)


def _edge_values(h: Hypergraph, values) -> np.ndarray:
    """The values at every vertex of every edge, in their dtype: (m,) input
    gives an (n, |E|) array, (T, m) input an (n, |E|, T) one.  The one edge
    gather behind the stage-2 kernel, ``_mono_edges`` and the rebalance
    scan; callers reduce over axis 0, which numpy does slab by slab.

    The index ``h.edge_array.T`` is C-contiguous (the edges are stored
    column-major), so ``np.take`` converts it to intp in one sequential
    read: at (m, n, |E|) = (100 000, 8, 10 000) and T = 1 a gather took
    76 us against 94 us on row-major storage (2-core Xeon VM), and 0-7 %
    less at the solver's and the Monte Carlo driver's batch shapes.
    (T, m) input is copied vertex-major first, so each gathered cell is
    one contiguous run of T values.  That copy and ``np.take`` were at
    least as fast as fancy indexing at every batch shape the solver and
    the Monte Carlo driver use, from T = 1 at m = 100 000 to T = 300 at
    m = 1000, so no shape picks another path."""
    values = np.asarray(values)
    if values.ndim == 1:
        return np.take(values, h.edge_array.T)
    return np.take(np.ascontiguousarray(values.T), h.edge_array.T, axis=0)


def _mono_edges(h: Hypergraph, colors) -> np.ndarray:
    """Boolean mask of the monochromatic edges under ``colors``, from one
    ``_edge_values`` gather: colors of shape (m,) give a mask of shape
    (|E|,), colors of shape (T, m) one row of masks per trial.  The one
    edge scan behind ``is_proper``, the solver's rejection step and the
    Monte Carlo ``mono-edge`` statistic.  Colors keep their dtype: the
    kernel's narrow ones are gathered as they are."""
    # (n, |E|, ...): each vertex position is one slab, compared whole
    edge_colors = _edge_values(h, colors)
    return (edge_colors == edge_colors[:1]).all(axis=0).T


def is_proper(h: Hypergraph, coloring: Coloring) -> bool:
    """True iff no edge is monochromatic."""
    return not _mono_edges(h, coloring.colors).any()


def is_equitable(h: Hypergraph, coloring: Coloring) -> bool:
    """True iff the coloring is proper and class sizes differ by at most 1.
    The sizes are read first: they cost O(r), the edge scan O(n |E|)."""
    if max(coloring.sizes) - min(coloring.sizes) > 1:
        return False
    return is_proper(h, coloring)


def class_targets(m: int, r: int) -> list[int]:
    """Per-color class sizes for an exactly balanced split of m into r parts.

    When r does not divide m the lower color indices take the larger part,
    so targets are ceil(m/r) for the first m mod r colors and floor(m/r)
    for the rest.  ValueError unless integers m >= 0 and 1 <= r <= max(m, 1).
    """
    m, r = _integer(m, "m", 0), _check_colors(r, m)
    base, extra = divmod(m, r)
    return [base + 1 if i < extra else base for i in range(r)]


def _check_targets(targets: Sequence[int], r: int, m: int) -> tuple[int, ...]:
    """The one rule on class targets: r integers >= 0 (``_integer``) that
    sum to m, returned as a tuple of ints; ValueError otherwise."""
    targets = tuple(_integer(t, "target", 0) for t in targets)
    if len(targets) != r or sum(targets) != m:
        raise ValueError(f"need {r} targets summing to {m}, got {targets}")
    return targets


# largest C(m, n) for which generate_random lists every possible edge
_POOL_LIMIT = 200_000


def generate_random(m: int, n: int, num_edges: int, seed: int) -> Hypergraph:
    """Draw ``num_edges`` distinct uniformly random n-subsets of 0..m-1.

    Deterministic for a fixed seed (PCG64 via numpy's default generator).
    Up to _POOL_LIMIT possible edges, they are picked from the list of all
    of them.  Above it, random n-subsets are drawn until enough distinct
    ones are found; that is allowed for at most C(m, n) // 2 edges, so each
    draw is new with probability at least 1/2.
    """
    m, n = _integer(m, "vertex count", 1), _integer(n, "edge size", 2)
    num_edges, seed = _integer(num_edges, "num_edges", 0), _integer(seed, "seed")
    if n > m:
        raise ValueError(f"cannot place edges of size {n} on {m} vertices")
    universe = math.comb(m, n)
    if num_edges > universe:
        raise ValueError(f"requested {num_edges} edges but only {universe} exist")
    if universe > _POOL_LIMIT and num_edges > universe // 2:
        raise ValueError(
            f"num_edges = {num_edges} exceeds C({m}, {n}) // 2 = {universe // 2}, "
            f"the limit when C(m, n) > {_POOL_LIMIT}"
        )
    rng = np.random.default_rng(seed)
    if universe <= _POOL_LIMIT:
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
    is stated for.  n and r are integers of at least 2 (``_integer``).
    """
    n, r = _integer(n, "n", 2), _check_colors(r, least=2)
    ln_n = math.log(n)
    log_value = math.log(0.01) + (r - 1) / r * (ln_n - math.log(ln_n)) + (n - 1) * math.log(r)
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return ThresholdBound(value, log_value, r < ln_n ** 0.2)


def _power_exceeds(r: int, m: int, budget: int) -> bool:
    """Whether r**m > budget, for r >= 1, never building r**m for m at or
    past the bit length b of int(budget): from r = 2 on, r**m >= 2**b > budget."""
    return r > 1 and m >= int(budget).bit_length() or r**m > budget


def brute_force_equitable(h: Hypergraph, r: int, budget: int = 10**8) -> Optional[Coloring]:
    """Exhaustive search for an equitable proper r-coloring.

    Colors vertices in order of degree, highest first, ties broken by id
    (the largest-degree-first order of Welsh and Powell, 1967), pruning any
    class that would exceed its balanced target.  Each edge is checked
    once, when the last of its vertices in that order is colored, by
    testing its vertex bitmask against the bitmask of the new vertex's
    class.  Restricting classes to the fixed target profile loses no
    solutions: color classes of any equitable coloring can be permuted onto
    the profile.  For the same reason classes with equal targets are
    interchangeable, so a vertex may open at most one untouched class among
    them, the lowest (the color-symmetry breaking of Brelaz, CACM 1979).
    The witness returned may therefore differ from that of an id-order
    search.  At r = 1 the answer is direct: the one-class coloring when
    there are no edges, None otherwise.  Returns None when no equitable
    proper coloring exists.  Raises ValueError unless 1 <= r <= m and the
    budget is an integer, and BudgetExceeded when r^m is beyond ``budget``.
    """
    m = h.m
    r, budget = _check_colors(r, m), _integer(budget, "budget")
    if _power_exceeds(r, m, budget):
        raise BudgetExceeded(f"{r}^{m} assignments exceed the budget of {budget}")
    if r == 1:
        # the search below recurses once per vertex, which 1^m never bounds
        return None if len(h.edge_array) else Coloring(m, 1, [1] * m)
    targets = class_targets(m, r)
    degree = np.bincount(h.edge_array.ravel(), minlength=m)
    order = np.lexsort((np.arange(m), -degree))
    # each edge as a vertex bitmask, checked at the position of its last vertex
    last = np.argsort(order)[h.edge_array].max(axis=1)
    checks = [[] for _ in range(m)]
    for t, e in zip(last.tolist(), h.edge_array.tolist()):
        checks[t].append(sum(1 << v for v in e))
    order = order.tolist()

    colors = [0] * m
    sizes = [0] * r
    members = [0] * r  # per class, the bitmask of its vertices

    def extend(t: int) -> bool:
        if t == m:
            return True
        v = order[t]
        opened = None  # target of the last untouched class tried
        for c in range(r):
            if sizes[c] == targets[c]:
                continue
            if sizes[c] == 0:
                # targets do not increase with c, so equal ones are adjacent
                if targets[c] == opened:
                    continue
                opened = targets[c]
            grown = members[c] | 1 << v
            if any(e & grown == e for e in checks[t]):
                continue
            members[c] = grown
            sizes[c] += 1
            colors[v] = c + 1
            if extend(t + 1):
                return True
            members[c] ^= 1 << v
            sizes[c] -= 1
        return False

    if extend(0):
        return Coloring(m, r, colors)
    return None
