"""Machine speed, measured in the same run as the program.

The machine the benchmark was defined on is a shared virtual machine whose
speed swings by up to 2x within seconds: a fixed piece of solver work took
0.16 s of CPU time in one 4-second window and 0.34 s in another.  A fixed
reference loop, run between operations, slowed down with it, and the ratio
of the two stayed within about 12 %.  So every CPU time the benchmark
reports is scaled to the speed at which the reference loop takes
NOMINAL_S: an operation of t CPU seconds, bracketed by reference loops of
mean duration c, counts as t * NOMINAL_S / c.

The loop is the benchmark's own code and never calls the program, so a
change to the program cannot change the scale.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.025
# CPU seconds of operations between two reference loops
EVERY_S = 0.5

_rng = np.random.default_rng(20190902)
_M = 400
_EDGES = tuple(tuple(sorted(_rng.choice(_M, 5, replace=False).tolist())) for _ in range(600))
_COLORS = tuple(int(c) for c in _rng.integers(1, 4, _M))
_INCIDENCE = [[] for _ in range(_M)]
for _i, _e in enumerate(_EDGES):
    for _v in _e:
        _INCIDENCE[_v].append(_i)


def reference_loop() -> float:
    """CPU seconds of a fixed interpreter-bound loop shaped like the
    program's inner loops: per-vertex incidence scans and per-edge
    monochromatic tests with ``all`` over generators."""
    start = time.process_time()
    hits = 0
    for _ in range(8):
        colors = list(_COLORS)
        for v in range(_M):
            for e in _INCIDENCE[v]:
                if all(colors[u] == colors[v] for u in _EDGES[e] if u != v):
                    hits += 1
                    break
        hits += sum(1 for e in _EDGES if all(colors[u] == colors[e[0]] for u in e))
    return time.process_time() - start


class Speedometer:
    """Runs the reference loop before an operation whenever EVERY_S of CPU
    time has passed since the last one, and turns the raw CPU times of the
    operations into scaled ones."""

    def __init__(self):
        self.done = 0  # operations timed so far
        self.points: list[tuple[int, float]] = []  # (operations done before it, loop seconds)
        self._last = -float("inf")

    def before_op(self, force: bool = False) -> int:
        """Call before each operation; returns its sequence number."""
        if force or time.process_time() - self._last >= EVERY_S:
            self.points.append((self.done, reference_loop()))
            self._last = time.process_time()
        self.done += 1
        return self.done - 1

    def factors(self) -> list[float]:
        """Scale factor of every operation so far: NOMINAL_S over the mean
        of the reference loops run just before and just after it."""
        if not self.points or self.points[-1][0] < self.done:
            self.points.append((self.done, reference_loop()))
        out, k = [], 0
        for i in range(self.done):
            while self.points[k + 1][0] <= i:
                k += 1
            out.append(NOMINAL_S / ((self.points[k][1] + self.points[k + 1][1]) / 2.0))
        return out
