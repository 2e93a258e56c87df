"""Deterministic seed derivation shared by the solver and the estimators.

All randomness in the package flows through numpy's PCG64 generator.  Seeds
are 64-bit unsigned integers.  Derived streams are produced by hashing the
root seed together with an integer path through numpy's SeedSequence, whose
mixing function is documented and stable across numpy releases:

    derive(seed, a, b, ...) -> Generator seeded from SeedSequence((seed, a, b, ...))

Call sites tag each purpose with a distinct path so no two draws share a
stream.  Repeated draws are seeded per fixed-size block (block seeding as
in Salmon et al., SC'11): the solver's attempts in blocks of 64 and the
Monte Carlo trials in blocks of 16384.  Item t of a run draws from
(seed, t // block, role), right after the earlier items of its block;
consecutive draws from one generator do not depend on how they are split,
so the batch and sub-batch sizes change no draw, and a longer run extends
a shorter one.  ``_streams`` and ``_draw_rows`` implement the rule for
batches; a solve report's chains draw one attempt again by it directly.
The solver's roles are ROLE_WEIGHTS and ROLE_BALANCED, the Monte Carlo
trials' ROLE_TRIALS.  A balanced attempt, or a ``balanced-mono`` trial,
draws a permutation of its m vertices: the items of one generator in a
batch draw theirs in one ``Generator.permuted`` call over tiled aranges
(``intervals._balanced_colors``), which gives the rows of, and leaves the
generator as, successive ``permutation(m)`` calls, so that draw too is
the same however the items are split.  Only rebalancing sets are drawn
per attempt, from (seed, attempt, ROLE_VSETS).
"""

from __future__ import annotations

from itertools import chain, count, groupby, islice, repeat
from typing import Callable, Iterator

import numpy as np

from .hypergraph import _integer

__all__ = ["ROLE_WEIGHTS", "ROLE_VSETS", "ROLE_BALANCED", "ROLE_TRIALS", "derive"]

ROLE_WEIGHTS = 0
ROLE_VSETS = 1
ROLE_BALANCED = 2
ROLE_TRIALS = 3


def derive(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *path).  Every entry
    is an integer by ``hypergraph._integer``'s rule: a bool, a float or a
    string raises ValueError instead of being truncated."""
    return np.random.default_rng(
        np.random.SeedSequence(tuple(_integer(x, "seed") for x in (seed, *path)))
    )


def _streams(make: Callable, block: int) -> Iterator[np.random.Generator]:
    """Generators for items 0, 1, 2, ... in turn: the ``block`` items of
    block b share make(b), which is called when the block's first item is
    taken, never a block ahead."""
    return chain.from_iterable(repeat(make(b), block) for b in count())


def _draw_rows(streams: Iterator[np.random.Generator], size: int, draw: Callable) -> np.ndarray:
    """The rows of the next ``size`` items of ``streams``: draw(rng, k) once
    per run of k consecutive items that share a generator, concatenated."""
    parts = [draw(rng, len(list(run))) for rng, run in groupby(islice(streams, size))]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
