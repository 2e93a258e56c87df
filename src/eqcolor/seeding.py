"""Deterministic seed derivation shared by the solver and the estimators.

All randomness in the package flows through numpy's PCG64 generator.  Seeds
are 64-bit unsigned integers.  Derived streams are produced by hashing the
root seed together with an integer path through numpy's SeedSequence, whose
mixing function is documented and stable across numpy releases:

    derive(seed, a, b, ...) -> Generator seeded from SeedSequence((seed, a, b, ...))

Call sites tag each purpose with a distinct path so no two draws share a
stream.  The solver draws weights and balanced colorings from
(seed, block, role), one stream per block of 64 attempts that the block's
attempts draw from in turn, and rebalancing sets from
(seed, attempt, ROLE_VSETS); the Monte Carlo driver uses
(seed, chunk, ROLE_TRIALS).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ROLE_WEIGHTS", "ROLE_VSETS", "ROLE_BALANCED", "ROLE_TRIALS", "derive"]

ROLE_WEIGHTS = 0
ROLE_VSETS = 1
ROLE_BALANCED = 2
ROLE_TRIALS = 3


def derive(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(x) for x in path)))
