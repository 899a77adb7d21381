"""Deterministic randomness.

Stream contract: a :class:`RandomSource` wraps numpy's PCG64 generator seeded
with a 64-bit integer.  Identical seeds produce identical draw sequences within
this implementation (cross-implementation bit-equality is a non-goal).

Per-trial seeds are derived with splitmix64, so trials are independent of
worker scheduling: running a campaign with 1 or 8 workers consumes the same
per-trial streams.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 output step (finalizer of Steele/Lea/Flood)."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Seed for stream ``index`` derived from ``base_seed`` (e.g. a trial)."""
    return splitmix64((base_seed + index * _GOLDEN) & _MASK64)


class RandomSource:
    """A seeded PCG64 stream.  Not shared between workers; make one each."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self):
        return f"RandomSource(seed={self.seed})"
