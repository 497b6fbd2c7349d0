"""Seeded random number generation.

All randomness in the library flows through :func:`philox`, a counter-based
64-bit generator (numpy's Philox 4x64).  Identical (seed, stream) pairs
produce identical streams on every platform, which is what makes reports and
probe directions reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Generator for the given seed and sub-stream index."""
    return np.random.Generator(np.random.Philox(seed=[int(seed) & _MASK64, int(stream) & _MASK64]))
