"""Synthetic matrices: noisy low-rank data with scaled outlier rows.

Rows are random points on a random k_true-dimensional subspace plus
isotropic Gaussian noise; a fixed-size subset of rows is then multiplied by
``outlier_scale``.  This is the planted model under which squared-error
fitting chases the scaled rows while absolute-error fitting does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .rng import philox


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    d: int
    k_true: int
    outlier_fraction: float = 0.0
    noise_sigma: float = 0.0
    outlier_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ShapeMismatch("n and d must be positive")
        if not 1 <= self.k_true < self.d:
            raise ShapeMismatch(f"k_true must be in [1, d), got {self.k_true}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ShapeMismatch("outlier_fraction must be in [0, 1)")
        # Written as not (bounds hold) so that NaN fails too.
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ShapeMismatch(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if not 1.0 <= self.outlier_scale < math.inf:
            raise ShapeMismatch(f"outlier_scale must be finite and >= 1, got {self.outlier_scale!r}")


def generate_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """Deterministic (seeded) sample from the planted low-rank model."""
    rng = philox(spec.seed, stream=0)
    basis, _ = np.linalg.qr(rng.standard_normal((spec.d, spec.k_true)))
    coords = rng.standard_normal((spec.n, spec.k_true))
    a = coords @ basis.T
    if spec.noise_sigma > 0.0:
        a = a + spec.noise_sigma * rng.standard_normal((spec.n, spec.d))
    count = int(spec.outlier_fraction * spec.n)
    if count > 0:
        rows = rng.choice(spec.n, size=count, replace=False)
        a[rows] *= spec.outlier_scale
    return a
