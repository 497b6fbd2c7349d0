"""||.||_p-SVD factorizations A = U D V^T.

D (positive diagonal, non-increasing) and V (orthogonal) describe an
ellipsoid {x : ||D V^T x||_2 <= 1} sandwiching the level set of A, so that

    ||D V^T x||_2 <= ||Ax||_p <= kappa ||D V^T x||_2     for all x,

with kappa <= sqrt(d) for the deterministic (Loewner ellipsoid) path and a
measured kappa for the randomized path.  That path sketches only at p < 2;
at p >= 2 it conditions with A's own QR factor, and at p = 2 kappa is
exactly 1.  U := A (D V^T)^-1 makes U D V^T = A exactly, so truncating D
yields rank-k approximations with entry-wise p-norm error controlled by the
sandwiched singular values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmall, RankDeficient, ShapeMismatch, SvdFailure
from .lowner import LevelSet, LownerConfig, _ascend, lowner, pnorms
from .matcore import as_matrix, frozen, qr, svd
from .rng import philox

_SAMPLE_STREAM = 101
_DESCENT_STREAM = 707
_SANDWICH_SAMPLES = 1000  # Gaussian directions of sandwich_check, besides the 2d axes
_SANDWICH_SEED = 424242
_LOWER_MARGIN = 1e-9  # relative shrink of R that keeps ||Rx||_2 <= ||Ax||_p through rounding


@dataclass(frozen=True)
class LpSvd:
    """A = U D V^T with the sandwich property at exponent p.

    ``distortion`` is the upper ratio kappa: sqrt(d) (1 + slack) for the
    deterministic path.  For the randomized one it is the max/min ratio
    ||Ax||_p / ||Rx||_2 over the conditioner's probes, and exactly 1 at p = 2.
    Its R is factored from a p-stable sketch of A at p < 2 and from A itself
    at p >= 2, so at p > 2 V is A's right singular vectors and D is A's
    singular values times one probed scale.
    ``iterations`` records the ellipsoid work that produced (D, V).
    """

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray
    p: float
    distortion: float
    method: str
    iterations: dict

    def __post_init__(self):
        object.__setattr__(self, "U", frozen(self.U))
        object.__setattr__(self, "D", frozen(np.asarray(self.D, dtype=float).reshape(-1)))
        object.__setattr__(self, "V", frozen(self.V))


@dataclass(frozen=True)
class ConditionerResult:
    """Invertible R with ||Rx||_2 <= ||Ax||_p on all probed x (all x at p = 2).

    ``sketch_rows`` counts the rows R was factored from: the p-stable sketch's
    min(n, 8 d^2) for p < 2, and n when R comes from A itself (p >= 2, or a
    rank-deficient sketch).
    """

    R: np.ndarray
    distortion: float
    sketch_rows: int

    def __post_init__(self):
        object.__setattr__(self, "R", frozen(self.R))


def _finish(a: np.ndarray, dvals: np.ndarray, v: np.ndarray, p: float, distortion: float, method: str, iterations: dict) -> LpSvd:
    u = a @ (v / dvals[None, :])  # (D V^T)^-1 = V D^-1
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.linalg.norm((u * dvals[None, :]) @ v.T - a) > 1e-8 * scale:
        raise SvdFailure("U D V^T failed to reproduce A within 1e-8")
    return LpSvd(U=u, D=dvals, V=v, p=p, distortion=distortion, method=method, iterations=iterations)


def lp_svd(a, p: float, cfg: LownerConfig | None = None) -> LpSvd:
    """Deterministic ||.||_p-SVD through the Loewner ellipsoid of the level set."""
    a = as_matrix(a, "a")
    n, d = a.shape
    if n < d:
        raise ShapeMismatch(f"lp_svd expects rows >= cols, got {n}x{d}; orient the input first")
    if d < 2:
        raise DimensionTooSmall("lp_svd requires at least 2 columns")
    cfg = cfg or LownerConfig()
    res = lowner(a, p, cfg)
    iterations = {
        "central": res.iterations_central,
        "shallow": res.iterations_shallow,
        "refine": res.iterations_refine,
    }
    distortion = math.sqrt(d) * (1.0 + cfg.slack)
    return _finish(a, res.D, res.V, p, distortion, "lowner", iterations)


def _stable_samples(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """Standard p-stable variates (Chambers-Mallows-Stuck)."""
    if p == 1.0:
        return rng.standard_cauchy(size)
    theta = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    w = rng.exponential(1.0, size)
    return (
        np.sin(p * theta)
        / np.cos(theta) ** (1.0 / p)
        * (np.cos(theta * (1.0 - p)) / w) ** ((1.0 - p) / p)
    )


def _sketch(a: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sparse p-stable embedding S A of min(n, 8 d^2) rows, for p in [1, 2)."""
    n, d = a.shape
    m = min(n, 8 * d * d)
    buckets = rng.integers(0, m, n)
    scales = _stable_samples(rng, p, n)
    sa = np.zeros((m, d))
    np.add.at(sa, buckets, a * scales[:, None])
    return sa


def randomized_conditioner(a, p: float, seed: int = 0) -> ConditionerResult:
    """Conditioner R with ||Rx||_2 <= ||Ax||_p (exact at p = 2, probed otherwise).

    At p = 2 R is exact: ||Ax||_2 = ||R_A x||_2 for A = Q R_A, so R is the
    triangular factor of qr(A) shrunk by the relative margin 1e-9, the
    distortion is 1, and ``seed`` does not change the result.

    For p in [1, 2) R starts as the triangular factor of qr(S A) for one sparse
    p-stable embedding S of min(n, 8 d^2) rows, drawn from ``seed``.  When S A
    comes out rank deficient, as bucket collisions make it on small square
    inputs, A itself is used.  For p > 2 R starts as A's own factor R_A, and
    ``seed`` picks only the probes and the ascent starts: a row sample S with
    E[(S A)^T S A] a multiple of A^T A would only estimate R_A with noise.

    Away from p = 2, R is then rescaled by the smallest observed ratio
    ||Ax||_p / ||Rx||_2 (1000 fixed Gaussian probes plus a multi-start
    ascent to the minimizing direction), restoring the one-sided guarantee on
    every probed x.  The reported distortion is the max/min ratio over the
    fixed probes.
    """
    a = as_matrix(a, "a")
    n, d = a.shape
    if n < d:
        raise ShapeMismatch(f"conditioner expects rows >= cols, got {n}x{d}")
    level = LevelSet(a, p)  # validates rank and p
    sa = _sketch(a, p, philox(seed, stream=0)) if p < 2 else a
    try:
        _, r = qr(sa)
    except RankDeficient:
        if sa is a:
            raise
        # Bucket collisions can leave the sketch of a small input rank
        # deficient; A itself has the full rank LevelSet checked.
        sa = a
        try:
            _, r = qr(a)
        except RankDeficient:
            raise RankDeficient("the p-stable sketch and the input itself were both rank deficient") from None
    if p == 2:
        return ConditionerResult(R=r * (1.0 - _LOWER_MARGIN), distortion=1.0, sketch_rows=n)

    probes = philox(seed, stream=_SAMPLE_STREAM).standard_normal((1000, d))
    num = level.norms(probes)
    den = np.linalg.norm(probes @ r.T, axis=1)
    ratios = num / den
    # Descend to the true minimum of the ratio: the minimizer of
    # ||Ax||_p / ||Rx||_2 maximizes x^T (R^T R) x / ||Ax||_p^2.
    starts = np.concatenate(
        [
            np.linalg.eigh(r.T @ r)[1].T,
            philox(seed, stream=_DESCENT_STREAM).standard_normal((max(32, 2 * d), d)),
        ]
    )
    vals, _ = _ascend(level, r.T @ r, starts, 120)
    rmin_certified = min(float(ratios.min()), 1.0 / math.sqrt(float(vals.max())))
    khat = float(ratios.max() / ratios.min())
    r_scaled = r * (rmin_certified * (1.0 - _LOWER_MARGIN))
    return ConditionerResult(R=r_scaled, distortion=khat, sketch_rows=sa.shape[0])


def lp_svd_randomized(a, p: float, seed: int = 0) -> LpSvd:
    """Randomized ||.||_p-SVD: (D, V) from the SVD of :func:`randomized_conditioner`'s R."""
    a = as_matrix(a, "a")
    cond = randomized_conditioner(a, p, seed=seed)
    _, dvals, v = svd(cond.R)
    return _finish(a, dvals, v, p, cond.distortion, "randomized", {"central": 0, "shallow": 0, "refine": 0})


def sandwich_check(a, p: float, d_diag, v) -> tuple[float, float]:
    """Extremes of ||Ax||_p / ||D V^T x||_2 over sampled directions.

    Directions are 1000 fixed Gaussian draws plus the 2d contracted
    vertex directions (the +-columns of V), evaluated in direction blocks.
    For a valid factorization the returned pair satisfies lo >= 1 and
    hi <= sqrt(d) up to solver slack.
    """
    a = as_matrix(a, "a")
    d_diag = np.asarray(d_diag, dtype=float).reshape(-1)
    v = as_matrix(v, "v")
    d = v.shape[0]
    if a.shape[1] != d or d_diag.shape[0] != d:
        raise ShapeMismatch("inconsistent shapes between a, d_diag, and v")
    dirs = philox(_SANDWICH_SEED, stream=0).standard_normal((_SANDWICH_SAMPLES, d))
    dirs = np.concatenate([dirs, v.T, -v.T], axis=0)
    ratios = pnorms(a, p, dirs) / np.linalg.norm((dirs @ v) * d_diag[None, :], axis=1)
    return float(ratios.min()), float(ratios.max())
