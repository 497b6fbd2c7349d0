"""||.||_p-SVD factorizations A = U D V^T.

D (positive diagonal, non-increasing) and V (orthogonal) describe an
ellipsoid {x : ||D V^T x||_2 <= 1} sandwiching the level set of A, so that

    ||D V^T x||_2 <= ||Ax||_p <= kappa ||D V^T x||_2     for all x,

with kappa <= sqrt(d) for the deterministic (Loewner ellipsoid) path.  The
randomized path conditions with A's Lewis weights at p <= 2, where kappa is
proved (d^(1/p - 1/2) at their fixed point, 1 at p = 2), and with A's own QR
factor and a probed scale at p > 2, where kappa is measured.
U := A (D V^T)^-1 makes U D V^T = A exactly, so truncating D yields rank-k
approximations with entry-wise p-norm error controlled by the sandwiched
singular values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmall, ShapeMismatch, SvdFailure
from .lowner import LevelSet, LownerConfig, _ascend, lowner, pnorms
from .matcore import as_matrix, frozen, qr, svd
from .rng import philox

_SAMPLE_STREAM = 101
_DESCENT_STREAM = 707
_SANDWICH_SAMPLES = 1000  # Gaussian directions of sandwich_check, besides the 2d axes
_SANDWICH_SEED = 424242
_LEWIS_TOL = 1e-3  # largest relative change of the row scales s that ends the Lewis fixed point
_LEWIS_ITERS = 50  # cap on the fixed point's QR factorizations
_LOWER_MARGIN = 1e-9  # relative shrink of R that keeps ||Rx||_2 <= ||Ax||_p through rounding


@dataclass(frozen=True)
class LpSvd:
    """A = U D V^T with the sandwich property at exponent p.

    ``distortion`` is the upper ratio kappa: sqrt(d) (1 + slack) for the
    deterministic path.  For the randomized one it is proved at p <= 2 (see
    :func:`randomized_conditioner`); at p > 2 it is the max/min ratio
    ||Ax||_p / ||Rx||_2 over the conditioner's probes, V is A's right singular
    vectors and D is A's singular values times one probed scale.
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
    """Invertible R with ||Rx||_2 <= ||Ax||_p <= distortion ||Rx||_2 (up to the 1e-9 margin).

    Both sides hold for every x at p <= 2, and on the probed x at p > 2.
    """

    R: np.ndarray
    distortion: float

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


def _sketch(a: np.ndarray, p: float) -> tuple[np.ndarray, float, float]:
    """Lewis-weighted factor of A for p in [1, 2]: (R, gamma, sum w).

    Over the nonzero rows a_i (a zero row adds nothing to either side of
    the sandwich), each step factors B = S A with S = diag(s), s = w^(1/2 - 1/p),
    as Q R, reads tau_i = ||q_i||^2 / s_i^2 = a_i^T (B^T B)^-1 a_i and moves
    to w = tau^(p/2), starting at w = 1 and stopping once s changes by at
    most _LEWIS_TOL relative (at p = 2, after one QR).  R, gamma =
    max_i s_i^2 tau_i^(1 - p/2) and sum w are those of one QR, so for every x

        ||Rx||_2 <= gamma^(1/p) ||Ax||_p    (|a_i x| <= sqrt(tau_i) ||Rx||_2)
        ||Ax||_p <= (sum w)^(1/p - 1/2) ||Rx||_2    (Holder)

    hold for the weights used, converged or not.
    """
    rows = a[np.any(a != 0.0, axis=1)]
    w = np.ones(rows.shape[0])
    for _ in range(_LEWIS_ITERS):
        s = w ** (0.5 - 1.0 / p)
        q, r = qr(rows * s[:, None])
        tau = np.einsum("ij,ij->i", q, q) / (s * s)
        gamma, wsum = float(np.max(s * s * tau ** (1.0 - p / 2.0))), float(w.sum())
        w = tau ** (p / 2.0)
        if np.max(np.abs(w ** (0.5 - 1.0 / p) / s - 1.0)) <= _LEWIS_TOL:
            break
    return r, gamma, wsum


def randomized_conditioner(a, p: float, seed: int = 0) -> ConditionerResult:
    """Conditioner R with ||Rx||_2 <= ||Ax||_p (proved at p <= 2, probed above).

    For p in [1, 2] R is the Lewis-weighted factor of :func:`_sketch` scaled
    by gamma^(-1/p) (1 - 1e-9), and the proved distortion is
    (sum w)^(1/p - 1/2) gamma^(1/p): d^(1/p - 1/2) at the fixed point, and
    exactly 1 at p = 2, where R is A's own QR factor.  ``seed`` is unused.

    For p > 2 R is A's own factor R_A rescaled by the smallest observed ratio
    ||Ax||_p / ||Rx||_2 over 1000 Gaussian probes drawn from ``seed`` and a
    multi-start ascent to the minimizing direction; the reported distortion
    is the max/min ratio over the probes.
    """
    a = as_matrix(a, "a")
    n, d = a.shape
    if n < d:
        raise ShapeMismatch(f"conditioner expects rows >= cols, got {n}x{d}")
    level = LevelSet(a, p)  # validates rank and p
    if p <= 2:
        r, gamma, wsum = _sketch(a, p)
        distortion = wsum ** (1.0 / p - 0.5) * gamma ** (1.0 / p)
        return ConditionerResult(R=r * (gamma ** (-1.0 / p) * (1.0 - _LOWER_MARGIN)), distortion=distortion)

    _, r = qr(a)
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
    return ConditionerResult(R=r_scaled, distortion=khat)


def lp_svd_randomized(a, p: float, seed: int = 0) -> LpSvd:
    """Randomized ||.||_p-SVD: (D, V) from the SVD of :func:`randomized_conditioner`'s R.

    Deterministic at p <= 2 (Lewis weights); ``seed`` picks the probes only at p > 2.
    """
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
