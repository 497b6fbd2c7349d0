"""Rank-k approximation and compressed factor export.

Given a ||.||_p-SVD A = U D V^T, zeroing all but the k largest entries of D
yields A_k = U D_k V^T of rank k.  Because U D_k V^T = A V diag(1,..,1,0,..,0) V^T,
A_k is A projected onto the top-k ellipsoid axes, and the entry-wise p-norm
error is sandwiched by the dropped sigma values:

    lower (informational):  d sigma_d^p
    upper:                  d^{1 + p/2} sigma_{k+1}^p     (deterministic)
                            d^{1 + p} (d^3 + d^2 ln n)^{|1 - p/2|} sigma_{k+1}^p  (randomized)

The stated lower bound is reported but never asserted: it fails on concrete
instances (diag(3,2,1) with k = 2, p = 1 has error 1 < 3), so it is carried
with ``lower_informational=True``.

The factor pair uses elementwise square roots of the kept sigmas:
left = U sqrt(D'_k) is n x k, right = sqrt(D'_k)^T V^T is k x d, and
left @ right = A_k, storing k(n + d) numbers instead of n d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfig, InvalidRank
from .lpsvd import LpSvd, lp_svd, lp_svd_randomized
from .matcore import as_matrix, frozen, svd


class Method(str, Enum):
    """Which engine produced a factorization."""

    LOWNER = "lowner"
    RANDOMIZED = "randomized"
    SVD = "svd"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(m.value for m in cls)
        raise InvalidConfig(f"method must be one of {names}, got {value!r}")


@dataclass(frozen=True)
class RankKApprox:
    """Rank-k approximation with its exported factor pair.

    ``Dk`` keeps the first k sigma values and zeros the rest;
    ``left @ right`` equals U D_k V^T of the underlying factorization.
    ``sigmas`` and ``full_v`` retain the complete (D, V) for bound and
    sandwich evaluation; ``transposed`` records that the input was oriented
    by transposition and assemble() must undo it.
    """

    k: int
    method: Method
    p: float
    Dk: np.ndarray
    left: np.ndarray
    right: np.ndarray
    sigmas: np.ndarray
    full_v: np.ndarray
    transposed: bool
    iterations: dict

    def __post_init__(self):
        for name in ("Dk", "left", "right", "sigmas", "full_v"):
            object.__setattr__(self, name, frozen(np.asarray(getattr(self, name), dtype=float)))


@dataclass(frozen=True)
class BoundPair:
    """Error bounds on ||A - A_k||_{p,p}^p implied by the sigma values.

    ``upper`` uses sigma_{k+1} (the value the proof chain supports);
    ``upper_stated`` is the sigma_k variant, reported for comparison.
    ``lower`` is informational only, never a valid assertion.
    """

    lower: float
    upper: float
    upper_stated: float
    upper_sigma_index: int
    method: Method
    lower_informational: bool = True


def orient(a) -> tuple[np.ndarray, bool]:
    """Transpose wide matrices so rows >= cols; entry-wise norms are unaffected."""
    m = as_matrix(a, "a")
    if m.shape[0] >= m.shape[1]:
        return m, False
    return np.ascontiguousarray(m.T), True


def _check_rank(k: int, d: int):
    if not isinstance(k, (int, np.integer)) or k < 1 or k > d - 1:
        raise InvalidRank(f"k must be an integer in [1, {d - 1}], got {k!r}")


def truncate_factorization(fac: LpSvd, k: int, transposed: bool = False) -> RankKApprox:
    """Rank-k approximation from an existing factorization (no solver rerun).

    Useful when sweeping k for a fixed (p, method): the expensive part is the
    factorization, truncation is free.
    """
    d = fac.D.shape[0]
    _check_rank(k, d)
    dk = np.concatenate([fac.D[:k], np.zeros(d - k)])
    roots = np.sqrt(fac.D[:k])
    left = fac.U[:, :k] * roots[None, :]
    right = (fac.V[:, :k] * roots[None, :]).T
    return RankKApprox(
        k=k,
        method=Method(fac.method),
        p=fac.p,
        Dk=dk,
        left=left,
        right=right,
        sigmas=fac.D,
        full_v=fac.V,
        transposed=transposed,
        iterations=dict(fac.iterations),
    )


def l2_svd(a) -> LpSvd:
    """The classical SVD of a tall matrix as an LpSvd (p = 2, distortion 1).

    Truncating it at k gives the optimal rank-k Frobenius approximation, so one
    call serves every rank of a sweep.
    """
    u, s, v = svd(a)
    return LpSvd(U=u, D=s, V=v, p=2.0, distortion=1.0, method=Method.SVD.value,
                 iterations={"central": 0, "shallow": 0, "refine": 0})


def factorize(oriented: np.ndarray, p: float, method: Method | str) -> LpSvd:
    """The factorization of a tall matrix by ``method``; every method is deterministic."""
    method = Method(method)
    if method is Method.SVD:
        return l2_svd(oriented)
    if method is Method.RANDOMIZED:
        return lp_svd_randomized(oriented, p)
    return lp_svd(oriented, p)


def low_rank(a, k: int, p: float, method: Method | str) -> RankKApprox:
    """Rank-k approximation of A by the lp paths or the SVD baseline (oriented internally if wide).

    ``method`` picks the deterministic Loewner path, the randomized one or the
    SVD.  None of them has a seed or a setting.
    """
    oriented, transposed = orient(a)
    _check_rank(k, oriented.shape[1])
    return truncate_factorization(factorize(oriented, p, method), k, transposed)


def lp_low_rank(a, k: int, p: float, method: Method = Method.LOWNER) -> RankKApprox:
    """Rank-k lp approximation of A: :func:`low_rank` restricted to the lp paths."""
    if Method(method) is Method.SVD:
        raise InvalidRank("use l2_low_rank for the SVD baseline")
    return low_rank(a, k, p, method)


def l2_low_rank(a, k: int) -> RankKApprox:
    """Optimal rank-k Frobenius approximation via truncated SVD."""
    return low_rank(a, k, 2.0, Method.SVD)


def assemble(approx: RankKApprox) -> np.ndarray:
    """Materialize A_k = left @ right, undoing the orientation transpose."""
    out = approx.left @ approx.right
    return out.T if approx.transposed else out


def error_bounds(sigmas, k: int, p: float, d: int, n: int, method: Method | str) -> BoundPair:
    """Bounds on ||A - A_k||_{p,p}^p from the sigma values.

    Meaningful when the sigmas come from an lp factorization of the oriented
    n x d matrix; for the SVD baseline the deterministic formula is applied
    to the classical singular values as a reference value.
    """
    sig = np.asarray(sigmas, dtype=float).reshape(-1)
    if sig.shape[0] != d or np.any(sig <= 0) or np.any(np.diff(sig) > 1e-12):
        raise InvalidRank("sigmas must be positive, non-increasing, and of length d")
    _check_rank(k, d)
    method = Method(method)
    lower = d * sig[-1] ** p
    if method is Method.RANDOMIZED:
        factor = d ** (1.0 + p) * (d**3 + d**2 * math.log(n)) ** abs(1.0 - p / 2.0)
    else:
        factor = d ** (1.0 + p / 2.0)
    return BoundPair(
        lower=float(lower),
        upper=float(factor * sig[k] ** p),
        upper_stated=float(factor * sig[k - 1] ** p),
        upper_sigma_index=k + 1,
        method=method,
    )
