"""Dense linear-algebra substrate.

Matrices are plain 2-D float64 ``numpy`` arrays in row-major order; diagonal
matrices travel as 1-D arrays of their entries.  The functions here wrap
``numpy.linalg`` with the contracts the rest of the library relies on:
orientation preconditions, rank thresholds, sign conventions, and typed
errors instead of bare ``LinAlgError``.

Everything is pure: inputs are never mutated and returned arrays are fresh.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidP,
    NotPositiveDefinite,
    RankDeficient,
    ShapeMismatch,
    SvdFailure,
)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, requiring finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ShapeMismatch(f"{name} must be a nonempty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return m


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise ShapeMismatch(f"{name} must have length {dim}, got {v.shape[0]}")
    return v


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only view-safe copy of ``a`` (shared values stay immutable)."""
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def check_p(p: float) -> None:
    """Raise :class:`InvalidP` unless p is a finite number >= 1."""
    if not 1.0 <= p < math.inf:  # also false for NaN
        raise InvalidP(f"p must be a finite number >= 1, got {p}")


def vector_pnorm(y: np.ndarray, p: float) -> float:
    """The p-norm (sum of |y_i|^p)^(1/p) for p >= 1."""
    check_p(p)
    y = np.abs(np.asarray(y, dtype=np.float64))
    if p == 1:
        return float(y.sum())
    if p == 2:
        return float(np.sqrt((y * y).sum()))
    return float((y**p).sum() ** (1.0 / p))


def entrywise_pnorm_pow(a, p: float) -> float:
    """Entry-wise matrix norm raised to the p: sum over all entries of |a_ij|^p.

    Equals the sum over columns of the column p-norms to the p, and is
    invariant under transposition.  Zero exactly when ``a`` is all zeros.
    """
    check_p(p)
    m = as_matrix(a, "a")
    return float(np.sum(np.abs(m) ** p))


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a tall (rows >= cols) matrix.

    Returns ``(u, s, v)`` with ``a = u @ diag(s) @ v.T``, singular values
    ``s`` sorted non-increasing, and both ``u`` and ``v`` orthonormal.  The
    reconstruction is verified to 1e-10 relative Frobenius error.
    """
    m = as_matrix(a, "a")
    n, d = m.shape
    if n < d:
        raise ShapeMismatch(f"svd expects rows >= cols, got {n}x{d}; orient the input first")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge: {exc}") from None
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.linalg.norm(u @ np.diag(s) @ vh - m) > 1e-10 * scale:
        raise SvdFailure("SVD reconstruction residual above tolerance")
    return u, s, vh.T


def cholesky(f) -> np.ndarray:
    """Lower-triangular G with G @ G.T = F for symmetric positive definite F.

    F is symmetrized as (F + F.T)/2 first; ellipsoid updates accumulate tiny
    asymmetry that would otherwise poison the factorization.
    """
    m = as_matrix(f, "f")
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"cholesky expects a square matrix, got {m.shape}")
    sym = 0.5 * (m + m.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix has a non-positive pivot; not positive definite") from None


def qr(a) -> np.ndarray:
    """R factor of the reduced QR of a tall matrix, with a non-negative diagonal.

    R^T R = A^T A; Q is never formed.  Raises RankDeficient when any
    diagonal entry of R falls below 1e-12 times the Frobenius norm of the
    input.
    """
    m = as_matrix(a, "a")
    n, d = m.shape
    if n < d:
        raise ShapeMismatch(f"qr expects rows >= cols, got {n}x{d}")
    r = np.linalg.qr(m, mode="r")
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    r = r * signs[:, None]
    if np.min(np.diag(r)) < 1e-12 * np.linalg.norm(m):
        raise RankDeficient("matrix is (numerically) rank deficient")
    return r
