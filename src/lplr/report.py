"""Evaluation reports: error metrics, bounds, and compression accounting.

An EvalReport aggregates everything one factorization run produced:
reconstruction error in the entry-wise p-norm, the SVD baseline's error in
the same norm, the sigma-implied bounds, the measured sandwich ratios, and
the memory compression rate 1 - k(n + d)/(n d).  Reports serialize to JSON
with a fixed field order so runs are diffable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InvalidRank, NotCompressing, ShapeMismatch
from .factor import Method, RankKApprox, assemble, error_bounds, l2_low_rank
from .lpsvd import sandwich_check
from .matcore import as_matrix, entrywise_pnorm_pow


@dataclass(frozen=True)
class EvalReport:
    n: int
    d: int
    k: int
    p: float
    method: str
    error_pp: float
    error_l2_baseline: float
    bound_lower: float
    bound_upper: float
    bound_upper_stated: float
    sandwich_lo: float
    sandwich_hi: float
    compression_rate: float
    iterations: dict
    wall_time_ms: float
    seed: int


def compression_rate(n: int, d: int, k: int) -> float:
    """Fraction of parameters removed by the n x k and k x d factor pair.

    Zero at break-even (k(n+d) = nd); raises NotCompressing when the factor
    pair would be strictly larger than the input.
    """
    if not 1 <= k <= min(n, d) - 1:
        raise InvalidRank(f"k must be in [1, {min(n, d) - 1}], got {k}")
    if k * (n + d) > n * d:
        raise NotCompressing(f"factors would hold {k * (n + d)} numbers, input holds {n * d}")
    return _rate(n, d, k)


def _rate(n: int, d: int, k: int) -> float:
    """1 - k(n + d)/(n d), ungated: negative when the factor pair is larger than the input."""
    return 1.0 - k * (n + d) / (n * d)


def evaluate(a, approx: RankKApprox, p: float, wall_time_ms: float = 0.0, seed: int = 0) -> EvalReport:
    """Score an approximation of ``a`` under the entry-wise p-norm."""
    a = as_matrix(a, "a")
    oriented = _oriented_input(a, approx)
    [error_pp] = _error_sums(a, approx, [p])
    [error_l2] = _error_sums(a, l2_low_rank(a, approx.k), [p])
    sandwich = sandwich_check(oriented, p, approx.sigmas, approx.full_v)
    return _build_report(oriented.shape[0], approx.sigmas, approx.k, p, approx.method, approx.iterations,
                         (error_pp, error_l2), sandwich, wall_time_ms, seed)


def _oriented_input(a: np.ndarray, approx: RankKApprox) -> np.ndarray:
    """``a`` as its factorization saw it: a transposed view of a wide input."""
    shape = (approx.left.shape[0], approx.right.shape[1])
    if approx.transposed:
        shape = shape[::-1]
    if shape != a.shape:
        raise ShapeMismatch(f"approximation shape {shape} does not match input {a.shape}")
    return a.T if approx.transposed else a


def _error_sums(a: np.ndarray, approx: RankKApprox, ps) -> list[float]:
    """sum |A - A_k|^p at each p of ``ps``, all from one residual in ``a``'s own layout."""
    residual = a - assemble(approx)
    return [entrywise_pnorm_pow(residual, p) for p in ps]


def _build_report(
    n: int,
    sigmas: np.ndarray,
    k: int,
    p: float,
    method: Method,
    iterations: dict,
    errors: tuple[float, float],
    sandwich: tuple[float, float],
    wall_time_ms: float,
    seed: int,
) -> EvalReport:
    """The report of the rank-k truncation of an n x d factorization with singular values ``sigmas``.

    ``errors`` holds its error and the rank-k SVD baseline's, both summed by
    :func:`_error_sums`, and ``sandwich`` is :func:`sandwich_check` of the
    factorization.  :func:`evaluate` computes all of them for one
    approximation; a sweep computes each once and builds every row here.
    """
    d = int(sigmas.shape[0])
    error_pp, error_l2 = errors
    bounds = error_bounds(sigmas, k, p, d, n, method)
    lo, hi = sandwich
    return EvalReport(
        n=n,
        d=d,
        k=k,
        p=float(p),
        method=method.value,
        error_pp=float(error_pp),
        error_l2_baseline=float(error_l2),
        bound_lower=bounds.lower,
        bound_upper=bounds.upper,
        bound_upper_stated=bounds.upper_stated,
        sandwich_lo=lo,
        sandwich_hi=hi,
        # Raw value, not gated: desk-scale shapes (for example 3x3 at k = 2)
        # are legitimately evaluated even when the factor pair is larger than
        # the input, in which case the rate goes negative.
        compression_rate=_rate(n, d, k),
        iterations=dict(iterations),
        wall_time_ms=float(wall_time_ms),
        seed=int(seed),
    )


def report_to_json(report: EvalReport) -> str:
    """Serialize with the dataclass field order (stable keys)."""
    return json.dumps(asdict(report), indent=2)


def report_from_json(text: str) -> EvalReport:
    data = json.loads(text)
    names = {f.name for f in fields(EvalReport)}
    unknown = set(data) - names
    if unknown:
        raise ShapeMismatch(f"unknown report fields: {sorted(unknown)}")
    missing = names - set(data)
    if missing:
        raise ShapeMismatch(f"missing report fields: {sorted(missing)}")
    return EvalReport(**data)


def reports_equal_modulo_time(a: EvalReport, b: EvalReport) -> bool:
    """Field-wise equality ignoring wall_time_ms (CLI determinism check)."""
    da, db = asdict(a), asdict(b)
    da.pop("wall_time_ms")
    db.pop("wall_time_ms")
    return da == db
