"""||.||_p-SVD factorizations A = U D V^T.

D (positive diagonal, non-increasing) and V (orthogonal) describe an
ellipsoid {x : ||D V^T x||_2 <= 1} sandwiching the level set of A, so that

    ||D V^T x||_2 <= ||Ax||_p <= kappa ||D V^T x||_2     for all x,

with kappa <= sqrt(d) for the deterministic (Loewner ellipsoid) path.  The
randomized path conditions with A's Lewis weights at every p, where both
sides are proved and kappa is d^|1/p - 1/2| at their fixed point (1 at p = 2).
U := A (D V^T)^-1 makes U D V^T = A exactly, so truncating D yields rank-k
approximations with entry-wise p-norm error controlled by the sandwiched
singular values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmall, NoConvergence, RankDeficient, ShapeMismatch, SvdFailure
from .lowner import _ROW_CHUNK, DIRECTION_BLOCK, LownerConfig, _norm_pass, lowner, pnorms
from .matcore import as_matrix, check_p, frozen, full_rank_singular_values, qr, r_factor, svd
from .rng import philox

_SANDWICH_SAMPLES = 1000  # Gaussian directions of sandwich_check, besides the 2d axes
_SANDWICH_SEED = 424242
_LEWIS_TOL = 1e-3  # largest relative change of the row scales s that ends the Lewis fixed point
_LEWIS_ITERS = 50  # cap on the fixed point's steps
_TINY = np.finfo(float).tiny  # smallest normal double
_LOWER_MARGIN = 1e-9  # relative shrink of R that keeps ||Rx||_2 <= ||Ax||_p through rounding


@dataclass(frozen=True)
class LpSvd:
    """A = U D V^T with the sandwich property at exponent p.

    ``distortion`` is the upper ratio kappa: sqrt(d) (1 + slack) for the
    deterministic path, and the proved constant of the Lewis-weight
    conditioner for the randomized one (see :func:`randomized_conditioner`).
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
    """Invertible R with ||Rx||_2 <= ||Ax||_p <= distortion ||Rx||_2 for every x.

    Both sides are proved; the lower one keeps a 1e-9 relative margin for rounding.
    """

    R: np.ndarray
    distortion: float

    def __post_init__(self):
        object.__setattr__(self, "R", frozen(self.R))


def _finish(a: np.ndarray, dvals: np.ndarray, v: np.ndarray, p: float, distortion: float, method: str, iterations: dict) -> LpSvd:
    """The LpSvd with U = A V D^-1, checked to give U D V^T = A; a zero singular value gets a zero column of U."""
    scaled = np.divide(v, dvals[None, :], out=np.zeros_like(v), where=dvals[None, :] != 0)
    u = a @ scaled  # (D V^T)^-1 = V D^-1
    scale = max(1.0, float(np.linalg.norm(a)))
    if not np.linalg.norm((u * dvals[None, :]) @ v.T - a) <= 1e-8 * scale:  # also rejects a NaN residual
        raise SvdFailure("U D V^T failed to reproduce A within 1e-8")
    return LpSvd(U=u, D=dvals, V=v, p=p, distortion=distortion, method=method, iterations=iterations)


def lp_svd(a, p: float, cfg: LownerConfig | None = None) -> LpSvd:
    """Deterministic ||.||_p-SVD through the Loewner ellipsoid of the level set.

    ``cfg`` changes nothing: :class:`LownerConfig` has no settings.
    """
    a = as_matrix(a, "a")
    n, d = a.shape
    if n < d:
        raise ShapeMismatch(f"lp_svd expects rows >= cols, got {n}x{d}; orient the input first")
    if d < 2:
        raise DimensionTooSmall("lp_svd requires at least 2 columns")
    res = lowner(a, p)
    iterations = {
        "central": res.iterations_central,
        "shallow": res.iterations_shallow,
        "refine": res.iterations_refine,
    }
    distortion = math.sqrt(d) * (1.0 + LownerConfig.slack)
    return _finish(a, res.D, res.V, p, distortion, "lowner", iterations)


def _constants(tau: np.ndarray, s: np.ndarray, w: np.ndarray, p: float) -> tuple[float, float, float]:
    """(leverage constant, lo, hi) of one Lewis step from its leverages, scales and weights."""
    e = 0.5 - 1.0 / p
    pos = s > 0
    g = tau[pos] ** (p / 2.0 - 1.0) / (s[pos] * s[pos])
    wsum = float(w.sum())
    t = float(np.sum(tau[~pos] ** (p / 2.0)))
    if p <= 2:
        gk = float(g.min())
        return gk, gk ** (1.0 / p), wsum**-e + t ** (1.0 / p)
    gk = float(g.max()) + t
    return gk, wsum**-e, gk ** (1.0 / p)


def _whiten(rows: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, tau): U = rows R^-1 and tau_i = ||u_i||^2; RankDeficient if R does not invert."""
    try:
        u = rows @ np.linalg.inv(r)
    except np.linalg.LinAlgError:
        raise RankDeficient("triangular factor is singular") from None
    return u, np.einsum("ij,ij->i", u, u)


def _qr_leverages(rows: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, U, tau) of B = diag(s) rows: B's R-only QR factor and :func:`_whiten` of the rows by it."""
    r = qr(rows * s[:, None])
    return (r, *_whiten(rows, r))


def _gram_leverages(u: np.ndarray, s: np.ndarray) -> np.ndarray | None:
    """tau_i = ||u_i C^-1||^2 with C^T C = U^T S^2 U, or None if that Cholesky fails."""
    su = u * s[:, None]
    gram = su.T @ su
    del su  # at most two n x d arrays of the step are alive at once
    try:
        low = np.linalg.cholesky(gram)  # C = low^T
    except np.linalg.LinAlgError:
        return None
    v = u @ np.linalg.inv(low).T
    return np.einsum("ij,ij->i", v, v)


# At p < 2 a zero tau or w powers to g = inf or s = inf, and at large p the
# powers of tau can overflow; the loop handles both.
@np.errstate(divide="ignore", over="ignore")
def _sketch(a: np.ndarray, p: float) -> tuple[np.ndarray, float, float]:
    """Lewis-weighted factor of A: (R, lo, hi) with lo ||Rx||_2 <= ||Ax||_p <= hi ||Rx||_2.

    Over the nonzero rows a_i (a zero row adds nothing to either side of
    the sandwich), each step weighs B = S A with S = diag(s), s = w^(1/2 - 1/p),
    reads tau_i = a_i^T (B^T B)^-1 a_i from A's own rows, so that
    |a_i x| <= sqrt(tau_i) ||Rx||_2 for B's factor R, and moves to w = tau^(p/2)
    at p <= 2.  At p > 2 the step is damped, w = w^(1 - alpha) tau^(alpha p/2)
    with alpha = min(1/2, 4/(p + 2)): in ln w its eigenvalues lie in
    [1 - alpha p/2, 1 - alpha], so it contracts at every p, where the plain
    step need not settle at p >= 4 and alpha = 1/2 does not at p >= 8.
    At p <= 6 that is w^(1/2) tau^(p/4).  It starts at w = 1, where an
    R-only QR gives A's own factor R_A, whose singular values carry the
    rank test, and U = A R_A^-1, A whitened.  Every later step factors the
    d x d matrix U^T S^2 U = C^T C by Cholesky, since
    B^T B = R_A^T C^T C R_A, and reads tau_i = ||u_i C^-1||^2 from U's rows;
    only if that Cholesky fails does the step run an R-only QR of B, whose
    U = A R^-1 whitens the steps after it.
    It stops once s changes by at most _LEWIS_TOL relative on the rows with
    s > 0 (at p = 2, after one QR), or after _LEWIS_ITERS steps.  A row
    whose weight underflowed to 0, or whose tau fell below the smallest
    normal double (its digits are then rounding noise), gets w = 0 and s = 0,
    so it leaves B.  With g_i = tau_i^(p/2 - 1) / s_i^2 over the rows with
    s > 0 and t = sum_{s_i = 0} tau_i^(p/2):

        p <= 2:  lo = (min g)^(1/p),  hi = (sum w)^(1/p - 1/2) + t^(1/p)
                 by Holder and Minkowski;
        p > 2:   lo = (sum w)^(1/p - 1/2) by Holder,  hi = (max g + t)^(1/p),

    since a row left out of B adds at most tau_i^(p/2) ||Rx||_2^p to
    ||Ax||_p^p.  The proof rests on a QR: the step that stands, if it ran
    a Cholesky, runs one R-only QR of its B at the end, and R, lo and hi
    are read from that QR's tau as above, so both sides hold for the
    weights used, converged or not; at the fixed point hi / lo is
    d^|1/p - 1/2|.  A result that the cap ended (from p = 32 on, planted
    and Gaussian inputs ran all 50 steps) is proved but looser.  A step
    whose weights turn non-finite, whose B loses rank or whose factor does
    not invert ends the loop.  The last step whose leverage constant
    (min g, or max g + t) is a finite normal number stands; if its final QR
    fails or reads no such constant, the last QR step that had one stands,
    and if there is none, NoConvergence names the cause.
    """
    nonzero = np.any(a != 0.0, axis=1)
    # Without a zero row, A itself: the same values in the same C layout as
    # the masked copy, so R keeps its bits, and one n x d array fewer.
    rows = np.ascontiguousarray(a) if nonzero.all() else a[nonzero]
    r = r_factor(rows)  # the first step's B is A: R_A
    full_rank_singular_values(r)
    u, tau = _whiten(rows, r)
    e = 0.5 - 1.0 / p
    alpha = min(0.5, 4.0 / (p + 2.0))
    s = w = np.ones(rows.shape[0])
    proved = None  # (R, lo, hi) of the last QR step whose constant is good
    pending = None  # (s, w) of a Cholesky step that stands, to be proved by a QR
    for step in range(1, _LEWIS_ITERS + 1):
        gk, lo, hi = _constants(tau, s, w, p)
        if _TINY <= gk < np.inf and hi < np.inf:  # a subnormal gk has lost its digits
            if r is None:
                pending = s, w
            else:
                proved, pending = (r, lo, hi), None
        pos = s > 0
        if p <= 2:
            w = tau ** (p / 2.0)
        else:
            w = w ** (1.0 - alpha) * tau ** (alpha * p / 2.0)
        w[tau < _TINY] = 0.0  # a leverage that underflowed is noise; its row leaves B
        if (step == _LEWIS_ITERS or not np.all(np.isfinite(w))
                or np.max(np.abs(w[pos] ** e / s[pos] - 1.0)) <= _LEWIS_TOL):
            break
        s = w**e
        s[w == 0] = 0.0  # a row of weight 0 is left out of B (at p < 2, s would be inf)
        r = None
        try:
            tau = _gram_leverages(u, s)
            if tau is None:
                u = None  # freed before the QR allocates its own n x d arrays
                r, u, tau = _qr_leverages(rows, s)
        except (RankDeficient, np.linalg.LinAlgError):
            break  # these weights made B singular; the last step's constants stand
    if pending is not None:
        s, w = pending
        u = None  # freed before the final QR allocates its n x d arrays
        try:
            r, _, tau = _qr_leverages(rows, s)
            gk, lo, hi = _constants(tau, s, w, p)
            if _TINY <= gk < np.inf and hi < np.inf:
                return r, lo, hi
        except (RankDeficient, np.linalg.LinAlgError):
            pass
    if proved is None:
        raise NoConvergence(f"Lewis fixed point at p = {p}: every step's leverage constant overflowed or underflowed")
    return proved


def randomized_conditioner(a, p: float, seed: int = 0) -> ConditionerResult:
    """Conditioner R with ||Rx||_2 <= ||Ax||_p <= distortion ||Rx||_2, both sides proved.

    R is the Lewis-weighted factor of :func:`_sketch` scaled by lo (1 - 1e-9),
    and the distortion is hi / lo: d^|1/p - 1/2| at the Lewis fixed point,
    exactly 1 at p = 2, where R is A's own QR factor.  Nothing is sampled, so
    ``seed`` is unused; it stays for the callers that pass one.
    """
    a = as_matrix(a, "a")
    n, d = a.shape
    if n < d:
        raise ShapeMismatch(f"conditioner expects rows >= cols, got {n}x{d}")
    check_p(p)
    r, lo, hi = _sketch(a, p)
    return ConditionerResult(R=r * (lo * (1.0 - _LOWER_MARGIN)), distortion=hi / lo)


def lp_svd_randomized(a, p: float) -> LpSvd:
    """Randomized ||.||_p-SVD: (D, V) from the SVD of :func:`randomized_conditioner`'s R.

    Deterministic despite the name: the Lewis weights are a fixed point.
    """
    a = as_matrix(a, "a")
    cond = randomized_conditioner(a, p)
    _, dvals, v = svd(cond.R)
    return _finish(a, dvals, v, p, cond.distortion, "randomized", {"central": 0, "shallow": 0, "refine": 0})


def _gaussian_directions(d: int) -> np.ndarray:
    return philox(_SANDWICH_SEED, stream=0).standard_normal((_SANDWICH_SAMPLES, d))


def gaussian_norms(a, p: float) -> np.ndarray:
    """||Ag||_p for each of :func:`sandwich_check`'s fixed Gaussian directions g.

    They depend only on A and p, so a sweep computes them once per p and
    hands them to every sandwich check at that p.
    """
    a = as_matrix(a, "a")
    return _gaussian_norms(a, p, _gaussian_directions(a.shape[1]))


def _gaussian_norms(a: np.ndarray, p: float, gauss: np.ndarray) -> np.ndarray:
    """The norm pass over ``gauss`` in blocks of ``DIRECTION_BLOCK``, the last of 232.

    The blocks share one chunk buffer, as the ascent's do.  :func:`pnorms`
    would join the last 232 directions to the block before, and at 2000 rows
    its 488-wide buffer raised the peak RSS of a lowner solve and its
    evaluate() by 7 MB.
    """
    rows = min(a.shape[0], _ROW_CHUNK)
    flat = np.empty(2 * rows * DIRECTION_BLOCK)
    norms = []
    for lo in range(0, gauss.shape[0], DIRECTION_BLOCK):
        block = gauss[lo : lo + DIRECTION_BLOCK]
        work = flat[: 2 * rows * block.shape[0]].reshape(2, rows, block.shape[0])
        norms.append(_norm_pass(a, p, block, work=work)[0])
    return np.concatenate(norms)


def sandwich_check(a, p: float, d_diag, v, gaussian: np.ndarray | None = None) -> tuple[float, float]:
    """Extremes of ||Ax||_p / ||D V^T x||_2 over sampled directions.

    Directions are 1000 fixed Gaussian draws plus the 2d contracted
    vertex directions (the +-columns of V), evaluated in direction blocks.
    The Gaussian numerators are :func:`gaussian_norms` of (a, p): pass them as
    ``gaussian`` if they are at hand, and they are computed here if not.
    The axis numerators and every denominator belong to (D, V).  For a
    valid factorization the returned pair satisfies lo >= 1 and
    hi <= sqrt(d) up to solver slack.
    """
    a = as_matrix(a, "a")
    d_diag = np.asarray(d_diag, dtype=float).reshape(-1)
    v = as_matrix(v, "v")
    d = v.shape[0]
    if a.shape[1] != d or d_diag.shape[0] != d:
        raise ShapeMismatch("inconsistent shapes between a, d_diag, and v")
    gauss = _gaussian_directions(d)
    if gaussian is None:
        gaussian = _gaussian_norms(a, p, gauss)
    elif gaussian.shape != (_SANDWICH_SAMPLES,):
        raise ShapeMismatch(f"gaussian must hold {_SANDWICH_SAMPLES} norms, got shape {gaussian.shape}")
    axes = np.concatenate([v.T, -v.T], axis=0)
    dirs = np.concatenate([gauss, axes], axis=0)
    numerators = np.concatenate([gaussian, pnorms(a, p, axes)])
    ratios = numerators / np.linalg.norm((dirs @ v) * d_diag[None, :], axis=1)
    return float(ratios.min()), float(ratios.max())
