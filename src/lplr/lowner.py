"""Minimum-volume enclosing (Loewner) ellipsoid of {x : ||Ax||_p <= 1}.

The level set L of a full-rank A and p >= 1 is a centrally symmetric convex
body.  Its Loewner ellipsoid E = {x : x^T V D^T D V^T x <= 1} yields the
diagonal D (reciprocal semi-axis lengths) and orthogonal basis V used by the
||.||_p-SVD factorization: shrinking E by sqrt(d) gives an inscribed
ellipsoid, hence ||D V^T x||_2 <= ||Ax||_p <= sqrt(d) ||D V^T x||_2.

:func:`lowner` runs two stages:

1. an ellipsoid-method cut loop: shallow cuts driven by the vertices of the
   contracted iterate.  The iterate starts as a ball around the origin and is
   recentered at the origin after every cut, so its center never leaves L and
   no central cut is ever needed.  Fixed-margin shallow cuts are applied only
   while provably safe (the kept half-space must cover the supporting slab
   |g.x| <= 1, which is tight for the subgradient g at an escaped vertex);
   every cut strictly shrinks det(F) and keeps L enclosed.  The loop works on
   the raw shape matrix: each iterate is checked through the eigendecomposition
   and log-determinant the loop computes anyway, and only the returned one
   goes through the validating :class:`Ellipsoid` constructor.
2. a log-det refinement: column generation over boundary contact points.
   Frank-Wolfe steps (with away steps) maximize log det of the weighted
   scatter of the working set, while a multi-start ascent oracle hunts the
   boundary point most protruding from the current candidate.  The cut loop
   alone stalls at a sqrt(d)-quality certificate; this stage is what drives
   D and V to the actual minimum-volume ellipsoid.

The final ellipsoid is certified by rescaling to the largest quadratic form
value observed over ascent maxima plus a dense boundary sample, so the
enclosure L inside E holds at every checked point with margin.

At p = 2 neither stage runs: L = {x : x^T A^T A x <= 1} is an ellipsoid and
so its own Loewner ellipsoid.  D and V are A's singular values and right
singular vectors, from the SVD of the d x d R that :class:`LevelSet`
holds, D shrunk by the same relative margin the certification applies, and
``logdet_trace`` is empty because no cut was made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    DimensionTooSmall,
    InvalidP,
    NoConvergence,
    NotPositiveDefinite,
    ShapeMismatch,
    SvdFailure,
    ZeroGradient,
)
from .matcore import as_matrix, as_vector, check_p, cholesky, frozen, full_rank_singular_values, r_factor, svd, vector_pnorm
from .rng import philox

#: Directions per block of every batched norm pass (:func:`_direction_blocks`).
#: The remainder joins the last block: with OpenBLAS 0.3.31 at one thread,
#: blocks of 256 plus a tail of at least 256 reproduced the single product bit
#: for bit on every shape tried, C- or F-ordered, while a narrow tail block
#: often changed the last bit (the GEMM kernel depends on the block's shape).
DIRECTION_BLOCK = 256

#: Rows of A per chunk of :func:`_norm_pass`, which bounds its temporaries to
#: chunk x directions however tall A is.  An A of at most this many rows is one
#: chunk and gives exactly the one-product result.
_ROW_CHUNK = 2048

#: A contracted vertex with ||Ax||_p <= 1 + VERTEX_TOL counts as inside L.
VERTEX_TOL = 1e-7
_INNER_TOL = 1e-7  # relative KKT gap that ends the MVEE weight solve of a refinement round
_VERIFY_SAMPLES = 4096  # random directions that seed the certification ascent
_PROBE_SEED = 24251  # Philox key of the random oracle starts and of certification
_CERT_MARGIN = 1e-9  # relative growth of F past the largest certified quadratic form
_REFINE_TOL = 5e-3  # refinement stops once no boundary point's quadratic form exceeds d (1 + _REFINE_TOL)
_ORACLE_ITERS = 60  # ascent iterations per refinement oracle start (twice that in certification)


def _direction_blocks(count: int) -> list[slice]:
    """Slices of ``DIRECTION_BLOCK`` directions covering ``count``; the remainder joins the last one."""
    cuts = [i * DIRECTION_BLOCK for i in range(max(1, count // DIRECTION_BLOCK))] + [count]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _norm_pass(a: np.ndarray, p: float, points: np.ndarray, grad: bool = False, work: np.ndarray | None = None):
    """(||A x||_p, gradient columns or None) for each row x of ``points``, in row chunks of A.

    Each chunk of ``_ROW_CHUNK`` rows adds its share of sum |Ax|^p and, with
    ``grad``, of A^T (sign(Ax) |Ax|^(p-1)); the 1/p root and the division of the
    gradient by ||Ax||_p^(p-1) come after the last chunk.  Column i of the
    gradient is the gradient of x -> ||Ax||_p at row i of ``points``.  Callers
    pass one block of :func:`_direction_blocks` at a time, so the chunk
    temporaries are at most ``_ROW_CHUNK`` x 511.

    At p outside {1, 2} each entry y of A x is raised to a power once: the
    signed weight w = sign(y) |y|^(p-1) gives sum |y|^p as the row sum of w y
    and is also the gradient's weight.  The one ``**`` runs numpy's sqrt loop
    at p = 1.5 and its square loop at p = 3; at p = 4, w is y y y.  With or
    without ``grad`` the norm is computed the same way, so every batched norm
    rounds alike.

    ``work`` holds the chunk's A x and its elementwise transform, shape
    (2, min(n, _ROW_CHUNK), len(points)).  A caller that makes many passes
    passes one buffer to all of them: freeing fresh temporaries after every
    pass let the C allocator hand their pages back to the system, and a 2000 x
    16 ascent with 48 starts then spent most of its time in page faults.
    """
    if work is None:
        work = np.empty((2, min(a.shape[0], _ROW_CHUNK), points.shape[0]))
    total = gcols = None
    for lo in range(0, a.shape[0], _ROW_CHUNK):
        ac = a[lo : lo + _ROW_CHUNK]
        y = np.matmul(ac, points.T, out=work[0, : ac.shape[0]])
        w = work[1, : ac.shape[0]]
        if p == 1:
            part = np.abs(y, out=w).sum(axis=0)
            if grad:
                np.sign(y, out=w)
        elif p == 2:
            part = np.multiply(y, y, out=w).sum(axis=0)
            w = y
        else:
            if p == 4:
                np.multiply(np.multiply(y, y, out=w), y, out=w)
            else:
                np.abs(y, out=w)
                w **= p - 1.0
                np.copysign(w, y, out=w)
            part = np.einsum("ij,ij->j", w, y)
        total = part if total is None else np.add(total, part, out=total)
        if grad:
            gpart = ac.T @ w
            gcols = gpart if gcols is None else np.add(gcols, gpart, out=gcols)
    if p == 1:
        return total, gcols
    z = np.sqrt(total) if p == 2 else total ** (1.0 / p)
    if grad:
        gcols /= z if p == 2 else z ** (p - 1.0)
    return z, gcols


def pnorms(a: np.ndarray, p: float, points: np.ndarray) -> np.ndarray:
    """||A x||_p for each row x of ``points``.

    The directions go through :func:`_norm_pass` one block of
    :func:`_direction_blocks` at a time, and each block streams A in row
    chunks, so no temporary grows with n or with the number of directions.
    """
    points = np.atleast_2d(points)
    return np.concatenate([_norm_pass(a, p, points[b])[0] for b in _direction_blocks(points.shape[0])])


@dataclass(frozen=True)
class LevelSet:
    """The convex body L = {x in R^d : ||Ax||_p <= 1} for A of full column rank.

    ``r`` is A's R-only QR factor, whose singular values give the rank test
    and ``sigma_min``.
    """

    a: np.ndarray
    p: float
    r: np.ndarray = field(init=False, repr=False)
    sigma_min: float = field(init=False)

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        check_p(self.p)
        a = frozen(a)
        r = r_factor(a)
        s = full_rank_singular_values(r)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", frozen(r))
        object.__setattr__(self, "sigma_min", float(s[-1]))

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def norms(self, points: np.ndarray) -> np.ndarray:
        """||A x||_p for each row of ``points``."""
        return pnorms(self.a, self.p, points)

    def boundary(self, directions: np.ndarray) -> np.ndarray:
        """Scale each row direction onto the boundary ||Ax||_p = 1."""
        pts = np.atleast_2d(np.asarray(directions, dtype=float))
        return pts / self.norms(pts)[:, None]


@dataclass(frozen=True)
class Ellipsoid:
    """E = {x : (x - c)^T F^-1 (x - c) <= 1} with F symmetric positive definite."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        c = as_vector(self.center, name="center")
        f = as_matrix(self.shape, "shape")
        if f.shape[0] != f.shape[1] or f.shape[0] != c.shape[0]:
            raise ShapeMismatch(f"center/shape dimensions disagree: {c.shape} vs {f.shape}")
        cholesky(f)  # raises NotPositiveDefinite when F is not PD
        sign, logdet = np.linalg.slogdet(f)
        if sign <= 0 or not np.isfinite(logdet):
            raise NotPositiveDefinite(f"shape matrix determinant is not positive (sign {sign}, log {logdet})")
        object.__setattr__(self, "center", frozen(c.reshape(-1)))
        object.__setattr__(self, "shape", frozen(0.5 * (f + f.T)))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def quadratic_form(self, points: np.ndarray) -> np.ndarray:
        """(x - c)^T F^-1 (x - c) for each row of ``points``."""
        diff = np.atleast_2d(points) - self.center
        sol = np.linalg.solve(self.shape, diff.T)
        return np.einsum("ij,ji->i", diff, sol)


@dataclass(frozen=True)
class LownerConfig:
    """The solver's fixed constants; :func:`lowner` has no settings.

    The cut stage and the final check test the vertices of (1/d)(E - c) + c,
    the factor the shallow-cut loop is stated with (``contraction_factor``).
    The solver's budgets are fixed by d and n: the cut stage makes at most
    min(8 d^2, max(32, 2e8 / (4 n d^2))) cuts, and refinement runs at most
    50 + 5 d column-generation rounds with ``_ORACLE_ITERS`` ascent
    iterations per start, stopping at relative tolerance ``_REFINE_TOL``.
    ``slack`` is the fixed relative margin of the reported distortion
    sqrt(d) (1 + slack).  The class has no fields: passing one is a
    ``TypeError`` that names it.
    """

    slack: ClassVar[float] = 0.1

    @staticmethod
    def contraction_factor(d: int) -> float:
        return 1.0 / d


@dataclass(frozen=True)
class LownerResult:
    """Output of :func:`lowner`.

    D holds the reciprocal semi-axis lengths sorted non-increasing, V the
    matching orthonormal axis directions (columns), and ``ellipsoid`` the
    certified enclosing ellipsoid itself (origin-centered).  ``logdet_trace``
    records ln det(F) after the initial ball and after every cut; the raw
    determinant underflows float64 for thin high-dimensional level sets.  At
    p = 2 no cut runs, so the trace is empty, the iteration counts are 0, and
    a test that the trace strictly decreases (as ``lplr check`` makes) holds
    vacuously.
    The cut iterate is recentered at the origin after every cut, so the cut
    stage makes only shallow cuts and ``iterations_central`` is always 0; the
    field stays because the report schema carries it.
    """

    D: np.ndarray
    V: np.ndarray
    ellipsoid: Ellipsoid
    iterations_central: int
    iterations_shallow: int
    iterations_refine: int
    logdet_trace: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "D", frozen(np.asarray(self.D, dtype=float).reshape(-1)))
        object.__setattr__(self, "V", frozen(self.V))
        object.__setattr__(self, "logdet_trace", frozen(np.asarray(self.logdet_trace, dtype=float).reshape(-1)))


def initial_ball(level: LevelSet) -> Ellipsoid:
    """Origin-centered ball guaranteed to contain the level set.

    ||Ax||_p >= n^{-max(0, 1/2 - 1/p)} sigma_min(A) ||x||_2, so the radius
    r = n^{max(0, 1/2 - 1/p)} / sigma_min(A) suffices.  The shape matrix
    carries r^2 on the diagonal because the ellipsoid's unit level set must
    be the ball itself.
    """
    n = level.a.shape[0]
    r = n ** max(0.0, 0.5 - 1.0 / level.p) / level.sigma_min
    d = level.dim
    return Ellipsoid(np.zeros(d), r * r * np.eye(d))


def subgradient(level: LevelSet, x) -> np.ndarray:
    """A subgradient of x -> ||Ax||_p at x, requiring Ax != 0.

    g = ||Ax||_p^{1-p} A^T (sign(Ax) |Ax|^{p-1}); by homogeneity g.x equals
    ||Ax||_p, which is what makes the supporting slab |g.y| <= 1 tight on the
    boundary point x / ||Ax||_p.
    """
    x = as_vector(x, level.dim, "x")
    y = level.a @ x
    norm = vector_pnorm(y, level.p)
    if norm <= 0.0:
        raise ZeroGradient("||Ax||_p is zero; no separating direction at x")
    weights = np.sign(y) * np.abs(y) ** (level.p - 1.0)
    return (norm ** (1.0 - level.p)) * (level.a.T @ weights)


def _shallow_update(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Shallow cut of the shape matrix F along h; returns F', unvalidated.

    The cut removes the slab beyond margin 1/(d+1) of the support:
    F' = zeta sigma (F - tau b b^T) with b = F h / sqrt(h^T F h),
    sigma = d^3(d+2)/((d+1)^3(d-1)), zeta = 1 + 1/(2 d^2 (d+1)^2) and
    tau = 2/(d(d+1)); the center would move by -b/(d+1)^2, but the cut stage
    recenters at the origin.  Requires d >= 2.
    """
    d = f.shape[0]
    sigma = d**3 * (d + 2.0) / ((d + 1.0) ** 3 * (d - 1.0))
    zeta = 1.0 + 1.0 / (2.0 * d * d * (d + 1.0) ** 2)
    tau = 2.0 / (d * (d + 1.0))
    fh = f @ h
    hfh = float(h @ fh)
    if hfh <= 0.0:
        raise NotPositiveDefinite("H^T F H <= 0; shape matrix lost definiteness")
    b = fh / math.sqrt(hfh)
    return zeta * sigma * (f - tau * np.outer(b, b))


def _vertices(center: np.ndarray, f: np.ndarray, factor: float) -> np.ndarray:
    """The 2d vertices c +- factor sqrt(l_i) q_i; rejects an F with a non-positive eigenvalue."""
    try:
        eigvals, eigvecs = np.linalg.eigh(f)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"eigendecomposition of the shape matrix failed: {exc}") from None
    if eigvals[0] <= 0:
        raise NotPositiveDefinite("shape matrix has non-positive eigenvalue")
    axes = factor * np.sqrt(eigvals)[None, :] * eigvecs  # column i spans axis i
    return np.concatenate([center + axes.T, center - axes.T], axis=0)


def contracted_vertices(e: Ellipsoid, factor: float) -> np.ndarray:
    """Vertices of factor * (E - c) + c: the 2d points c +- factor sqrt(l_i) q_i."""
    return _vertices(e.center, e.shape, factor)


def _cut_phase(level: LevelSet):
    """Ellipsoid-method stage: returns (ellipsoid, central, shallow, dets, contacts).

    The iterate is recentered at the origin after every cut.  For centrally
    symmetric L inside E(F, c), both x and -x lie in E, and averaging the two
    quadratic forms gives x^T F^-1 x <= 1 - c^T F^-1 c, so the move preserves
    the enclosure.  The center therefore stays in L, every cut is a shallow
    cut and ``central`` is 0.  The iterate is a raw symmetric matrix F: the
    eigh of the vertex test rejects a non-positive eigenvalue, the slogdet
    recorded in ``dets`` rejects a non-positive or non-finite determinant,
    and the returned F goes through the validating Ellipsoid constructor.
    """
    n, d = level.a.shape
    gamma = LownerConfig.contraction_factor(d)
    # Each cut costs O(n d^2) for the vertex test; a fixed shallow cut only
    # shrinks ln det(F) by ~1/(2 d^3), so on large instances the flop
    # allowance hands over to the refinement stage early.
    budget = min(8 * d * d, max(32, int(2e8 / (4.0 * n * d * d))))
    f = initial_ball(level).shape
    dets = [float(np.linalg.slogdet(f)[1])]
    contacts: list[np.ndarray] = []
    origin = np.zeros(d)
    shallow = 0
    while shallow < budget:
        verts = _vertices(origin, f, gamma)
        norms = level.norms(verts)
        worst = int(np.argmax(norms))
        if norms[worst] <= 1.0 + VERTEX_TOL:
            break  # all contracted vertices inside L
        v = verts[worst]
        contacts.append(v / norms[worst])
        g = subgradient(level, v)
        gfg = float(g @ (f @ g))
        if math.sqrt(max(gfg, 0.0)) / (d + 1.0) < 1.0:
            # The fixed shallow cut would clip the supporting slab |g.x| <= 1,
            # which is tight on L; stop cutting and let refinement take over.
            break
        f = _shallow_update(f, g / np.max(np.abs(g)))
        f = 0.5 * (f + f.T)
        sign, logdet = np.linalg.slogdet(f)
        if sign <= 0 or not np.isfinite(logdet):
            raise NotPositiveDefinite(f"shape matrix determinant is not positive (sign {sign}, log {logdet})")
        shallow += 1
        dets.append(float(logdet))
    return Ellipsoid(origin, f), 0, shallow, dets, contacts


def _scatter_inverse(points: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M^-1 for the weighted scatter M = sum_i w_i x_i x_i^T, and the leverages x_i^T M^-1 x_i."""
    minv = np.linalg.inv(points.T @ (w[:, None] * points))
    return minv, np.einsum("ij,jk,ik->i", points, minv, points)


def _fw_sweep(points: np.ndarray, w: np.ndarray, tol: float, budget: int):
    """Frank-Wolfe / away steps for max log det sum_i w_i x_i x_i^T.

    Leverages and the inverse scatter are maintained by rank-1 updates.
    Returns (w, M_inverse, leverages, steps_used).
    """
    d = points.shape[1]
    minv, lev = _scatter_inverse(points, w)
    steps = 0
    while steps < budget:
        j_fw = int(np.argmax(lev))
        gain_fw = lev[j_fw] - d
        masked = np.where(w > 1e-14, lev, np.inf)
        j_aw = int(np.argmin(masked))
        gain_aw = d - masked[j_aw] if np.isfinite(masked[j_aw]) else -np.inf
        if max(gain_fw, gain_aw) <= tol * d:
            break
        if gain_fw >= gain_aw:
            j, hj = j_fw, lev[j_fw]
            lam = (hj - d) / (d * (hj - 1.0))
        else:
            j, hj = j_aw, lev[j_aw]
            if w[j] >= 1.0 - 1e-12:
                break  # nothing left to shift weight to
            if hj <= 1.0 + 1e-12:
                lam = -w[j] / (1.0 - w[j])  # line search pushes the point out entirely
            else:
                lam = max((hj - d) / (d * (hj - 1.0)), -w[j] / (1.0 - w[j]))
        x = points[j]
        mx = minv @ x
        denom = 1.0 - lam + lam * hj
        z = points @ mx
        minv = (minv - (lam / denom) * np.outer(mx, mx)) / (1.0 - lam)
        lev = (lev - (lam / denom) * z * z) / (1.0 - lam)
        w *= 1.0 - lam
        w[j] += lam
        np.maximum(w, 0.0, out=w)
        steps += 1
    w /= w.sum()
    minv, lev = _scatter_inverse(points, w)
    return w, minv, lev, steps


def _mvee_weights(points: np.ndarray, w: np.ndarray, tol: float, max_steps: int):
    """Optimal weights for the origin-centered MVEE of the symmetric set {+-x_i}.

    A short Frank-Wolfe sweep localizes the support, then Newton steps on the
    support (with the simplex constraint eliminated through its multiplier)
    polish the weights; support leverages equal d at the optimum.  Plain FW
    zigzags sublinearly near degenerate supports, which is why the Newton
    stage exists.  Returns (w, M_inverse, leverages, steps_used).
    """
    d = points.shape[1]
    w = np.asarray(w, dtype=float)
    w = w / w.sum()
    # A short coarse sweep localizes the support; Newton does the real work.
    w, minv, lev, steps = _fw_sweep(points, w, 1e-2, min(max_steps, 300))

    def logdet():
        return float(np.linalg.slogdet(points.T @ (w[:, None] * points))[1])

    for _ in range(120):
        if steps >= max_steps:
            break
        j_top = int(np.argmax(lev))
        support = np.flatnonzero(w > 1e-13)
        gap_hi = lev[j_top] - d
        gap_lo = d - lev[support].min()
        if gap_hi <= tol * d and gap_lo <= tol * d:
            break
        if w[j_top] <= 1e-13:
            # a zero-weight point protrudes: classic FW step brings it in
            hj = lev[j_top]
            lam = (hj - d) / (d * (hj - 1.0))
            w *= 1.0 - lam
            w[j_top] += lam
            minv, lev = _scatter_inverse(points, w)
            steps += 1
            continue
        xs = points[support]
        s = xs @ minv @ xs.T
        grad = np.diag(s).copy()
        hess = -(s * s)
        k = support.size
        # Tiny Tikhonov term: the Hessian is singular whenever the support is
        # redundant (more points than d(d+1)/2 or near-duplicates).
        hess[np.diag_indices(k)] -= 1e-10 * max(1.0, float(np.abs(np.diag(hess)).max()))
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = hess
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([-grad, [0.0]])
        try:
            delta = np.linalg.solve(kkt, rhs)[:k]
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        if not np.all(np.isfinite(delta)):
            w, minv, lev, used = _fw_sweep(points, w, tol, min(max_steps - steps, 200))
            steps += used
            continue
        neg = delta < 0
        # Full steps onto the w >= 0 boundary zero the blocking weight exactly,
        # so the active set shrinks instead of decaying geometrically.
        t_max = 1.0 if not neg.any() else min(1.0, float(np.min(-w[support][neg] / delta[neg])))
        base = logdet()
        w_old = w.copy()
        t = t_max
        improved = False
        for _ in range(40):
            w = w_old.copy()
            w[support] += t * delta
            np.maximum(w, 0.0, out=w)
            w /= w.sum()
            if logdet() >= base - 1e-14:
                improved = True
                break
            t *= 0.5
        if not improved:
            w = w_old
            w, minv, lev, used = _fw_sweep(points, w, tol, min(max_steps - steps, 200))
            steps += used
            continue
        minv, lev = _scatter_inverse(points, w)
        steps += 1
    return w, minv, lev, steps


def _ascend(level: LevelSet, minv: np.ndarray, starts: np.ndarray, iters: int):
    """Multi-start projected ascent of x^T M^-1 x over the boundary of L.

    ``starts`` has unit rows and ``iters`` is at least 1; returns (values,
    boundary points) for the best iterate of every start.  The objective is
    scale-invariant, so iterates live on the unit sphere and are mapped to the
    boundary only on output, by the norm the iterate was scored with.  Each
    iteration is one :func:`_norm_pass` over A per block of
    :func:`_direction_blocks`, written into full-width norm and gradient
    arrays through one shared work buffer, so no temporary exceeds
    ``_ROW_CHUNK`` x 511 however many starts come in.  The rest of a step runs
    full width: numpy picks the memory layout of the moved iterates from the
    array's width and their row norms round by it, so an ascent per block
    would change last bits.  All ``iters`` iterates are scored, and the last
    one is scored without a gradient and not moved, since no result reads a
    further step.
    """
    u = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    count = u.shape[0]
    blocks = _direction_blocks(count)
    best_val = np.full(count, -np.inf)
    best_u = u.copy()
    z = np.empty(count)
    gcols = np.empty((level.dim, count))
    # One buffer as wide as the widest (last) block, viewed as contiguous (2, rows, width) arrays.
    rows = min(level.a.shape[0], _ROW_CHUNK)
    flat = np.empty(2 * rows * (blocks[-1].stop - blocks[-1].start))
    works = [flat[: 2 * rows * (b.stop - b.start)].reshape(2, rows, b.stop - b.start) for b in blocks]
    step = 0.25
    for it in range(iters):
        last = it == iters - 1
        for b, work in zip(blocks, works):
            z[b], g = _norm_pass(level.a, level.p, u[b], grad=not last, work=work)
            if not last:
                gcols[:, b] = g
        qu = (minv @ u.T).T
        j = np.einsum("ij,ij->i", u, qu) / (z * z)
        improved = j > best_val
        best_val[improved] = j[improved]
        best_u[improved] = u[improved]
        # best_u starts as the first iterate, so a start that never improves
        # keeps its z; z is overwritten each iteration, so keep a copy.
        best_z = np.where(improved, z, best_z) if it else z.copy()
        if last:
            break
        grad = qu - (j * z)[:, None] * gcols.T
        gnorm = np.linalg.norm(grad, axis=1, keepdims=True)
        u = u + step * grad / np.maximum(gnorm, 1e-30)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        step *= 0.93
    return best_val, best_u / best_z[:, None]


def _refine(level: LevelSet, seed_ellipsoid: Ellipsoid, contacts: list[np.ndarray]):
    """Column-generation stage; returns (M_inverse, fw_steps)."""
    d = level.dim
    eigvals, eigvecs = np.linalg.eigh(seed_ellipsoid.shape)
    starts0 = [np.eye(d), eigvecs.T]
    if contacts:
        starts0.append(np.asarray(contacts[-4 * d :]))
    pts = level.boundary(np.concatenate(starts0, axis=0))
    w = np.full(pts.shape[0], 1.0 / pts.shape[0])

    max_refine = 200 * d * d + 4000  # total Frank-Wolfe steps
    max_outer = 50 + 5 * d
    n_starts = min(256, max(64, 4 * d))
    fw_steps = 0
    minv = None
    kappa = np.inf
    n = level.a.shape[0]
    # Ascent cost is _ORACLE_ITERS * starts * O(n d); cap the batch on big inputs.
    start_cap = max(d + 8, min(4 * n_starts, int(3e9 / (_ORACLE_ITERS * 4.0 * n * d))))
    for outer in range(max_outer):
        w, minv, lev, steps = _mvee_weights(pts, w, _INNER_TOL, max_refine - fw_steps)
        fw_steps += steps
        keep = w > 1e-14
        if keep.sum() >= d and not keep.all():
            pts, w = pts[keep], w[keep] / w[keep].sum()
            lev = lev[keep]
        n_random = max(2 * d, n_starts - pts.shape[0] - d) if outer < 2 else d
        rand = philox(_PROBE_SEED, stream=outer + 1).standard_normal((n_random, d))
        warm = pts if pts.shape[0] <= 2 * d else pts[np.argsort(lev)[::-1][: 2 * d]]
        # Under a tight start budget: warm contact points first, then the
        # ellipsoid axes, then random exploration.
        c_warm = min(warm.shape[0], max(d // 2, start_cap // 2))
        c_eig = min(d, (start_cap - c_warm) // 2)
        c_rand = max(0, start_cap - c_warm - c_eig)
        starts = np.concatenate(
            [warm[:c_warm], np.linalg.eigh(minv)[1].T[::-1][:c_eig], rand[:c_rand]], axis=0
        )
        vals, cand = _ascend(level, minv, starts, _ORACLE_ITERS)
        kappa = float(np.max(vals))
        if kappa <= d * (1.0 + _REFINE_TOL) or fw_steps >= max_refine:
            break
        # Harvest every distinct ascended maximum above the threshold: the
        # sliding warm starts make old contact points go slack (weight zero)
        # and the prune above retires them on the next round.
        order = np.argsort(vals)[::-1]
        fresh: list[np.ndarray] = []
        base_norms = np.linalg.norm(pts, axis=1)
        for idx in order[: 4 * d]:
            if vals[idx] <= d * (1.0 + 0.25 * _REFINE_TOL):
                break
            x = cand[idx]
            xn = np.linalg.norm(x)
            cos_old = np.abs(pts @ x) / (base_norms * xn)
            cos_new = (
                np.abs(np.asarray(fresh) @ x) / (np.linalg.norm(fresh, axis=1) * xn)
                if fresh
                else np.zeros(1)
            )
            if max(cos_old.max(), cos_new.max()) < 1.0 - 1e-9:
                fresh.append(x)
        if not fresh:
            break  # oracle keeps rediscovering existing contacts; converged in practice
        pts = np.concatenate([pts, np.asarray(fresh)], axis=0)
        w = np.concatenate([w, np.zeros(len(fresh))])
    else:
        raise NoConvergence(
            f"refinement exceeded {max_outer} column-generation rounds (kappa/d = {kappa / d:.6f})"
        )
    if fw_steps >= max_refine and kappa > d * (1.0 + _REFINE_TOL):
        raise NoConvergence(f"refinement exceeded {max_refine} Frank-Wolfe steps")
    return minv, fw_steps


def _certified_shape(level: LevelSet, minv: np.ndarray) -> np.ndarray:
    """Scale M so E = {x : x^T F^-1 x <= 1} covers every verified boundary point."""
    n, d = level.a.shape
    rng = philox(_PROBE_SEED, stream=0)
    dirs = rng.standard_normal((_VERIFY_SAMPLES, d))
    vals_s, pts_s = _ascend(level, minv, dirs, 4)  # a few polish steps per sample
    top = max(d + 8, int(3e9 / (2.0 * _ORACLE_ITERS * 4.0 * n * d)))
    starts = np.concatenate([np.linalg.eigh(minv)[1].T, pts_s[np.argsort(vals_s)[-min(4 * d, top) :]]], axis=0)
    vals_a, _ = _ascend(level, minv, starts, 2 * _ORACLE_ITERS)
    qmax = float(max(vals_s.max(), vals_a.max()))
    scale = qmax * (1.0 + _CERT_MARGIN)
    return np.linalg.inv(minv) * scale


def _extract_axes(shape: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, V) via the Cholesky route: D are the singular values of chol(F^-1).

    G G^T = F^-1 means the left singular vectors of G are the axis directions
    of E and the singular values are the reciprocal semi-axis lengths, already
    sorted non-increasing.
    """
    g = cholesky(np.linalg.inv(shape))
    v, dvals, _ = svd(g)
    signs = np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return dvals, v * signs


def lowner(a, p: float, cfg: LownerConfig | None = None) -> LownerResult:
    """Loewner ellipsoid of {x : ||Ax||_p <= 1} as a (D, V) pair.

    ``a`` may also be a :class:`LevelSet`, used as it is; ``p`` must then
    equal its p, or :class:`InvalidP` names both.  ``cfg`` changes nothing:
    :class:`LownerConfig` has no settings, and the budgets and the 1/d vertex
    contraction are fixed.  Requires d >= 2 and A of full column rank.  At
    p = 2 the result is A's SVD in closed form (see the module docstring).
    Otherwise raises NoConvergence when the fixed budgets are exhausted
    before the contracted-vertex test and the refinement tolerance are met;
    the exception carries the best iterate.
    """
    if isinstance(a, LevelSet):
        if p != a.p:
            raise InvalidP(f"p = {p!r} differs from the level set's p = {a.p!r}")
        level = a
    else:
        level = LevelSet(as_matrix(a, "a"), p)
    if level.dim < 2:
        raise DimensionTooSmall("lowner requires dimension >= 2")

    if level.p == 2:
        # D and V come from the SVD of A's R: recovered from F, D would lose
        # relative accuracy that grows like cond(A)^2.
        _, s, v = svd(level.r)
        dvals = s / math.sqrt(1.0 + _CERT_MARGIN)
        final = Ellipsoid(np.zeros(level.dim), (v / (dvals * dvals)) @ v.T)
        central = shallow = fw_steps = 0
        dets = []
    else:
        e_cut, central, shallow, dets, contacts = _cut_phase(level)
        try:
            minv, fw_steps = _refine(level, e_cut, contacts)
        except NoConvergence as exc:
            if exc.best is None:
                dvals, v = _extract_axes(e_cut.shape)
                exc.best = LownerResult(
                    D=dvals,
                    V=v,
                    ellipsoid=e_cut,
                    iterations_central=central,
                    iterations_shallow=shallow,
                    iterations_refine=0,
                    logdet_trace=np.asarray(dets),
                )
            raise
        shape = _certified_shape(level, minv)
        if np.linalg.slogdet(shape)[1] > dets[-1]:
            shape = e_cut.shape  # refinement never improved on the rigorous cut iterate
        final = Ellipsoid(np.zeros(level.dim), shape)
        dvals, v = _extract_axes(final.shape)

    verts = contracted_vertices(final, LownerConfig.contraction_factor(level.dim))
    result = LownerResult(
        D=dvals,
        V=v,
        ellipsoid=final,
        iterations_central=central,
        iterations_shallow=shallow,
        iterations_refine=fw_steps,
        logdet_trace=np.asarray(dets),
    )
    if float(np.max(level.norms(verts))) > 1.0 + VERTEX_TOL:
        raise NoConvergence("contracted vertices escape the level set after refinement", best=result)
    return result
