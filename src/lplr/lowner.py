"""Minimum-volume enclosing (Loewner) ellipsoid of {x : ||Ax||_p <= 1}.

The level set L of a full-rank A and p >= 1 is a centrally symmetric convex
body.  Its Loewner ellipsoid E = {x : x^T V D^T D V^T x <= 1} yields the
diagonal D (reciprocal semi-axis lengths) and orthogonal basis V used by the
||.||_p-SVD factorization: shrinking E by sqrt(d) gives an inscribed
ellipsoid, hence ||D V^T x||_2 <= ||Ax||_p <= sqrt(d) ||D V^T x||_2.

:func:`lowner` runs two stages:

1. an ellipsoid-method cut loop: classic central cuts while the center is
   outside L, then shallow cuts driven by the vertices of the contracted
   iterate.  Fixed-margin shallow cuts are applied only while provably safe
   (the kept half-space must cover the supporting slab |g.x| <= 1, which is
   tight for the subgradient g at an escaped vertex); every cut strictly
   shrinks det(F) and keeps L enclosed.
2. a log-det refinement: column generation over boundary contact points.
   Frank-Wolfe steps (with away steps) maximize log det of the weighted
   scatter of the working set, while a multi-start ascent oracle hunts the
   boundary point most protruding from the current candidate.  The cut loop
   alone stalls at a sqrt(d)-quality certificate; this stage is what drives
   D and V to the actual minimum-volume ellipsoid.

The final ellipsoid is certified by rescaling to the largest quadratic form
value observed over ascent maxima plus a dense boundary sample, so the
enclosure L inside E holds at every checked point with margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionTooSmall,
    NoConvergence,
    NotPositiveDefinite,
    RankDeficient,
    ShapeMismatch,
    SvdFailure,
    ZeroGradient,
)
from .matcore import as_matrix, as_vector, cholesky, frozen, svd, vector_pnorm
from .rng import philox

#: Directions per block in the batched norm sweeps, which bounds their n x block
#: temporaries on tall inputs.  The remainder joins the last block: with OpenBLAS
#: 0.3.31 at one thread, blocks of 256 plus a tail of at least 256 reproduced the
#: single product bit for bit on every C-ordered shape tried, while a narrow tail
#: block often changed the last bit (the GEMM kernel depends on the block's shape).
DIRECTION_BLOCK = 256


def pnorms(a: np.ndarray, p: float, points: np.ndarray) -> np.ndarray:
    """||A x||_p for each row x of ``points``, in direction blocks when there are many."""
    points = np.atleast_2d(points)
    count = points.shape[0]
    if count >= 2 * DIRECTION_BLOCK:
        cuts = list(range(0, count - DIRECTION_BLOCK + 1, DIRECTION_BLOCK)) + [count]
        return np.concatenate([pnorms(a, p, points[i:j]) for i, j in zip(cuts, cuts[1:])])
    y = np.abs(a @ points.T)
    if p == 1:
        return y.sum(axis=0)
    if p == 2:
        return np.sqrt((y * y).sum(axis=0))
    return (y**p).sum(axis=0) ** (1.0 / p)


@dataclass(frozen=True)
class LevelSet:
    """The convex body L = {x in R^d : ||Ax||_p <= 1} for a full-rank A."""

    a: np.ndarray
    p: float
    membership_tol: float = 1e-9
    sigma_min: float = field(init=False)
    sigma_max: float = field(init=False)

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        if self.p < 1:
            from .errors import InvalidP

            raise InvalidP(f"p must be >= 1, got {self.p}")
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] <= 1e-10 * s[0]:
            raise RankDeficient("level set requires a matrix of full column rank")
        object.__setattr__(self, "a", frozen(a))
        object.__setattr__(self, "sigma_min", float(s[-1]))
        object.__setattr__(self, "sigma_max", float(s[0]))

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
    """Tunable knobs for :func:`lowner`.

    contraction: "inv-d" tests the vertices of (1/d)(E - c) + c, the factor
    the shallow-cut loop is stated with; "inv-sqrt-d" is the sharper factor
    available for centrally symmetric bodies.
    """

    contraction: str = "inv-d"
    vertex_tol: float = 1e-7
    center_tol: float = 1e-8
    max_cuts: int | None = None  # default 200 d^2
    phase1_cuts: int | None = None  # default min(max_cuts, 8 d^2)
    refine_tol: float = 5e-3
    inner_tol: float = 1e-7
    max_refine: int | None = None  # total Frank-Wolfe steps, default 200 d^2 + 4000
    max_outer: int | None = None  # column-generation rounds, default 50 + 5 d
    oracle_starts: int | None = None
    oracle_iters: int = 60
    verify_samples: int = 4096
    probe_seed: int = 24251
    slack: float = 0.1

    def contraction_factor(self, d: int) -> float:
        if self.contraction == "inv-d":
            return 1.0 / d
        if self.contraction == "inv-sqrt-d":
            return 1.0 / math.sqrt(d)
        raise ValueError(f"unknown contraction {self.contraction!r}")


@dataclass(frozen=True)
class LownerResult:
    """Output of :func:`lowner`.

    D holds the reciprocal semi-axis lengths sorted non-increasing, V the
    matching orthonormal axis directions (columns), and ``ellipsoid`` the
    certified enclosing ellipsoid itself (origin-centered).  ``logdet_trace``
    records ln det(F) after the initial ball and after every cut; the raw
    determinant underflows float64 for thin high-dimensional level sets.
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


def member(level: LevelSet, x, tol: float | None = None) -> bool:
    """Whether ||Ax||_p <= 1 + tol (tol defaults to the level set's)."""
    x = as_vector(x, level.dim, "x")
    limit = 1.0 + (level.membership_tol if tol is None else tol)
    return vector_pnorm(level.a @ x, level.p) <= limit


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


def _cut_vector(e: Ellipsoid, h: np.ndarray) -> np.ndarray:
    fh = e.shape @ h
    hfh = float(h @ fh)
    if hfh <= 0.0:
        raise NotPositiveDefinite("H^T F H <= 0; shape matrix lost definiteness")
    return fh / math.sqrt(hfh)


def central_cut(e: Ellipsoid, h) -> Ellipsoid:
    """Classic ellipsoid-method update through the center, cutting off {H.x > H.c}."""
    h = as_vector(h, e.dim, "h")
    if not np.any(h):
        raise ShapeMismatch("cut direction must be nonzero")
    d = e.dim
    b = _cut_vector(e, h)
    center = e.center - b / (d + 1.0)
    shape = (d * d / (d * d - 1.0)) * (e.shape - (2.0 / (d + 1.0)) * np.outer(b, b))
    return Ellipsoid(center, shape)


def shallow_cut(e: Ellipsoid, h) -> Ellipsoid:
    """Shallow-cut update: removes a slab beyond margin 1/(d+1) of the support.

    Uses the fixed coefficients z = 1/(d+1)^2, sigma = d^3(d+2)/((d+1)^3(d-1)),
    zeta = 1 + 1/(2 d^2 (d+1)^2), tau = 2/(d(d+1)).  Undefined for d = 1.
    """
    h = as_vector(h, e.dim, "h")
    if not np.any(h):
        raise ShapeMismatch("cut direction must be nonzero")
    d = e.dim
    if d < 2:
        raise DimensionTooSmall("shallow cuts require dimension >= 2")
    z = 1.0 / (d + 1.0) ** 2
    sigma = d**3 * (d + 2.0) / ((d + 1.0) ** 3 * (d - 1.0))
    zeta = 1.0 + 1.0 / (2.0 * d * d * (d + 1.0) ** 2)
    tau = 2.0 / (d * (d + 1.0))
    b = _cut_vector(e, h)
    shape = zeta * sigma * (e.shape - tau * np.outer(b, b))
    center = e.center - z * b
    return Ellipsoid(center, shape)


def contracted_vertices(e: Ellipsoid, factor: float) -> np.ndarray:
    """Vertices of factor * (E - c) + c: the 2d points c +- factor sqrt(l_i) q_i."""
    try:
        eigvals, eigvecs = np.linalg.eigh(e.shape)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"eigendecomposition of the shape matrix failed: {exc}") from None
    if eigvals[0] <= 0:
        raise NotPositiveDefinite("shape matrix has non-positive eigenvalue")
    axes = factor * np.sqrt(eigvals)[None, :] * eigvecs  # column i spans axis i
    return np.concatenate([e.center + axes.T, e.center - axes.T], axis=0)


def _recentered(e: Ellipsoid) -> Ellipsoid:
    # For centrally symmetric L contained in E(F, c), both x and -x lie in E,
    # and averaging the two quadratic forms gives x^T F^-1 x <= 1 - c^T F^-1 c.
    # Moving the center to the origin therefore preserves the enclosure.
    if not np.any(e.center):
        return e
    return Ellipsoid(np.zeros(e.dim), e.shape)


def _cut_phase(level: LevelSet, cfg: LownerConfig):
    """Ellipsoid-method stage: returns (ellipsoid, central, shallow, dets, contacts)."""
    n, d = level.a.shape
    gamma = cfg.contraction_factor(d)
    budget_total = cfg.max_cuts if cfg.max_cuts is not None else 200 * d * d
    if cfg.phase1_cuts is not None:
        budget = min(budget_total, cfg.phase1_cuts)
    else:
        # Each cut costs O(n d^2) for the vertex test; a fixed shallow cut only
        # shrinks ln det(F) by ~1/(2 d^3), so on large instances the flop
        # allowance hands over to the refinement stage early.
        budget = min(budget_total, 8 * d * d, max(32, int(2e8 / (4.0 * n * d * d))))
    e = initial_ball(level)
    dets = [float(np.linalg.slogdet(e.shape)[1])]
    contacts: list[np.ndarray] = []
    central = shallow = 0
    while central + shallow < budget:
        if not member(level, e.center, cfg.vertex_tol):
            g = subgradient(level, e.center)
            e = _recentered(central_cut(e, g / np.max(np.abs(g))))
            central += 1
            dets.append(float(np.linalg.slogdet(e.shape)[1]))
            continue
        verts = contracted_vertices(e, gamma)
        norms = level.norms(verts)
        worst = int(np.argmax(norms))
        if norms[worst] <= 1.0 + cfg.vertex_tol:
            break  # all contracted vertices inside L
        v = verts[worst]
        contacts.append(v / norms[worst])
        g = subgradient(level, v)
        gfg = float(g @ (e.shape @ g))
        margin = float(g @ e.center) + math.sqrt(max(gfg, 0.0)) / (d + 1.0)
        if margin < 1.0:
            # The fixed shallow cut would clip the supporting slab |g.x| <= 1,
            # which is tight on L; stop cutting and let refinement take over.
            break
        e = _recentered(shallow_cut(e, g / np.max(np.abs(g))))
        shallow += 1
        dets.append(float(np.linalg.slogdet(e.shape)[1]))
    return _recentered(e), central, shallow, dets, contacts


def _fw_sweep(points: np.ndarray, w: np.ndarray, tol: float, budget: int):
    """Frank-Wolfe / away steps for max log det sum_i w_i x_i x_i^T.

    Leverages and the inverse scatter are maintained by rank-1 updates.
    Returns (w, M_inverse, leverages, steps_used).
    """
    d = points.shape[1]

    def rebuild():
        mat = points.T @ (w[:, None] * points)
        minv = np.linalg.inv(mat)
        lev = np.einsum("ij,jk,ik->i", points, minv, points)
        return minv, lev

    minv, lev = rebuild()
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
        np.clip(w, 0.0, None, out=w)
        steps += 1
        if steps % 512 == 0:
            w /= w.sum()
            minv, lev = rebuild()
    w /= w.sum()
    minv, lev = rebuild()
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

    def rebuild():
        mat = points.T @ (w[:, None] * points)
        mi = np.linalg.inv(mat)
        return mi, np.einsum("ij,jk,ik->i", points, mi, points)

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
            minv, lev = rebuild()
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
            np.clip(w, 0.0, None, out=w)
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
        minv, lev = rebuild()
        steps += 1
    return w, minv, lev, steps


def _ascend(level: LevelSet, minv: np.ndarray, starts: np.ndarray, iters: int):
    """Multi-start projected ascent of x^T M^-1 x over the boundary of L.

    ``starts`` has unit rows; returns (values, boundary points) for the best
    iterate of every start.  The objective is scale-invariant, so iterates
    live on the unit sphere and are mapped to the boundary only on output.
    """
    u = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    p = level.p
    a = level.a
    best_val = np.full(u.shape[0], -np.inf)
    best_u = u.copy()
    step = 0.25
    for _ in range(iters):
        y = a @ u.T
        absy = np.abs(y)
        if p == 1:
            z = absy.sum(axis=0)
            gcols = a.T @ np.sign(y)
        elif p == 2:
            z = np.sqrt((absy * absy).sum(axis=0))
            gcols = (a.T @ y) / z
        else:
            z = (absy**p).sum(axis=0) ** (1.0 / p)
            gcols = (a.T @ (np.sign(y) * absy ** (p - 1.0))) / z ** (p - 1.0)
        qu = (minv @ u.T).T
        j = np.einsum("ij,ij->i", u, qu) / (z * z)
        improved = j > best_val
        best_val[improved] = j[improved]
        best_u[improved] = u[improved]
        grad = qu - (j * z)[:, None] * gcols.T
        gnorm = np.linalg.norm(grad, axis=1, keepdims=True)
        u = u + step * grad / np.maximum(gnorm, 1e-30)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        step *= 0.93
    return best_val, level.boundary(best_u)


def _p2_extreme_direction(level: LevelSet, minv: np.ndarray) -> np.ndarray:
    # At p = 2 the most protruding boundary direction is the top generalized
    # eigenvector of (M^-1, A^T A); solved exactly through a Cholesky change
    # of basis so the refinement cannot stall on ascent quality.
    lb = np.linalg.cholesky(level.a.T @ level.a)
    inner = np.linalg.solve(lb, np.linalg.solve(lb, minv.T).T)
    _, vecs = np.linalg.eigh(0.5 * (inner + inner.T))
    x = np.linalg.solve(lb.T, vecs[:, -1])
    return x / np.linalg.norm(x)


def _refine(level: LevelSet, seed_ellipsoid: Ellipsoid, contacts: list[np.ndarray], cfg: LownerConfig):
    """Column-generation stage; returns (M_inverse, fw_steps)."""
    d = level.dim
    eigvals, eigvecs = np.linalg.eigh(seed_ellipsoid.shape)
    starts0 = [np.eye(d), eigvecs.T]
    if contacts:
        starts0.append(np.asarray(contacts[-4 * d :]))
    pts = level.boundary(np.concatenate(starts0, axis=0))
    w = np.full(pts.shape[0], 1.0 / pts.shape[0])

    max_refine = cfg.max_refine if cfg.max_refine is not None else 200 * d * d + 4000
    max_outer = cfg.max_outer if cfg.max_outer is not None else 50 + 5 * d
    n_starts = cfg.oracle_starts if cfg.oracle_starts is not None else min(256, max(64, 4 * d))
    fw_steps = 0
    minv = None
    kappa = np.inf
    n = level.a.shape[0]
    # Ascent cost is oracle_iters * starts * O(n d); cap the batch on big inputs.
    start_cap = max(d + 8, min(4 * n_starts, int(3e9 / (cfg.oracle_iters * 4.0 * n * d))))
    for outer in range(max_outer):
        w, minv, lev, steps = _mvee_weights(pts, w, cfg.inner_tol, max_refine - fw_steps)
        fw_steps += steps
        keep = w > 1e-14
        if keep.sum() >= d and not keep.all():
            pts, w = pts[keep], w[keep] / w[keep].sum()
            lev = lev[keep]
        n_random = max(2 * d, n_starts - pts.shape[0] - d) if outer < 2 else d
        rand = philox(cfg.probe_seed, stream=outer + 1).standard_normal((n_random, d))
        warm = pts if pts.shape[0] <= 2 * d else pts[np.argsort(lev)[::-1][: 2 * d]]
        # Under a tight start budget: warm contact points first, then the
        # ellipsoid axes, then random exploration.
        c_warm = min(warm.shape[0], max(d // 2, start_cap // 2))
        c_eig = min(d, (start_cap - c_warm) // 2)
        c_rand = max(0, start_cap - c_warm - c_eig)
        starts = np.concatenate(
            [warm[:c_warm], np.linalg.eigh(minv)[1].T[::-1][:c_eig], rand[:c_rand]], axis=0
        )
        vals, cand = _ascend(level, minv, starts, cfg.oracle_iters)
        if level.p == 2:
            x2 = _p2_extreme_direction(level, minv)
            b2 = level.boundary(x2[None, :])
            vals = np.append(vals, float(b2[0] @ (minv @ b2[0])))
            cand = np.concatenate([cand, b2], axis=0)
        kappa = float(np.max(vals))
        if kappa <= d * (1.0 + cfg.refine_tol) or fw_steps >= max_refine:
            break
        # Harvest every distinct ascended maximum above the threshold: the
        # sliding warm starts make old contact points go slack (weight zero)
        # and the prune above retires them on the next round.
        order = np.argsort(vals)[::-1]
        fresh: list[np.ndarray] = []
        base_norms = np.linalg.norm(pts, axis=1)
        for idx in order[: 4 * d]:
            if vals[idx] <= d * (1.0 + 0.25 * cfg.refine_tol):
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
    if fw_steps >= max_refine and kappa > d * (1.0 + cfg.refine_tol):
        raise NoConvergence(f"refinement exceeded {max_refine} Frank-Wolfe steps")
    return minv, fw_steps


def _certified_shape(level: LevelSet, minv: np.ndarray, cfg: LownerConfig) -> np.ndarray:
    """Scale M so E = {x : x^T F^-1 x <= 1} covers every verified boundary point."""
    n, d = level.a.shape
    rng = philox(cfg.probe_seed, stream=0)
    dirs = rng.standard_normal((cfg.verify_samples, d))
    vals_s, pts_s = _ascend(level, minv, dirs, 4)  # a few polish steps per sample
    top = max(d + 8, int(3e9 / (2.0 * cfg.oracle_iters * 4.0 * n * d)))
    starts = np.concatenate([np.linalg.eigh(minv)[1].T, pts_s[np.argsort(vals_s)[-min(4 * d, top) :]]], axis=0)
    vals_a, _ = _ascend(level, minv, starts, 2 * cfg.oracle_iters)
    qmax = float(max(vals_s.max(), vals_a.max()))
    if level.p == 2:
        x2 = level.boundary(_p2_extreme_direction(level, minv)[None, :])[0]
        qmax = max(qmax, float(x2 @ (minv @ x2)))
    scale = qmax * (1.0 + 1e-9)
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

    Requires d >= 2 and A of full column rank.  Raises NoConvergence when the
    iteration budgets are exhausted before the contracted-vertex test and the
    refinement tolerance are met; the exception carries the best iterate.
    """
    level = a if isinstance(a, LevelSet) else LevelSet(as_matrix(a, "a"), p)
    if level.dim < 2:
        raise DimensionTooSmall("lowner requires dimension >= 2")
    cfg = cfg or LownerConfig()

    e_cut, central, shallow, dets, contacts = _cut_phase(level, cfg)
    try:
        minv, fw_steps = _refine(level, e_cut, contacts, cfg)
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
    shape = _certified_shape(level, minv, cfg)
    if np.linalg.slogdet(shape)[1] > dets[-1]:
        shape = e_cut.shape  # refinement never improved on the rigorous cut iterate
    final = Ellipsoid(np.zeros(level.dim), shape)

    gamma = cfg.contraction_factor(level.dim)
    tol = cfg.vertex_tol if cfg.contraction == "inv-d" else cfg.vertex_tol + 10.0 * cfg.refine_tol
    verts = contracted_vertices(final, gamma)
    dvals, v = _extract_axes(final.shape)
    result = LownerResult(
        D=dvals,
        V=v,
        ellipsoid=final,
        iterations_central=central,
        iterations_shallow=shallow,
        iterations_refine=fw_steps,
        logdet_trace=np.asarray(dets),
    )
    if float(np.max(level.norms(verts))) > 1.0 + tol:
        raise NoConvergence("contracted vertices escape the level set after refinement", best=result)
    if float(np.linalg.norm(final.center)) > cfg.center_tol:
        raise NoConvergence("final center strayed from the origin", best=result)
    return result
