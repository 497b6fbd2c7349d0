"""Independent oracles used to derive expected values in the test suite.

Apart from ``reference_cut_loop``, ``reference_ascend`` and
``reference_lewis``, none of these
call back into ``lplr``'s numerical paths: eigenvalues come from a classical
Jacobi rotation sweep, Cholesky from textbook elimination, gradients from
central finite differences, minimum-volume enclosing ellipsoids from a
plain Khachiyan iteration on an explicit point set, and the smallest
sandwich ratio of a conditioner from a projected descent in the input's own
orthonormal basis.  ``reference_cut_loop``
is the cut stage composed only of the public, validating ellipsoid
primitives and of ``shallow_cut``, the textbook shallow-cut update written
out here on its own, against which the raw-array loop in ``lplr.lowner`` is
compared bit for bit.  ``reference_ascend`` is the untrimmed ascent oracle, which
computes every gradient and moves every iterate, against which
``lplr.lowner._ascend`` is compared bit for bit.  ``reference_lewis`` is the
Lewis fixed point that runs an R-only QR at every step, against which
``lplr.lpsvd._sketch``, which runs a QR only at its first and last steps, is
compared.
"""

from __future__ import annotations

import math

import numpy as np

from lplr.errors import DimensionTooSmall, NoConvergence, NotPositiveDefinite, RankDeficient, ShapeMismatch
from lplr.lowner import VERTEX_TOL, Ellipsoid, contracted_vertices, initial_ball, subgradient
from lplr.lpsvd import _LEWIS_ITERS, _LEWIS_TOL, _TINY
from lplr.matcore import qr


def pnorm_pow_loops(a, p):
    """Entry-wise |a_ij|^p sum via an explicit double loop."""
    a = np.asarray(a, dtype=float)
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += abs(a[i, j]) ** p
    return total


def jacobi_eigvalsh(s, sweeps=100, tol=1e-13):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Deliberately not numpy.linalg: this is the independent eigen-solver the
    SVD tests compare singular values against (as roots of the characteristic
    polynomial of A^T A).
    """
    a = np.array(s, dtype=float, copy=True)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, t = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = t
                rot[q, p] = -t
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def hand_cholesky(f):
    """Textbook lower-triangular Cholesky elimination."""
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    g = np.zeros_like(f)
    for i in range(n):
        for j in range(i + 1):
            s = sum(g[i, k] * g[j, k] for k in range(j))
            if i == j:
                pivot = f[i, i] - s
                if pivot <= 0:
                    raise ValueError("not positive definite")
                g[i, j] = np.sqrt(pivot)
            else:
                g[i, j] = (f[i, j] - s) / g[j, j]
    return g


def central_diff_grad(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def khachiyan_mvee(points, tol=1e-9, max_iter=200000):
    """Minimum-volume enclosing ellipsoid of a finite point set.

    Plain Khachiyan barycentric-coordinate iteration on the lifted point set;
    returns (center, shape) with the ellipsoid {x : (x-c)^T shape^-1 (x-c) <= 1},
    so the eigenvalues of ``shape`` are the squared semi-axis lengths.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    q = np.hstack([pts, np.ones((n, 1))])
    u = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        x = q.T @ (u[:, None] * q)
        lev = np.einsum("ij,jk,ik->i", q, np.linalg.inv(x), q)
        j = int(np.argmax(lev))
        kappa = lev[j]
        step = (kappa - d - 1.0) / ((d + 1.0) * (kappa - 1.0))
        if step <= tol:
            break
        u = (1.0 - step) * u
        u[j] += step
    center = pts.T @ u
    cov = pts.T @ (u[:, None] * pts) - np.outer(center, center)
    return center, d * cov


def mvee_axis_reciprocals(points, tol=1e-9):
    """Sorted (descending) reciprocals of the MVEE semi-axis lengths."""
    _, shape = khachiyan_mvee(points, tol=tol)
    eigvals = np.linalg.eigvalsh(shape)
    return np.sort(1.0 / np.sqrt(eigvals))[::-1]


def best_projection_residual_sq(a, k, trials, seed):
    """Smallest ||A - A Q Q^T||_F^2 over random rank-k orthonormal bases.

    A Monte Carlo lower-bound probe: no random projection should ever beat
    the SVD truncation.
    """
    a = np.asarray(a, dtype=float)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(trials):
        q, _ = np.linalg.qr(rng.standard_normal((a.shape[1], k)))
        resid = a - (a @ q) @ q.T
        best = min(best, float(np.sum(resid * resid)))
    return best


def shallow_cut(e, h):
    """Shallow-cut update of the Ellipsoid e: removes a slab beyond margin 1/(d+1) of the support.

    Uses the fixed coefficients z = 1/(d+1)^2, sigma = d^3(d+2)/((d+1)^3(d-1)),
    zeta = 1 + 1/(2 d^2 (d+1)^2), tau = 2/(d(d+1)): with b = F h / sqrt(h^T F h)
    the center moves by -z b and F becomes zeta sigma (F - tau b b^T).
    Undefined for d = 1.
    """
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape[0] != e.dim:
        raise ShapeMismatch(f"h must have length {e.dim}, got {h.shape[0]}")
    if not np.any(h):
        raise ShapeMismatch("cut direction must be nonzero")
    d = e.dim
    if d < 2:
        raise DimensionTooSmall("shallow cuts require dimension >= 2")
    z = 1.0 / (d + 1.0) ** 2
    sigma = d**3 * (d + 2.0) / ((d + 1.0) ** 3 * (d - 1.0))
    zeta = 1.0 + 1.0 / (2.0 * d * d * (d + 1.0) ** 2)
    tau = 2.0 / (d * (d + 1.0))
    fh = e.shape @ h
    hfh = float(h @ fh)
    if hfh <= 0.0:
        raise NotPositiveDefinite("H^T F H <= 0")
    b = fh / math.sqrt(hfh)
    return Ellipsoid(e.center - z * b, zeta * sigma * (e.shape - tau * np.outer(b, b)))


def reference_cut_loop(level):
    """The shallow-cut stage built from validated Ellipsoid iterates.

    Every cut goes through ``shallow_cut`` and is recentered at the origin by
    constructing ``Ellipsoid(0, shape)``, so each iterate passes the
    constructor's Cholesky and determinant checks.  Returns (ellipsoid,
    shallow cuts, ln det trace, contact points).
    """
    n, d = level.a.shape
    gamma = 1.0 / d
    budget = min(200 * d * d, 8 * d * d, max(32, int(2e8 / (4.0 * n * d * d))))
    e = initial_ball(level)
    dets = [float(np.linalg.slogdet(e.shape)[1])]
    contacts = []
    cuts = 0
    while cuts < budget:
        verts = contracted_vertices(e, gamma)
        norms = level.norms(verts)
        worst = int(np.argmax(norms))
        if norms[worst] <= 1.0 + VERTEX_TOL:
            break
        v = verts[worst]
        contacts.append(v / norms[worst])
        g = subgradient(level, v)
        gfg = float(g @ (e.shape @ g))
        margin = float(g @ e.center) + math.sqrt(max(gfg, 0.0)) / (d + 1.0)
        if margin < 1.0:
            break
        e = Ellipsoid(np.zeros(d), shallow_cut(e, g / np.max(np.abs(g))).shape)
        cuts += 1
        dets.append(float(np.linalg.slogdet(e.shape)[1]))
    return e, cuts, dets, contacts


def reference_ascend(level, minv, starts, iters):
    """Multi-start projected ascent of x^T M^-1 x over the boundary of L.

    The plain loop: every iteration computes |Ax| and its gradient and moves
    the iterate, including the last one, whose step no result reads.
    Returns (values, boundary points) for the best iterate of every start.
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
            # The signed weight sign(y) |y|^(p-1): sum |y|^p is sum w y.
            w = y * y * y if p == 4 else np.sign(y) * absy ** (p - 1.0)
            z = np.einsum("ij,ij->j", w, y) ** (1.0 / p)
            gcols = (a.T @ w) / z ** (p - 1.0)
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


def whitened_lower_ratio(a, p, r, starts, iters, seed):
    """Smallest ||Ax||_p / ||Rx||_2 found by multi-start projected descent.

    The descent runs in A's QR basis: with A = Q R_A and x = R_A^-1 y the
    ratio is ||Qy||_p / ||R R_A^-1 y||_2, whose numerator is the p-norm of a
    unit-2-norm vector's image under an orthonormal Q, so the search is as
    well conditioned at cond(A) = 1e9 as at 1.  Each of ``starts`` random unit
    y (from ``seed``) takes ``iters`` normalized steps down the tangential
    gradient of the log ratio with a geometrically shrinking step, and the
    best iterate of every start is kept.  Returns (ratio, witness x).
    """
    a = np.asarray(a, dtype=float)
    q, ra = np.linalg.qr(a)
    t = np.linalg.solve(ra.T, np.asarray(r, dtype=float).T).T  # R R_A^-1
    y = np.random.default_rng(seed).standard_normal((starts, a.shape[1]))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    best_val = np.full(starts, np.inf)
    best_y = y.copy()
    step = 0.5
    for _ in range(iters):
        qy = y @ q.T
        absqy = np.abs(qy)
        num = (absqy**p).sum(axis=1)
        ty = y @ t.T
        den = (ty * ty).sum(axis=1)
        val = num ** (1.0 / p) / np.sqrt(den)
        better = val < best_val
        best_val[better] = val[better]
        best_y[better] = y[better]
        grad = ((np.sign(qy) * absqy ** (p - 1.0)) @ q) / num[:, None] - (ty @ t) / den[:, None]
        grad -= np.einsum("ij,ij->i", grad, y)[:, None] * y
        y = y - step * grad / np.maximum(np.linalg.norm(grad, axis=1, keepdims=True), 1e-300)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        step *= 0.97
    j = int(np.argmin(best_val))
    return float(best_val[j]), np.linalg.solve(ra, best_y[j])


@np.errstate(divide="ignore", over="ignore")
def reference_lewis(a, p):
    """Lewis-weighted factor (R, lo, hi) of A with one R-only QR of diag(s) A per step.

    The fixed point of ``lplr.lpsvd._sketch`` as it ran before its middle
    steps moved to A's whitened basis: every step factors B = S A by QR and
    reads tau_i = ||a_i R^-1||^2, and the constants of the last step whose
    leverage constant is a finite normal number stand.  ``_sketch`` with
    every Cholesky failing is this function bit for bit.
    """
    rows = a[np.any(a != 0.0, axis=1)]
    if rows.shape[0] < a.shape[1]:
        raise RankDeficient("conditioner requires a matrix of full column rank")
    e = 0.5 - 1.0 / p
    alpha = min(0.5, 4.0 / (p + 2.0))
    w = np.ones(rows.shape[0])
    good = None
    for it in range(_LEWIS_ITERS):
        s = w**e
        s[w == 0] = 0.0
        try:
            r = qr(rows * s[:, None])
            rinv = np.linalg.inv(r)
        except (RankDeficient, np.linalg.LinAlgError):
            if it == 0:
                raise RankDeficient("conditioner requires a matrix of full column rank") from None
            break
        if it == 0:
            sv = np.linalg.svd(r, compute_uv=False)
            if sv[-1] <= 1e-10 * sv[0]:
                raise RankDeficient("conditioner requires a matrix of full column rank")
        u = rows @ rinv
        tau = np.einsum("ij,ij->i", u, u)
        pos = s > 0
        g = tau[pos] ** (p / 2.0 - 1.0) / (s[pos] * s[pos])
        wsum = float(w.sum())
        t = float(np.sum(tau[~pos] ** (p / 2.0)))
        if p <= 2:
            gk = float(g.min())
            lo, hi = gk ** (1.0 / p), wsum**-e + t ** (1.0 / p)
            w = tau ** (p / 2.0)
        else:
            gk = float(g.max()) + t
            lo, hi = wsum**-e, gk ** (1.0 / p)
            w = w ** (1.0 - alpha) * tau ** (alpha * p / 2.0)
        if _TINY <= gk < np.inf and hi < np.inf:
            good = r, lo, hi
        w[tau < _TINY] = 0.0
        if not np.all(np.isfinite(w)) or np.max(np.abs(w[pos] ** e / s[pos] - 1.0)) <= _LEWIS_TOL:
            break
    if good is None:
        raise NoConvergence(f"Lewis fixed point at p = {p}: every step's leverage constant overflowed or underflowed")
    return good
