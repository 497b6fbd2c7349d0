"""Independent oracles used to derive expected values in the test suite.

Apart from ``reference_cut_loop``, none of these call back into ``lplr``'s
numerical paths: eigenvalues come from a classical Jacobi rotation sweep,
Cholesky from textbook elimination, gradients from central finite
differences, and minimum-volume enclosing ellipsoids from a plain Khachiyan
iteration on an explicit point set.  ``reference_cut_loop`` is the cut stage
composed only of the public, validating ellipsoid primitives, against which
the raw-array loop in ``lplr.lowner`` is compared bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from lplr.lowner import Ellipsoid, contracted_vertices, initial_ball, shallow_cut, subgradient


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


def reference_cut_loop(level, cfg):
    """The shallow-cut stage built from validated Ellipsoid iterates.

    Every cut goes through ``shallow_cut`` and is recentered at the origin by
    constructing ``Ellipsoid(0, shape)``, so each iterate passes the
    constructor's Cholesky and determinant checks.  Returns (ellipsoid,
    shallow cuts, ln det trace, contact points).
    """
    n, d = level.a.shape
    gamma = cfg.contraction_factor(d)
    budget_total = cfg.max_cuts if cfg.max_cuts is not None else 200 * d * d
    if cfg.phase1_cuts is not None:
        budget = min(budget_total, cfg.phase1_cuts)
    else:
        budget = min(budget_total, 8 * d * d, max(32, int(2e8 / (4.0 * n * d * d))))
    e = initial_ball(level)
    dets = [float(np.linalg.slogdet(e.shape)[1])]
    contacts = []
    cuts = 0
    while cuts < budget:
        verts = contracted_vertices(e, gamma)
        norms = level.norms(verts)
        worst = int(np.argmax(norms))
        if norms[worst] <= 1.0 + cfg.vertex_tol:
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
