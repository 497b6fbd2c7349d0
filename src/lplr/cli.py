"""Command-line interface.

Subcommands:

- ``synth``      generate a synthetic planted-low-rank matrix file
- ``factorize``  lp low-rank factorization (deterministic or randomized)
- ``baseline``   the SVD rank-k baseline
- ``sweep``      evaluate a (k, p, method) grid in parallel, one merged report
- ``check``      run the internal verifications on a factorization

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfig, InvalidP, LplrError
from .factor import Method, factorize, l2_svd, orient, truncate_factorization
from .lowner import LevelSet, LownerConfig, contracted_vertices, lowner
from .lpsvd import LpSvd, gaussian_norms, sandwich_check
from .matcore import check_p
from .matio import load_matrix, store_matrix
from .report import _build_report, _error_sums, report_to_json
from .rng import philox
from .synth import SyntheticSpec, generate_synthetic


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the CLI contract wants 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lplr", description="lp-norm low-rank matrix approximation")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic matrix file")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--d", type=int, required=True)
    synth.add_argument("--k-true", type=int, required=True)
    synth.add_argument("--outliers", type=float, default=0.0, help="outlier row fraction in [0,1)")
    synth.add_argument("--outlier-scale", type=float, default=20.0)
    synth.add_argument(
        "--noise",
        type=float,
        default=0.01,
        help="noise sigma; the default keeps the matrix full rank (pass 0 for an exactly rank-k-true matrix)",
    )
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)

    def add_common(p):
        p.add_argument("--input", required=True)
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", default=None)
        p.add_argument("--out-left", default=None)
        p.add_argument("--out-right", default=None)

    fact = sub.add_parser("factorize", help="lp low-rank factorization")
    add_common(fact)
    fact.add_argument("--p", type=float, required=True)
    fact.add_argument("--method", choices=[m.value for m in Method], default="lowner")

    base = sub.add_parser("baseline", help="SVD rank-k baseline")
    add_common(base)
    base.add_argument("--p", type=float, default=2.0, help="norm used for the reported error")
    base.set_defaults(method=Method.SVD.value)

    sweep = sub.add_parser("sweep", help="evaluate a (k, p, method) grid")
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--ks", required=True, help="comma-separated ranks")
    sweep.add_argument("--ps", required=True, help="comma-separated norm exponents")
    sweep.add_argument("--methods", default="lowner,svd", help="comma-separated methods")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--report", required=True)
    sweep.add_argument("--csv", default=None, help="also write rate/error rows as CSV")

    check = sub.add_parser("check", help="verify a factorization's invariants")
    check.add_argument("--input", required=True)
    check.add_argument("--p", type=float, required=True)
    check.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n=args.n,
        d=args.d,
        k_true=args.k_true,
        outlier_fraction=args.outliers,
        noise_sigma=args.noise,
        outlier_scale=args.outlier_scale,
        seed=args.seed,
    )
    store_matrix(args.out, generate_synthetic(spec))
    print(f"wrote {args.n}x{args.d} matrix to {args.out}")
    return 0


def _write_outputs(args, approx, report) -> None:
    if args.out_left:
        store_matrix(args.out_left, approx.left)
    if args.out_right:
        store_matrix(args.out_right, approx.right)
    text = report_to_json(report)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _check_p(p: float, flag: str) -> None:
    try:
        check_p(p)
    except InvalidP:
        raise _UsageError(f"{flag} must be a finite number >= 1, got {p}") from None


def _cmd_factorize(args) -> int:
    """``factorize``, and ``baseline``, whose parser fixes ``method`` to svd: a sweep of one row."""
    _check_p(args.p, "--p")
    a = load_matrix(args.input)
    if not 1 <= args.rank <= min(a.shape) - 1:
        raise _UsageError(f"--rank must be in [1, {min(a.shape) - 1}] for a {a.shape[0]}x{a.shape[1]} input")
    method = Method(args.method)
    shared = _Shared.of(a, [args.rank], [args.p])
    if method is Method.SVD:
        fac, part = shared.svd, shared.svd_part(args.p)
    else:
        fac, part = _factorization(a, [args.rank], args.p, method)
    [report] = shared.reports(part, args.seed)
    _write_outputs(args, truncate_factorization(fac, args.rank, shared.transposed), report)
    return 0


@dataclass(frozen=True)
class _Part:
    """What one (p, method) factorization adds to its sweep rows.

    (D, V) enter the sandwich check, and ``ranks`` holds (k, wall ms,
    error_pp) per rank.  U and the approximations stay where the
    factorization ran.
    """

    p: float
    method: Method
    D: np.ndarray
    V: np.ndarray
    iterations: dict
    ranks: list


def _truncations(a, fac, ks, ps, transposed, base_ms):
    """(k, wall ms, sum |A - A_k|^p at each p of ``ps``) per rank k of ``fac``.

    A rank's wall time is ``base_ms``, the factorization's, plus its
    truncation time.  One residual per rank serves every p.
    """
    out = []
    for k in ks:
        t0 = time.perf_counter()
        approx = truncate_factorization(fac, k, transposed)
        wall_ms = base_ms + (time.perf_counter() - t0) * 1e3
        out.append((k, wall_ms, _error_sums(a, approx, ps)))
    return out


def _factorization(a, ks, p, method):
    """(factorization, its part) of one non-svd (p, method) job."""
    oriented, transposed = orient(a)
    start = time.perf_counter()
    fac = factorize(oriented, p, method)
    base_ms = (time.perf_counter() - start) * 1e3
    ranks = [(k, ms, err) for k, ms, [err] in _truncations(a, fac, ks, [p], transposed, base_ms)]
    return fac, _Part(p, method, fac.D, fac.V, fac.iterations, ranks)


def _sweep_job(payload):
    """The part of one non-svd sweep job ``(a, ks, p, method)``."""
    return _factorization(*payload)[1]


@dataclass(frozen=True)
class _Shared:
    """What every row of a sweep of ``a`` shares, computed once.

    ``svd`` is the SVD of the oriented input, and ``svd_ms`` maps k to the
    wall time of an svd row (the SVD plus that truncation).  ``baseline``
    maps (k, p) to sum |A - A_k|^p of the SVD's rank-k truncation, which is
    an svd row's error and every other row's baseline.  ``gaussian`` maps p
    to the Gaussian numerators of the sandwich check.  ``view`` is the
    array the sandwich is checked on: the transposed view of a wide input,
    not the contiguous copy, because it is the array evaluate() reads, and
    the two can round differently in the sandwich products.
    """

    view: np.ndarray
    transposed: bool
    svd: LpSvd
    svd_ms: dict
    baseline: dict
    gaussian: dict

    @classmethod
    def of(cls, a, ks, ps):
        oriented, transposed = orient(a)
        start = time.perf_counter()
        svd = l2_svd(oriented)
        base_ms = (time.perf_counter() - start) * 1e3
        del oriented  # a wide input's contiguous copy: the sums read ``a``, the sandwich its view
        ranks = _truncations(a, svd, ks, ps, transposed, base_ms)
        view = a.T if transposed else a
        return cls(
            view=view,
            transposed=transposed,
            svd=svd,
            svd_ms={k: ms for k, ms, _ in ranks},
            baseline={(k, p): err for k, _, errs in ranks for p, err in zip(ps, errs)},
            gaussian={p: gaussian_norms(view, p) for p in ps},
        )

    def svd_part(self, p) -> _Part:
        """The svd factorization's part at p: each rank's error is its own baseline."""
        ranks = [(k, ms, self.baseline[k, p]) for k, ms in self.svd_ms.items()]
        return _Part(p, Method.SVD, self.svd.D, self.svd.V, self.svd.iterations, ranks)

    def reports(self, part: _Part, seed: int) -> list:
        p = part.p
        sandwich = sandwich_check(self.view, p, part.D, part.V, self.gaussian[p])
        return [
            _build_report(self.view.shape[0], part.D, k, p, part.method, part.iterations,
                          (err, self.baseline[k, p]), sandwich, ms, seed)
            for k, ms, err in part.ranks
        ]


def _cmd_sweep(args) -> int:
    """``sweep``: every (k, p, method) row of the grid, each equal to evaluate()'s report.

    The pool runs the lowner and randomized (p, method) jobs, each one
    factorization and its own error sums (:func:`_sweep_job`).  Meanwhile
    the parent computes what every row shares (:class:`_Shared`); then it
    runs each factorization's sandwich check and builds all rows.
    """
    try:
        ks = sorted({int(s) for s in args.ks.split(",") if s})
        ps = sorted({float(s) for s in args.ps.split(",") if s})
        methods = {Method(s.strip()) for s in args.methods.split(",") if s}
    except (ValueError, InvalidConfig) as exc:
        raise _UsageError(str(exc)) from None
    for flag, values in (("--ks", ks), ("--ps", ps), ("--methods", methods)):
        if not values:
            raise _UsageError(f"{flag} must list at least one value")
    for p in ps:
        _check_p(p, "every --ps value")
    if args.workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {args.workers}")
    a = load_matrix(args.input)
    for k in ks:
        if not 1 <= k <= min(a.shape) - 1:
            raise _UsageError(f"rank {k} out of range for a {a.shape[0]}x{a.shape[1]} input")
    # Costliest jobs first: the pool starts jobs in submission order, so a long
    # job submitted last runs while the other workers sit idle.  lowner solves
    # cost most, then the randomized conditioner's Lewis fixed point.  Within
    # a method, p outside {1, 2} goes first, then p = 1, and p = 2 last, where
    # both lowner and the conditioner are closed forms; among p outside
    # {1, 2}, larger p first.  A randomized job at 20000x32 with 8 ranks
    # takes 0.15-0.25 s at p = 1, 1.5, 3 and 4 and 0.08-0.14 s at p = 2 (one
    # BLAS thread, synth seeds 5000 and 41000).  Rows are sorted after the
    # pool, so the order never reaches the output.
    cost = {Method.LOWNER: 0, Method.RANDOMIZED: 1}
    tier = {1.0: 1, 2.0: 2}
    jobs = sorted(((p, m) for p in ps for m in methods if m is not Method.SVD),
                  key=lambda j: (cost[j[1]], tier.get(j[0], 0), -j[0]))
    payloads = [(a, ks, p, m) for p, m in jobs]
    if args.workers > 1 and payloads:
        # The workers fork at the first submission, before the parent
        # allocates the SVD and its residuals, which it computes while they run.
        with ProcessPoolExecutor(max_workers=min(args.workers, len(payloads))) as pool:
            pending = pool.map(_sweep_job, payloads)
            shared = _Shared.of(a, ks, ps)
            parts = list(pending)
    else:
        shared = _Shared.of(a, ks, ps)
        parts = [_sweep_job(payload) for payload in payloads]
    if Method.SVD in methods:
        parts += [shared.svd_part(p) for p in ps]
    results = sorted(
        (asdict(rep) for part in parts for rep in shared.reports(part, args.seed)),
        key=lambda r: (r["k"], r["p"], r["method"]),
    )
    with open(args.report, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    if args.csv:
        lines = ["k,p,method,compression_rate,error_pp,error_l2_baseline"]
        for rep in results:
            lines.append(
                f"{rep['k']},{rep['p']},{rep['method']},{rep['compression_rate']:.17g},"
                f"{rep['error_pp']:.17g},{rep['error_l2_baseline']:.17g}"
            )
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(results)} reports to {args.report}")
    return 0


def _cmd_check(args) -> int:
    _check_p(args.p, "--p")
    a = load_matrix(args.input)
    if a.shape[0] < a.shape[1]:
        a = a.T
    level = LevelSet(a, args.p)
    res = lowner(level, args.p)
    checks = []

    verts = contracted_vertices(res.ellipsoid, LownerConfig.contraction_factor(level.dim))
    checks.append(("contracted vertices inside level set", float(np.max(level.norms(verts))) <= 1.0 + 1e-6))

    dirs = philox(args.seed, stream=3).standard_normal((1000, level.dim))
    boundary = level.boundary(dirs)
    checks.append(("sampled boundary inside ellipsoid", float(np.max(res.ellipsoid.quadratic_form(boundary))) <= 1.0 + 1e-6))

    dets = res.logdet_trace
    checks.append(("det(F) strictly decreasing across cuts", bool(np.all(np.diff(dets) < 0))))

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 2


_COMMANDS = {
    "synth": _cmd_synth,
    "factorize": _cmd_factorize,
    "baseline": _cmd_factorize,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (LplrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
