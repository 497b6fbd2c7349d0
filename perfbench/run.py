#!/usr/bin/env python3
"""Benchmark of the lplr factorization paths.

Usage, from the repository root:

    python3 perfbench/run.py --workload lowner-small --seed 1 --seconds 35 --trace 0

Workloads (perfbench/NOTES.md says why each was chosen):

- ``lowner-small``  64 ops of lp_low_rank(method=lowner) + evaluate at n=200
- ``lowner-tall``   9 ops of the same at n=2000
- ``sweep-eval``    ``lplr sweep`` over a stored 20000x32 .lplr file

Inputs are planted-outlier matrices from ``lplr.synth``, keyed by ``--seed``.
A pass runs the workload's op list once; passes repeat while another one
fits in ``--seconds`` (there is always at least one).  With ``--trace 0`` the
last line of stdout holds the end-to-end metrics.  With ``--trace 1`` every op
runs twice in a row, untraced and then traced, and the last line holds the
per-layer metrics of the traced runs.  The package under test is imported
from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("lowner-small", "lowner-tall", "sweep-eval")
SETUP_REPEATS = 7
SANDWICH_LO_MIN = 0.999  # acceptance criterion 1's bound
SWEEP_WORKERS = 2

# The report schema the README freezes, in order.
REPORT_FIELDS = (
    "n", "d", "k", "p", "method", "error_pp", "error_l2_baseline", "bound_lower", "bound_upper",
    "bound_upper_stated", "sandwich_lo", "sandwich_hi", "compression_rate", "iterations",
    "wall_time_ms", "seed",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sandwich_lo_mean": "ratio",
    "sandwich_hi_rel_p50": "ratio",
    "vol_ratio_p50": "ratio",
    "err_ratio_gmean": "ratio",
}

PER_LAYER = {
    "lowner.cut_phase.s": "s",
    "lowner.cut_phase.cuts": "count",
    "matcore.cholesky.calls": "count",
    "lowner.mvee_weights.s": "s",
    "lowner.mvee_weights.calls": "count",
    "lowner.fw_steps": "count",
    "lowner.ascend.s": "s",
    "lowner.ascend.calls": "count",
    "lowner.ascend.point_iters": "count",
    "lowner.ascend.gflop": "gflop",
    "lowner.ascend.gflops": "gflop/s",
    "lowner.certify.s": "s",
    "lowner.refine.s": "s",
    "lowner.refine.self_s": "s",
    "lpsvd.randomized_conditioner.s": "s",
    "lpsvd.sketch.s": "s",
    "lpsvd.finish.s": "s",
    "report.evaluate.s": "s",
    "report.evaluate.calls": "count",
    "report.evaluate.self_s": "s",
    "lpsvd.sandwich_check.s": "s",
    "lpsvd.sandwich_check.calls": "count",
    "lpsvd.sandwich_check.useful_calls": "count",
    "factor.l2_low_rank.s": "s",
    "factor.l2_low_rank.calls": "count",
    "factor.l2_low_rank.useful_calls": "count",
    "matcore.svd.calls": "count",
    "matio.load_matrix.s": "s",
    "cli.sweep_job.s": "s",
    "cli.sweep_job.calls": "count",
    "trace.overhead_s": "s",
    "trace.op_s_p50": "s",
    "trace.layer_self_s_p50": "s",
}


def planted(lplr, n: int, d: int, seed: int):
    """The README's planted-outlier model: 5% of rows scaled by 20, noise 0.01, k_true = d/4."""
    return lplr.SyntheticSpec(n=n, d=d, k_true=max(1, d // 4), outlier_fraction=0.05,
                              noise_sigma=0.01, outlier_scale=20.0, seed=seed)


@dataclass(frozen=True)
class Plan:
    """Inputs and ops of one workload.

    ``ops`` holds (matrix index, p) for the lowner workloads and (matrix
    index,) for sweep-eval, whose op sweeps ``sweep_ps`` in one CLI call.
    """

    specs: tuple
    ops: tuple
    sweep_ks: str = ""
    sweep_ps: str = ""
    sweep_methods: str = ""


def make_plan(lplr, workload: str, seed: int, tiny: bool) -> Plan:
    def spec(n, d, j):
        return planted(lplr, n, d, seed * 1000 + j)

    if workload == "sweep-eval":
        if tiny:
            return Plan((spec(60, 6, 0), spec(60, 6, 1)), ((0,), (1,)), "2,3", "1,2", "randomized,svd")
        return Plan((spec(20000, 32, 0),), ((0,),), "2,4,8,12,16,20,24,28", "1,2,4", "randomized,svd")
    if tiny:
        return Plan((spec(60, 6, 0),), ((0, 1.0), (0, 1.5)))
    # Solver work varies a lot between matrices of one shape, so a pass holds
    # several matrices per shape; with fewer, the spread between seeds was
    # wider than the bounds in BENCHMARK.json (NOTES.md has the figures).
    all_p = (1.0, 1.5, 2.0, 4.0)
    if workload == "lowner-small":
        shapes = [(200, 8, all_p)] * 8 + [(200, 16, all_p)] * 8
    else:
        shapes = [(2000, 16, all_p)] * 2 + [(2000, 32, (1.0,))]
    specs = tuple(spec(n, d, j) for j, (n, d, _) in enumerate(shapes))
    return Plan(specs, tuple((j, p) for j, (_, _, ps) in enumerate(shapes) for p in ps))


@dataclass
class Outcome:
    """One op: its time, its reports (as dicts) and the checks it failed.

    ``checked`` is what the op adds to ``attempted``: 1 for a lowner op, the
    number of expected reports for a sweep, each of which is checked alone.
    """

    seconds: float
    reports: list
    failures: list = field(default_factory=list)
    checked: int = 1
    failed: int = 0
    crashed: bool = False
    sigmas: object = None


class Workload:
    """Set-up state and op runner of one workload."""

    def __init__(self, lplr, cli, name: str, seed: int, tiny: bool, workdir: Path):
        import numpy as np

        self.np, self.lplr, self.cli = np, lplr, cli
        self.name, self.seed, self.workdir = name, seed, workdir
        self.plan = make_plan(lplr, name, seed, tiny)
        self.matrices = [lplr.generate_synthetic(s) for s in self.plan.specs]
        # Singular values of each matrix, the reference of vol_ratio_p50.
        self.ref_sigmas = [np.linalg.svd(a, compute_uv=False) for a in self.matrices]
        self.paths = []
        if name == "sweep-eval":
            for i, a in enumerate(self.matrices):
                self.paths.append(workdir / f"a{i}.lplr")
                lplr.store_matrix(self.paths[-1], a)

    # -- ops -------------------------------------------------------------------
    def warm_up(self) -> None:
        """One small op of the workload's kind, outside the timed passes.

        Its 60x6 input is the same for every seed, so that set-up time
        measures imports, input generation and first-call costs rather than
        how hard one seed's matrix happens to be for the solver.
        """
        lplr = self.lplr
        a = lplr.generate_synthetic(planted(lplr, 60, 6, 0))
        try:
            if self.name == "sweep-eval":
                path = self.workdir / "warm.lplr"
                lplr.store_matrix(path, a)
                self._sweep(path, self.workdir / "warm.json", "2", "1", self.plan.sweep_methods, SWEEP_WORKERS)
            else:
                lplr.evaluate(a, lplr.lp_low_rank(a, 3, 1.0, method="lowner"), 1.0)
        except lplr.errors.LplrError:
            pass  # the warm-up only loads code and caches; its result is not scored

    def _sweep(self, path, report, ks, ps, methods, workers) -> int:
        argv = ["sweep", "--input", str(path), "--ks", ks, "--ps", ps, "--methods", methods,
                "--seed", str(self.seed), "--workers", str(workers), "--report", str(report)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(argv)

    def run_op(self, op, tracer=None, workers: int = SWEEP_WORKERS) -> Outcome:
        call = (lambda fn: tracer.span("op", fn)) if tracer else (lambda fn: fn())
        if self.name == "sweep-eval":
            return self._sweep_op(op[0], call, workers)
        return self._lowner_op(op[0], op[1], call)

    def _lowner_op(self, m: int, p: float, call) -> Outcome:
        lplr = self.lplr
        a = self.matrices[m]

        def op():
            start = time.perf_counter()
            approx = lplr.lp_low_rank(a, a.shape[1] // 2, p, method="lowner")
            elapsed_ms = (time.perf_counter() - start) * 1e3
            return approx, lplr.evaluate(a, approx, p, wall_time_ms=elapsed_ms, seed=0)

        start = time.perf_counter()
        try:
            approx, report = call(op)
        except lplr.errors.LplrError as exc:
            return Outcome(time.perf_counter() - start, [None], [f"{type(exc).__name__}: {exc}"], failed=1)
        seconds = time.perf_counter() - start
        rep = asdict(report)
        failures = _check_lp_report(rep, math.sqrt(rep["d"]) * (1.0 + lplr.LownerConfig().slack))
        return Outcome(seconds, [rep], failures, failed=int(bool(failures)), sigmas=approx.sigmas)

    def _sweep_op(self, m: int, call, workers: int) -> Outcome:
        plan = self.plan
        report_path = self.workdir / f"sweep{m}.json"
        ks = [int(s) for s in plan.sweep_ks.split(",")]
        ps = [float(s) for s in plan.sweep_ps.split(",")]
        methods = plan.sweep_methods.split(",")
        expected = len(ks) * len(ps) * len(methods)
        start = time.perf_counter()
        code = call(lambda: self._sweep(self.paths[m], report_path, plan.sweep_ks, plan.sweep_ps,
                                        plan.sweep_methods, workers))
        seconds = time.perf_counter() - start
        if code != 0:
            return Outcome(seconds, [], [f"sweep exited with code {code}"], expected, expected)
        with open(report_path) as fh:
            reports = json.load(fh)
        report_path.unlink()
        grid = sorted((k, p, meth) for k in ks for p in ps for meth in methods)
        got = sorted((r.get("k"), r.get("p"), r.get("method")) for r in reports)
        if got != grid or any(tuple(r) != REPORT_FIELDS for r in reports):
            return Outcome(seconds, reports, [f"sweep report does not hold the {expected} expected entries "
                                              f"with the {len(REPORT_FIELDS)} frozen fields"], expected, expected)
        failures, failed = [], 0
        for rep in reports:
            if rep["method"] == "svd":
                # The baseline is its own reference: both errors come from one computation.
                bad = [] if math.isclose(rep["error_pp"], rep["error_l2_baseline"], rel_tol=1e-12) else [
                    f"svd k={rep['k']} p={rep['p']}: error_pp {rep['error_pp']!r} "
                    f"!= error_l2_baseline {rep['error_l2_baseline']!r}"]
            else:
                # bound_upper = d kappa^p sigma_{k+1}^p: the kappa the randomized bound assumes.
                kappa = (self._bound_factor(rep) / rep["d"]) ** (1.0 / rep["p"])
                bad = _check_lp_report(rep, kappa)
            failures += bad
            failed += bool(bad)
        return Outcome(seconds, reports, failures, expected, failed)

    def _bound_factor(self, rep: dict) -> float:
        """The factor F in the report's bound_upper = F sigma_{k+1}^p."""
        d = rep["d"]
        return self.lplr.error_bounds(self.np.ones(d), rep["k"], rep["p"], d, rep["n"], rep["method"]).upper

    # -- quality -----------------------------------------------------------------
    def quality(self, outcomes: list) -> dict:
        """Quality metrics over the lp-method (not svd) reports of one pass."""
        np = self.np
        lp = [(op, r, o) for op, o in zip(self.plan.ops, outcomes) for r in o.reports
              if r is not None and r["method"] != "svd"]
        if not lp:
            return {}
        if self.name == "sweep-eval":
            # A sweep report holds no sigmas; each one yields sigma_k and
            # sigma_{k+1} from bound_upper_stated and bound_upper.  Below
            # p = 2 the conditioner's p-stable sketch is heavy-tailed: its
            # volume ratio moved by a factor of 5 between seeds, so only the
            # p >= 2 factorizations enter the median.  Every report is still
            # checked and scored by the other metrics.
            axes = defaultdict(dict)  # (matrix, p) -> {0-based axis: sigma}
            for (m,), r, _ in (x for x in lp if x[1]["p"] >= 2.0):
                f = self._bound_factor(r)
                axes[(m, r["p"])][r["k"]] = (r["bound_upper"] / f) ** (1.0 / r["p"])
                axes[(m, r["p"])][r["k"] - 1] = (r["bound_upper_stated"] / f) ** (1.0 / r["p"])
            vols = [self._vol_ratio(m, p, sig) for (m, p), sig in axes.items()]
        else:
            vols = [self._vol_ratio(op[0], r["p"], dict(enumerate(o.sigmas))) for op, r, o in lp]
        return {
            # Capped at 1: a ratio above 1 is slack, not extra containment.
            "sandwich_lo_mean": statistics.fmean(min(r["sandwich_lo"], 1.0) for _, r, _ in lp),
            "sandwich_hi_rel_p50": statistics.median(r["sandwich_hi"] / math.sqrt(r["d"]) for _, r, _ in lp),
            "vol_ratio_p50": statistics.median(vols),
            "err_ratio_gmean": statistics.geometric_mean(r["error_pp"] / r["error_l2_baseline"] for _, r, _ in lp),
        }

    def _vol_ratio(self, m: int, p: float, sigmas: dict) -> float:
        """(vol E / vol E_ref)^(1/d) over the given axes of E = {x : ||D V^T x||_2 <= 1}.

        E_ref = {x : ||Ax||_2 <= n^max(0, 1/2 - 1/p)} encloses the level set
        {x : ||Ax||_p <= 1} for every p >= 1, and its sigmas are A's singular
        values scaled down by that radius.  The ratio is scale-free; the
        Loewner ellipsoid, the smallest enclosing one, keeps it at most 1,
        and a looser ellipsoid raises it.
        """
        np = self.np
        idx = np.array(sorted(sigmas))
        ref = self.ref_sigmas[m][idx] / self.matrices[m].shape[0] ** max(0.0, 0.5 - 1.0 / p)
        return float(np.exp(np.mean(np.log(ref) - np.log([sigmas[i] for i in idx]))))


def _describe(rep: dict) -> str:
    return (f"lo={rep['sandwich_lo']:.4f} hi/sqrt(d)={rep['sandwich_hi'] / math.sqrt(rep['d']):.4f} "
            f"err/l2={rep['error_pp'] / rep['error_l2_baseline']:.4f} iterations={rep['iterations']}")


def _check_lp_report(rep: dict, distortion: float) -> list:
    tag = f"{rep['n']}x{rep['d']} k={rep['k']} p={rep['p']} {rep['method']}"
    failures = []
    if not rep["sandwich_lo"] >= SANDWICH_LO_MIN:
        failures.append(f"{tag}: sandwich_lo {rep['sandwich_lo']:.6f} < {SANDWICH_LO_MIN}")
    if not rep["sandwich_hi"] <= distortion:
        failures.append(f"{tag}: sandwich_hi {rep['sandwich_hi']:.6f} > distortion {distortion:.6f}")
    if not rep["error_pp"] <= rep["bound_upper"]:
        failures.append(f"{tag}: error_pp {rep['error_pp']:.6g} > bound_upper {rep['bound_upper']:.6g}")
    return failures


def _same_reports(report_module, a: list, b: list) -> bool:
    """Reports equal field by field except wall_time_ms, as the README promises."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (ra is None) != (rb is None):
            return False
        if ra is not None and not report_module.reports_equal_modulo_time(
                report_module.EvalReport(**ra), report_module.EvalReport(**rb)):
            return False
    return True


@dataclass
class Pass:
    wall: float
    cpu: float
    outcomes: list


def _guarded(wl: Workload, op, tracer, workers: int) -> Outcome:
    start = time.perf_counter()
    try:
        return wl.run_op(op, tracer, workers)
    except Exception:  # an untyped error is a program defect: count it, keep measuring
        traceback.print_exc()
        return Outcome(time.perf_counter() - start, [], ["untyped exception"], failed=1, crashed=True)


def run_pass(wl: Workload) -> Pass:
    t0, c0 = time.perf_counter(), _cpu_seconds()
    outcomes = [_guarded(wl, op, None, SWEEP_WORKERS) for op in wl.plan.ops]
    return Pass(time.perf_counter() - t0, _cpu_seconds() - c0, outcomes)


def run_paired_pass(wl: Workload, tracer, workers: int) -> tuple[Pass, Pass]:
    """Each op untraced and then traced, back to back, so that slow drift of
    the machine's speed cancels out of the traced-minus-untraced overhead."""
    plain, traced = [], []
    for op in wl.plan.ops:
        plain.append(_guarded(wl, op, None, workers))
        tracer.install()
        try:
            traced.append(_guarded(wl, op, tracer, workers))
        finally:
            tracer.uninstall()
    return (Pass(sum(o.seconds for o in plain), math.nan, plain),
            Pass(sum(o.seconds for o in traced), math.nan, traced))


def timed_passes(fn, seconds: float) -> list:
    """Whole passes while another one fits in ``seconds`` (always at least one)."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(fn())
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _fresh_import() -> None:
    """Start an interpreter that imports the package, as every set-up pays.

    This process imports it only once, so each set-up sample times the
    import in a fresh interpreter instead.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import numpy, lplr, lplr.cli"], cwd=ROOT, check=True,
                   env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=120)


def _cpu_seconds() -> float:
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                resource.getrusage(resource.RUSAGE_CHILDREN)))


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child, if larger."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def header(np, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "lplr").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if none is found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tally(wl: Workload, passes: list) -> tuple[int, int, bool, list]:
    """(attempted, failed, correct, messages) over passes.

    Every op must reproduce the reports of its twin in the first pass; a
    mismatch fails the op and, like an untyped exception, makes the run
    incorrect.  Failed checks of the program's guarantees count in ``failed``.
    """
    report_module = importlib.import_module("lplr.report")
    attempted = failed = 0
    correct = True
    messages = []
    first = passes[0].outcomes
    for ps in passes:
        for op, o, twin in zip(wl.plan.ops, ps.outcomes, first):
            attempted += o.checked
            failed_here = o.failed
            if o.crashed:
                correct = False
            elif o is not twin and not _same_reports(report_module, o.reports, twin.reports):
                messages.append(f"op {op}: reports differ from the first run of the op")
                failed_here = o.checked
                correct = False
            failed += failed_here
            messages += [f"op {op}: {f}" for f in o.failures]
    return attempted, failed, correct, messages


def end_to_end(wl: Workload, setup_s: float, passes: list, attempted: int, failed: int) -> dict:
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }
    values.update(wl.quality(passes[0].outcomes))
    return values


def per_layer(tracer, traced: list, untraced: list) -> dict:
    count = len(traced)
    stats = tracer.summary()
    values = {}
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key in ("s", "calls", "self_s"):
            values[name] = stats.get(layer, {}).get(key, 0.0) / count
    for name in ("lowner.cut_phase.cuts", "lowner.fw_steps", "lowner.ascend.point_iters", "lowner.ascend.gflop"):
        values[name] = tracer.counters.get(name, 0.0) / count
    ascend_s = values["lowner.ascend.s"]
    values["lowner.ascend.gflops"] = values["lowner.ascend.gflop"] / ascend_s if ascend_s > 0 else 0.0
    for layer in ("lpsvd.sandwich_check", "factor.l2_low_rank"):
        # Every pass repeats the same inputs, so the distinct work of all
        # passes is that of one pass.
        values[f"{layer}.useful_calls"] = tracer.useful(layer)
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in untraced))
    roots = sorted(tracer.root_spans("op"))
    values["trace.op_s_p50"], values["trace.layer_self_s_p50"] = roots[(len(roots) - 1) // 2]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="60x6 inputs, two ops (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "lplr" / "__init__.py").is_file():
        print(f"error: {SRC / 'lplr'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    # One BLAS thread, so that sweep-eval's two workers fill two cores
    # without oversubscribing them; set before numpy loads OpenBLAS.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import lplr
    from lplr import cli

    print("# header " + json.dumps(header(np, args)))

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            _fresh_import()
            wl = Workload(lplr, cli, args.workload, args.seed, args.tiny, workdir)
            wl.warm_up()
            setups.append(time.perf_counter() - start)

        if not args.trace:
            passes = timed_passes(lambda: run_pass(wl), args.seconds)
            attempted, failed, correct, messages = tally(wl, passes)
            metrics = end_to_end(wl, statistics.median(setups), passes, attempted, failed)
            units = END_TO_END
            op_times = [o.seconds for p in passes for o in p.outcomes]
            print(f"# op_s_p50 = {statistics.median(op_times):.6g} s over {len(op_times)} ops "
                  f"(informational: the ops differ in shape and p)")
        else:
            from layertrace import Tracer

            # Forked pool workers would lose their spans, so sweep jobs run
            # in-process in both the traced op and its untraced twin.
            workers = 1 if args.workload == "sweep-eval" else SWEEP_WORKERS
            if args.workload == "sweep-eval":
                print("# note: traced sweep-eval runs its jobs in-process (--workers 1), its untraced twin too")
            tracer = Tracer()
            pairs = timed_passes(lambda: run_paired_pass(wl, tracer, workers), args.seconds)
            untraced, traced = [p[0] for p in pairs], [p[1] for p in pairs]
            passes = untraced + traced
            attempted, failed, correct, messages = tally(wl, passes)
            metrics = per_layer(tracer, traced, untraced)
            units = PER_LAYER
            print(f"# traced op_s_p50 {metrics['trace.op_s_p50']:.4f} s; summed layer self time of that op "
                  f"{metrics['trace.layer_self_s_p50']:.4f} s; trace overhead {metrics['trace.overhead_s']:.4f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for op, o in zip(wl.plan.ops, passes[0].outcomes):
        spec = wl.plan.specs[op[0]]
        p = op[1] if len(op) > 1 else wl.plan.sweep_ps
        print(f"# op {spec.n}x{spec.d} synth-seed={spec.seed} p={p} {o.seconds:.4f} s "
              + " ".join(_describe(r) for r in o.reports[:1] if r is not None))
    for msg in dict.fromkeys(messages):
        print(f"# failed: {msg}")
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"# no value for {missing}", file=sys.stderr)
        correct = False
    for name in units:
        if name in metrics:
            print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
