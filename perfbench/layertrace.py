"""Per-layer spans for the traced benchmark run, recorded from outside lplr.

Every wrapped function is replaced by a wrapper that records one span
(name, start, end, parent) per call, and optionally a few counters read from
the call's arguments or result.  The library is never edited: the wrapper is
bound into every ``lplr`` module attribute that holds the original function,
which covers by-name imports such as ``from .lowner import _ascend`` in
``lpsvd``.  :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, function, layer name).  Modules are fetched with import_module
# because the package attribute ``lplr.lowner`` is the lowner *function*.
LAYERS = [
    ("lplr.factor", "lp_low_rank", "factor.lp_low_rank"),
    ("lplr.factor", "l2_low_rank", "factor.l2_low_rank"),
    ("lplr.lpsvd", "randomized_conditioner", "lpsvd.randomized_conditioner"),
    ("lplr.lpsvd", "_sketch", "lpsvd.sketch"),
    ("lplr.lpsvd", "_finish", "lpsvd.finish"),
    ("lplr.lpsvd", "sandwich_check", "lpsvd.sandwich_check"),
    ("lplr.lowner", "_cut_phase", "lowner.cut_phase"),
    ("lplr.lowner", "_refine", "lowner.refine"),
    ("lplr.lowner", "_mvee_weights", "lowner.mvee_weights"),
    ("lplr.lowner", "_ascend", "lowner.ascend"),
    ("lplr.lowner", "_certified_shape", "lowner.certify"),
    ("lplr.matcore", "cholesky", "matcore.cholesky"),
    ("lplr.matcore", "svd", "matcore.svd"),
    ("lplr.matio", "load_matrix", "matio.load_matrix"),
    ("lplr.report", "evaluate", "report.evaluate"),
    ("lplr.cli", "_sweep_job", "cli.sweep_job"),
]


def _fingerprint(a) -> tuple:
    """Cheap identity of a matrix's contents: shape, sum and corner entries."""
    return (a.shape, float(a.sum()), float(a.flat[0]), float(a.flat[-1]))


class Tracer:
    """Spans and counters of one traced pass, kept in memory until summarized."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._distinct: dict[str, set] = defaultdict(set)
        self._saved: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = self._child_time()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return dict(out)

    def root_spans(self, name: str) -> list[tuple[float, float]]:
        """(duration, summed self time of the layers below it) per root span ``name``."""
        child = self._child_time()
        roots = {i: [end - start, 0.0] for i, (n, start, end, parent) in enumerate(self.spans)
                 if n == name and parent < 0}
        for i, (_, start, end, parent) in enumerate(self.spans):
            top = parent
            while top >= 0 and top not in roots:
                top = self.spans[top][3]
            if i not in roots and top in roots:
                roots[top][1] += end - start - child[i]
        return [tuple(v) for v in roots.values()]

    # -- counters read from calls ------------------------------------------
    def _count(self, layer: str, args, out) -> None:
        c = self.counters
        if layer == "lowner.cut_phase":
            c["lowner.cut_phase.cuts"] += out[1] + out[2]
        elif layer == "lowner.refine":
            c["lowner.fw_steps"] += out[1]
        elif layer == "lowner.ascend":
            level, _minv, starts, iters = args[:4]
            n, d = level.a.shape
            point_iters = starts.shape[0] * iters
            c["lowner.ascend.point_iters"] += point_iters
            # Computed, not counted: each point-iteration makes two n x d
            # matrix-vector products (A u and A^T g), 2 n d flops each.
            c["lowner.ascend.gflop"] += point_iters * 4.0 * n * d / 1e9
        elif layer == "factor.l2_low_rank":
            self._distinct[layer].add(_fingerprint(args[0]))
        elif layer == "lpsvd.sandwich_check":
            a, p, d_diag = args[:3]
            self._distinct[layer].add((_fingerprint(a), float(p), bytes(d_diag.tobytes())))

    def useful(self, layer: str) -> int:
        return len(self._distinct[layer])

    # -- installation --------------------------------------------------------
    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.span(layer, fn, *args, **kwargs)
            self._count(layer, args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Bind a wrapper wherever an lplr module holds a listed function."""
        modules = [m for name, m in list(sys.modules.items()) if name == "lplr" or name.startswith("lplr.")]
        for module_name, attr, layer in LAYERS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._saved.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
