"""The benchmark's tooling: the names it reaches into lplr for, and its smoke run."""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np

from lplr import SyntheticSpec, generate_synthetic

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_traced_layers_resolve_to_callables():
    # perfbench/run.py --trace 1 wraps each (module, attribute) of LAYERS; a
    # deleted or renamed function would only show up when a traced run fails.
    layertrace = load_layertrace()
    assert layertrace.LAYERS
    missing = [
        (module, attr)
        for module, attr, _ in layertrace.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_benchmark_smoke_passes():
    # The tiny mode of every benchmark workload, untraced and traced: no other
    # test runs the harness that drives lplr.cli._sweep_job and the traced
    # layers.  Its scratch files go under .perfbench_work/ and are removed.
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ascend_arguments_are_what_the_trace_reads():
    # layertrace counts lowner.ascend.point_iters and gflop by unpacking
    # _ascend's first four positional arguments as (level, minv, starts, iters)
    # and reading level.a; a reordered signature would zero or garble both.
    lowner = importlib.import_module("lplr.lowner")
    assert list(inspect.signature(lowner._ascend).parameters)[:4] == ["level", "minv", "starts", "iters"]
    a = np.random.default_rng(3).normal(size=(60, 4))
    level = lowner.LevelSet(a, 3.0)
    starts = np.random.default_rng(1).standard_normal((36, 4))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        lowner._ascend(level, a.T @ a, starts, 120)
    finally:
        tracer.uninstall()
    point_iters = 36 * 120
    assert tracer.counters["lowner.ascend.point_iters"] == point_iters
    assert tracer.counters["lowner.ascend.gflop"] == point_iters * 4.0 * 60 * 4 / 1e9


def test_blocked_ascend_is_one_traced_call():
    # _ascend runs certification's 4,096 starts through its norm pass in
    # direction blocks, but as one call: lowner.ascend.calls and point_iters
    # count the call, not the blocks.
    lowner = importlib.import_module("lplr.lowner")
    a = np.random.default_rng(3).normal(size=(60, 4))
    level = lowner.LevelSet(a, 1.5)
    starts = np.random.default_rng(2).standard_normal((4096, 4))
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        lowner._ascend(level, a.T @ a, starts, 4)
    finally:
        tracer.uninstall()
    assert tracer.summary()["lowner.ascend"]["calls"] == 1
    assert tracer.counters["lowner.ascend.point_iters"] == 4096 * 4


def test_cut_phase_result_is_what_the_trace_reads():
    # layertrace counts lowner.cut_phase.cuts as out[1] + out[2] of
    # _cut_phase's (ellipsoid, central, shallow, dets, contacts) result.
    lowner = importlib.import_module("lplr.lowner")
    a = generate_synthetic(SyntheticSpec(n=60, d=4, k_true=1, outlier_fraction=0.05, noise_sigma=0.01,
                                         outlier_scale=20.0, seed=7))
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        out = lowner._cut_phase(lowner.LevelSet(a, 1.0))
    finally:
        tracer.uninstall()
    assert len(out) == 5 and out[1] == 0 and out[2] > 0
    assert tracer.counters["lowner.cut_phase.cuts"] == out[2]
