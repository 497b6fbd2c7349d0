"""The benchmark's tooling: the names it reaches into lplr for, and its smoke run."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def test_traced_layers_resolve_to_callables():
    # perfbench/run.py --trace 1 wraps each (module, attribute) of LAYERS; a
    # deleted or renamed function would only show up when a traced run fails.
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
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
