#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --tiny`` (60x6 inputs,
two ops) untraced and traced, and asserts that the last stdout line is the
result object with every end-to-end (untraced) or per-layer (traced) metric
of BENCHMARK.json, each with its declared unit.  It also asserts that the
benchmark fails without printing a result in a directory holding only
BENCHMARK.json and perfbench/.  Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, expected: dict, label: str) -> None:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: correct is {result['correct']}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], label
    metrics = result["metrics"]
    assert set(metrics) == set(expected), f"{label}: metric names differ: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        entry = metrics[name]
        assert entry["unit"] == unit, f"{label}: {name} has unit {entry['unit']!r}, expected {unit!r}"
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), f"{label}: {name}"
        line = rf"^# {re.escape(name)} = \S+ {re.escape(unit)}$"
        assert re.search(line, proc.stdout, re.M), f"{label}: {name} not printed with its unit"


def check_bare_directory(spec_text: str) -> None:
    """Without src/, the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        (bare / "BENCHMARK.json").write_text(spec_text)
        proc = run(bare, "lowner-small", 0)
        assert proc.returncode != 0, "bare directory: benchmark exited 0"
        assert '"metrics"' not in proc.stdout, "bare directory: benchmark printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if (ROOT / ".perfbench_work").exists() and not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()


def main() -> int:
    spec_text = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(spec_text)
    modes = ((0, {m["name"]: m["unit"] for m in spec["end_to_end"]}),
             (1, {m["name"]: m["unit"] for m in spec["per_layer"]}))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in modes:
            check_result(run(ROOT, workload, trace), expected, f"{workload} trace={trace}")
            print(f"ok  {workload} trace={trace}")
    check_bare_directory(spec_text)
    print("ok  bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
