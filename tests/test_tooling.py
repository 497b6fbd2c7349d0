"""Names that the benchmark's tooling reaches into lplr for must keep existing."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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
