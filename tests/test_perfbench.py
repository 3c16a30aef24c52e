"""The benchmark's span tracer wraps library functions by module and name;
a rename or a removed import must fail here, not silently in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    targets = _load_tracing().TARGETS
    assert targets
    missing = []
    for owner_name, attr in targets:
        module_name, _, class_name = owner_name.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_name}.{attr}")
    assert missing == []
