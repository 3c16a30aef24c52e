"""The benchmark's span tracer wraps library functions by module and name,
and its checks call the library's public API; a rename, a removed import or
a changed signature must fail here, not silently in a benchmark run."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


@pytest.mark.parametrize("workload", ["sample-r50", "desk-resume", "desk-pool"])
def test_benchmark_workload_smoke(workload):
    # --seconds 0 runs the set-up and the minimum number of ops, each checked
    # by the benchmark itself (logged costs, sampled bands, output digests)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr[-4000:]
