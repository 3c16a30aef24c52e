"""The benchmark's span tracer wraps library functions by module and name,
and its checks call the library's public API; a rename, a removed import or
a changed signature must fail here, not silently in a benchmark run."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prunespace import Batch, builtin_arch, init_weights, network, training

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


def _run_benchmark(workload, *extra):
    # --seconds 0 runs the set-up and the minimum number of ops, each checked
    # by the benchmark itself (logged costs, sampled bands, output digests)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", *extra]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr[-4000:]
    return result


@pytest.mark.parametrize("workload", ["sample-r50", "desk-resume", "desk-pool"])
def test_benchmark_workload_smoke(workload):
    _run_benchmark(workload)


def test_traced_benchmark_splits_the_step():
    # A finished desk run retrains one finalist for 10 steps per op.
    metrics = _run_benchmark("desk-resume", "--trace", "1")["metrics"]
    assert metrics["training.steps"]["value"] == 10
    assert metrics["network.forward.ms"]["value"] > 0
    assert metrics["network.backward.ms"]["value"] > 0


def test_step_calls_the_module_level_forward(monkeypatch):
    # The tracer times a step's forward by wrapping `prunespace.network.forward`;
    # `network.backward.ms` is the step's time outside it, so a step that ran its
    # forward under another name would count it as backward.
    calls = []
    original = network.forward
    monkeypatch.setattr(network, "forward", lambda *a, **k: calls.append(1) or original(*a, **k))
    arch = builtin_arch("chain3")
    rng = np.random.default_rng(0)
    batch = Batch(rng.normal(size=(2, *arch.input_shape)), rng.integers(0, 10, size=2))
    training.loss_and_grads(init_weights(arch, seed=0, dtype=np.float64), arch, batch)
    assert calls == [1]
