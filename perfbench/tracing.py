"""In-memory span tracing of prunespace, installed from outside the package.

Spans are recorded by replacing a module attribute with a timing wrapper at
the name the caller looks up: `prunespace.training.loss_and_grads` is the
name `train` resolves, `prunespace.network.forward` the one `loss_and_grads`
and `evaluate` resolve. The originals are put back when tracing ends, so an
untraced call runs the library unchanged.

Spans stay in memory and are handed out at the end of each op. Forked pool
workers inherit the wrappers and the open span stack, but exit without
running exit hooks, so a worker writes its spans to a spill file whenever its
outermost span closes; `collect` merges those files into the parent's list.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# (owner, attribute): owner is a module, or module:Class for a method.
TARGETS = (
    ("prunespace.pipeline", "train_dense_baseline"),
    ("prunespace.pipeline", "screen_candidates"),
    ("prunespace.pipeline", "retrain_top_k"),
    ("prunespace.pipeline", "write_reports"),
    ("prunespace.pipeline", "evaluate"),
    ("prunespace.pipeline", "one_shot_prune"),
    ("prunespace.pipeline", "train"),
    ("prunespace.pipeline", "sample_population"),
    ("prunespace.pipeline", "network_cost"),
    ("prunespace.pipeline", "save_checkpoint"),
    ("prunespace.pipeline", "load_checkpoint"),
    ("prunespace.runlog", "read_trials"),
    ("prunespace.runlog:TrialLog", "append"),
    ("prunespace.dataset:DatasetSpec", "build"),
    ("prunespace.training", "loss_and_grads"),
    ("prunespace.training", "evaluate"),
    ("prunespace.network", "forward"),
    ("prunespace.cli", "sample_population"),
    ("prunespace.sampling", "uniform_base_ratio"),
    ("prunespace.sampling", "is_member"),
    ("prunespace.sampling", "network_cost"),
    ("prunespace.sampling", "resolve_plan"),
)

# Spans that also record process-plus-children CPU seconds (os.times).
CPU_SPANS = {"prunespace.pipeline.screen_candidates"}


class Span:
    __slots__ = ("name", "sid", "parent", "start", "end", "extra")

    def __init__(self, name, sid, parent, start, end, extra):
        self.name, self.sid, self.parent = name, sid, parent
        self.start, self.end, self.extra = start, end, extra

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.sid, self.parent, self.start, self.end, self.extra]


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    """Span recorder for one benchmark process and the workers it forks."""

    def __init__(self, spill_dir: Path, extras: dict[str, Callable] | None = None):
        self.spill_dir = Path(spill_dir)
        self.extras = extras or {}
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list[Span] = []
        self.stack: list[str] = []
        self.base_depth = 0
        self.count = 0
        self._saved: list[tuple[object, str, object]] = []

    def _adopt_fork(self) -> None:
        # First span in a forked worker: drop the parent's buffered spans but
        # keep its open stack, so worker spans hang under the span that forked.
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)

    def _spill(self) -> None:
        if not self.spans:
            return
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a") as f:
            for s in self.spans:
                f.write(json.dumps(s.to_json()) + "\n")
        self.spans = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        extra_fn = self.extras.get(name)
        with_cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._adopt_fork()
            self.count += 1
            sid = f"{self.pid}:{self.count}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            cpu0 = _cpu_seconds() if with_cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            extra = extra_fn(args, kwargs, result) if extra_fn else None
            if with_cpu:
                extra = {"cpu": _cpu_seconds() - cpu0}
            self.spans.append(Span(name, sid, parent, start, end, extra))
            if self.pid != self.root_pid and len(self.stack) == self.base_depth:
                self._spill()
            return result

        return traced

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        for owner_name, attr in TARGETS:
            module_name, _, class_name = owner_name.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            span_name = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def collect(self) -> list[Span]:
        """Every span recorded since the last collect, workers' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as f:
                spans.extend(Span(*json.loads(line)) for line in f)
            path.unlink()
        return spans


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.seconds - covered
    return out
