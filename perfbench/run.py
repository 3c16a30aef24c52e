#!/usr/bin/env python3
"""prunespace benchmark: one workload per process, outputs checked, metrics printed.

    python3 perfbench/run.py --workload desk-resume --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from `src/`.
Workloads (why each exists is in BENCHMARK.json):

  desk-pool    run_pipeline on a desk-shaped config into an empty directory,
               in the environment as found, so the library starts its own
               worker pool for screening
  desk-resume  run_pipeline again on a copy of a finished run directory; a
               finished run screens nothing, so no pool starts and the op is
               mostly finalist retraining in this process
  sample-r50   `prunespace sample` on resnet50-shape, rotating four spaces

One op is one run_pipeline call (desk-*) or one cli.main call (sample-r50).
Set-up runs several times and setup_s is its median. Then ops run until
--seconds have passed and at least MIN_OPS were attempted. Every op's outputs
are checked and digested; an exception, a failed check or a digest that
differs from an earlier same-seed op (or, on desk-*, from the serial
reference run made in set-up) fails the op.

--trace 0 prints the end-to-end metrics with tracing off. --trace 1 alternates
untraced and traced ops and prints the per-layer metrics of the traced ones,
plus the trace overhead (traced minus untraced op_s). The last
line of stdout is the JSON result; the lines above it are for people.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402  (benchmark-local module)

SETUPS = 3
# The tail is the highest percentile with ten samples beyond it: xs[len - 11]
# of the sorted op times. From 21 ops on, that is at or above the median.
MIN_OPS = 21
WORKERS_ENV = "PRUNESPACE_WORKERS"
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", WORKERS_ENV)

# Desk-preset shape (resnet-tiny, target_cflops 0.5 with mcb band (1.0, 0.1),
# finetune screening and finalists, scratch dense baseline), shrunk so that one
# pipeline takes about 1.2 s serial and 1.9 s pooled on two cores, and a run
# still fits MIN_OPS of them. per_class=20 is the smallest size whose 80/20
# split gives only full batches of 32 (160 training and 40 validation
# samples), the batch shape `--preset desk` trains on. The training steps
# split dense : screen : retrain as 5 : 10 : 10, near the preset's
# 500 : 1500 : 1500, and the two candidates still start a worker pool.
DESK_SIZE = dict(n=2, top_k=1, per_class=20, short_epochs=1, full_epochs=2, dense_epochs=1)

# sample-r50: recipes per op, and the four spaces an op rotates through.
SAMPLE_N = 40
SAMPLE_SPACES = (
    ("flops", {"target_cflops": 0.5}),
    ("flops-mcb", {"target_cflops": 0.5, "mcb_band": [1.0, 0.05]}),
    ("flops-std", {"target_cflops": 0.5, "std_cap": 0.05}),
    ("params", {"target_cparams": 0.5}),
)

REPORT_FILES = (
    "trials.jsonl", "edf.csv", "drop_summary.csv", "drop_histogram.csv",
    "winners.csv", "winners.json",
)

class CheckFailed(Exception):
    pass


def die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_library():
    init = ROOT / "src" / "prunespace" / "__init__.py"
    if not init.is_file():
        die(f"no prunespace sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import prunespace

    if Path(prunespace.__file__).resolve() != init.resolve():
        die(f"imported prunespace from {prunespace.__file__}, not from this checkout")
    return prunespace


def machine_record(env_found: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "env": env_found,
    }


@contextmanager
def env_set(key: str, value: str):
    old = os.environ.get(key)
    os.environ[key] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = old


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def cycle_stat(samples: list[tuple[int, float]], cycle: int, stat=statistics.fmean) -> float:
    """`stat` of the op seconds at each position of the workload's cycle, averaged.

    sample-r50 rotates four spaces whose op times differ, so each space counts
    once whatever its share of the ops. op_s uses the mean, not the median:
    on a shared two-core VM the machine runs in two speed modes about 1.45x
    apart that switch every few seconds, so op times are bimodal and a run's
    median lands on one mode or the other, moving far more between runs than
    the mean does.
    """
    by_position = [[s for i, s in samples if i % cycle == p] for p in range(cycle)]
    return statistics.fmean(stat(v) for v in by_position if v)


# -- workloads ------------------------------------------------------------------


class Desk:
    """run_pipeline ops; mode is "pool" or "resume"."""

    cycle = 1

    def __init__(self, ps, seed: int, work: Path, mode: str):
        self.ps, self.work, self.mode = ps, work, mode
        size = DESK_SIZE
        preset = ps.desk_preset(seed=seed)
        self.config = dataclasses.replace(
            preset,
            dataset=dataclasses.replace(preset.dataset, per_class=size["per_class"]),
            n=size["n"],
            top_k=size["top_k"],
            short_schedule=dataclasses.replace(preset.short_schedule, epochs=size["short_epochs"]),
            full_schedule=dataclasses.replace(preset.full_schedule, epochs=size["full_epochs"]),
            dense_schedule=dataclasses.replace(preset.dense_schedule, epochs=size["dense_epochs"]),
        )
        self.arch = ps.resolve_arch(self.config.arch)
        self.reference: dict | None = None
        self.template = work / "reference"

    def setup(self, run_pipeline) -> None:
        """One serial pipeline: the reference every op's digests must equal."""
        shutil.rmtree(self.template, ignore_errors=True)
        with env_set(WORKERS_ENV, "1"):
            result = run_pipeline(self.config, self.template)
        self.reference = self.check(self.template, result)

    def op(self, i: int, run_pipeline):
        out = self.work / f"op{i}"
        if self.mode == "resume":
            shutil.copytree(self.template, out)
        try:
            started = time.perf_counter()
            result = run_pipeline(self.config, out)
            seconds = time.perf_counter() - started
            if self.check(out, result) != self.reference:
                raise CheckFailed("output digests differ from the serial reference run")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        trials = result.trials + result.finalists
        quality = {
            "dense_acc": result.dense_accuracy,
            "winner_drop_pts": result.winner.accuracy_drop,
            "diverged": sum(t.diverged for t in trials),
        }
        return seconds, self.config.n, quality

    def check(self, out: Path, result) -> dict:
        ps, config = self.ps, self.config
        _, records = ps.read_trials(out / "trials.jsonl")
        if [r.index for r in records] != list(range(config.n)):
            raise CheckFailed(f"trial log indices {[r.index for r in records]}, want 0..{config.n - 1}")
        for r in records:
            plan = ps.resolve_plan(self.arch, r.recipe, ratio_max=config.space.ratio_max)
            if ps.network_cost(self.arch, plan) != r.cost:
                raise CheckFailed(f"trial {r.index}: logged cost differs from network_cost")
        winners = json.loads((out / "winners.json").read_text())
        if len(winners["finalists"]) != config.top_k or winners["winner"]["index"] != result.winner.index:
            raise CheckFailed("winners.json disagrees with the pipeline result")
        return {name: sha256(out / name) for name in REPORT_FILES}


class SampleR50:
    """cli.main(["sample", ...]) ops on resnet50-shape, rotating four spaces."""

    cycle = len(SAMPLE_SPACES)

    def __init__(self, ps, seed: int, work: Path):
        self.ps, self.seed, self.work = ps, seed, work
        self.arch = ps.builtin_arch("resnet50-shape")
        self.spaces = [(name, ps.space_from_json(doc)) for name, doc in SAMPLE_SPACES]
        self.digests: dict[tuple[int, int], str] = {}

    def setup(self, main) -> None:
        """Write the space files and draw each space's first population."""
        for j, (name, doc) in enumerate(SAMPLE_SPACES):
            (self.work / f"{name}.json").write_text(json.dumps(doc))
            self._draw(main, j, self.seed * 1000, self.work / f"setup-{name}.jsonl")

    def op(self, i: int, main):
        # Every cycle draws new populations, so a run averages over many; the
        # first cycle repeats the set-up's draws, which are compared byte for byte.
        seconds = self._draw(main, i % self.cycle, self.seed * 1000 + i // self.cycle,
                             self.work / f"op{i}.jsonl")
        return seconds, SAMPLE_N, None

    def _draw(self, main, j: int, population: int, out: Path) -> float:
        """Seconds to sample; the output is then checked and digested."""
        try:
            started = time.perf_counter()
            self._sample(main, j, population, out)
            seconds = time.perf_counter() - started
            self.check(j, out)
            digest = sha256(out)
            if self.digests.setdefault((j, population), digest) != digest:
                raise CheckFailed(f"space {j} population {population}: output differs from its repeat")
        finally:
            out.unlink(missing_ok=True)
        return seconds

    def _sample(self, main, j: int, seed: int, out: Path) -> None:
        name = SAMPLE_SPACES[j][0]
        argv = [
            "sample", "--arch", "resnet50-shape", "--space", str(self.work / f"{name}.json"),
            "--n", str(SAMPLE_N), "--seed", str(seed), "--out", str(out),
        ]
        code = main(argv)
        if code != 0:
            raise CheckFailed(f"prunespace {' '.join(argv)} exited {code}")

    def check(self, j: int, out: Path) -> None:
        ps, space = self.ps, self.spaces[j][1]
        lines = out.read_text().splitlines()
        if len(lines) != SAMPLE_N:
            raise CheckFailed(f"{len(lines)} recipes, want {SAMPLE_N}")
        for line in lines:
            recipe = ps.recipe_from_json(line)
            cost = ps.network_cost(self.arch, ps.resolve_plan(self.arch, recipe.ratios, space.ratio_max))
            bands = []
            if space.target_cflops is not None:
                bands.append((cost.c_flops, space.target_cflops - space.delta, space.target_cflops + space.delta))
            if space.target_cparams is not None:
                bands.append((cost.c_params, space.target_cparams - space.delta_params,
                              space.target_cparams + space.delta_params))
            if space.std_cap is not None:
                bands.append((ps.recipe_std(recipe), 0.0, space.std_cap))
            if space.mcb_band is not None:
                center, half = space.mcb_band
                bands.append((cost.mcb, center - half, center + half))
            for value, lo, hi in bands:
                if not lo <= value <= hi:
                    raise CheckFailed(f"sampled recipe outside its space: {value} not in [{lo}, {hi}]")


# -- per-layer metrics -------------------------------------------------------------


def span_extras(ps) -> dict:
    """Values a span records after its call returns (outside its own time)."""
    network_cost = ps.network_cost
    macs: dict[int, tuple] = {}

    def step(args, kwargs, result):
        arch, batch = args[1], args[2]
        if id(arch) not in macs:  # keep arch alive so its id is not reused
            macs[id(arch)] = (arch, network_cost(arch).flops)
        return {"macs": macs[id(arch)][1] * len(batch)}

    return {
        "prunespace.training.loss_and_grads": step,
        "prunespace.pipeline.save_checkpoint": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
        "prunespace.runlog.TrialLog.append": lambda a, k, r: {
            "bytes": len(ps.canonical_json(ps.trial_to_json(a[1]))) + 1
        },
        "prunespace.pipeline.sample_population": lambda a, k, r: {"recipes": len(r)},
        "prunespace.cli.sample_population": lambda a, k, r: {"recipes": len(r)},
    }


class LayerTotals:
    """Sums over the spans of traced ops, turned into per-layer metrics at the end."""

    SELF = {"prunespace.pipeline.train", "prunespace.training.loss_and_grads", "prunespace.cli.main"}
    SCREEN = "prunespace.pipeline.screen_candidates"
    PER_CANDIDATE = {
        "prunespace.pipeline.one_shot_prune", "prunespace.pipeline.network_cost",
        "prunespace.pipeline.train",
    }

    def __init__(self):
        self.ops = 0
        self.dur: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.quality: dict[str, float] = {}

    def _add(self, table: dict, key: str, value) -> None:
        table[key] = table.get(key, 0) + value

    def add_op(self, spans: list, quality: dict | None) -> None:
        self.ops += 1
        by_id = {s.sid: s for s in spans}
        selfs = tracing.self_seconds(spans)
        for s in spans:
            self._add(self.dur, s.name, s.seconds)
            self._add(self.calls, s.name, 1)
            if s.name in self.SELF:
                self._add(self.self_s, s.name, selfs[s.sid])
            for key, value in (s.extra or {}).items():
                self._add(self.extra, key, value)
            if s.name in self.PER_CANDIDATE and self._under(s, self.SCREEN, by_id):
                self._add(self.extra, "screen_work_s", s.seconds)
                if s.name == "prunespace.pipeline.train":
                    self._add(self.extra, "screen_candidates", 1)
        for key, value in (quality or {}).items():
            if isinstance(value, (int, float)) and math.isfinite(value):
                self._add(self.quality, key, value)

    @staticmethod
    def _under(span, name: str, by_id: dict) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        p = "prunespace."

        def per_op(name):
            return self.dur.get(p + name, 0.0) / ops

        def mean(*names, scale=1.0):
            calls = sum(self.calls.get(p + n, 0) for n in names)
            total = sum(self.dur.get(p + n, 0.0) for n in names)
            return scale * total / calls if calls else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        calls = lambda name: self.calls.get(p + name, 0) / ops
        x = self.extra
        step_s = self.dur.get(p + "training.loss_and_grads", 0.0)
        return {
            "pipeline.train_dense_baseline.s": per_op("pipeline.train_dense_baseline"),
            "pipeline.screen_candidates.s": per_op("pipeline.screen_candidates"),
            "pipeline.retrain_top_k.s": per_op("pipeline.retrain_top_k"),
            "pipeline.write_reports.s": per_op("pipeline.write_reports"),
            "pipeline.screen.per_candidate_s": ratio(x.get("screen_work_s", 0.0), x.get("screen_candidates", 0)),
            "pipeline.screen.cpu_per_wall": ratio(x.get("cpu", 0.0), self.dur.get(self.SCREEN, 0.0)),
            "pipeline.evaluate.calls": calls("pipeline.evaluate"),
            "training.train.s": per_op("pipeline.train"),
            "training.train.self_s": self.self_s.get(p + "pipeline.train", 0.0) / ops,
            "training.steps": calls("training.loss_and_grads"),
            "network.forward.ms": mean("network.forward", scale=1e3),
            "network.backward.ms": 1e3 * ratio(
                self.self_s.get(p + "training.loss_and_grads", 0.0),
                self.calls.get(p + "training.loss_and_grads", 0),
            ),
            "network.evaluate.ms": mean("pipeline.evaluate", "training.evaluate", scale=1e3),
            "network.step_gmacs_per_s": ratio(3 * x.get("macs", 0), step_s) / 1e9,
            "pruning.one_shot_prune.ms": mean("pipeline.one_shot_prune", scale=1e3),
            "dataset.build.s": per_op("dataset.DatasetSpec.build"),
            "runlog.TrialLog.append.ms": mean("runlog.TrialLog.append", scale=1e3),
            "runlog.save_checkpoint.ms": mean("pipeline.save_checkpoint", scale=1e3),
            "runlog.load_checkpoint.ms": mean("pipeline.load_checkpoint", scale=1e3),
            "runlog.read_trials.ms": mean("runlog.read_trials", scale=1e3),
            "runlog.bytes_written": x.get("bytes", 0) / ops,
            "sampling.uniform_base_ratio.ms": mean("sampling.uniform_base_ratio", scale=1e3),
            "sampling.attempts": calls("sampling.is_member"),
            "sampling.accept_ratio": ratio(x.get("recipes", 0), self.calls.get(p + "sampling.is_member", 0)),
            "sampling.is_member.us": mean("sampling.is_member", scale=1e6),
            "cost.network_cost.us": mean("sampling.network_cost", "pipeline.network_cost", scale=1e6),
            "cost.network_cost.calls": calls("sampling.network_cost") + calls("pipeline.network_cost"),
            "arch.resolve_plan.us": mean("sampling.resolve_plan", scale=1e6),
            "cli.sample.emit_s": self.self_s.get(p + "cli.main", 0.0) / ops,
            "analysis.dense_acc": self.quality.get("dense_acc", 0.0) / ops,
            "analysis.winner_drop_pts": self.quality.get("winner_drop_pts", 0.0) / ops,
            "analysis.diverged": self.quality.get("diverged", 0.0) / ops,
        }


# -- command line ----------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk-pool", "desk-resume", "sample-r50"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def declared_metrics() -> tuple[dict, dict, dict]:
    """End-to-end units, per-layer units, and each workload's `why`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {w["name"]: w["why"] for w in spec["workloads"]})


def moved_on(metric: str, whys: dict) -> list[str]:
    """Workloads whose `why` names the metric (by a pattern such as `runlog.*`)."""
    return [w for w, why in whys.items()
            if any(fnmatchcase(metric, tok.strip(",;:")) for tok in why.split() if "." in tok)]


def run(args, ps, work: Path) -> dict:
    env_found = {k: os.environ.get(k) for k in ENV_KEYS}
    print("machine " + json.dumps(machine_record(env_found)))
    end_to_end_units, per_layer_units, whys = declared_metrics()

    if args.workload == "sample-r50":
        workload = SampleR50(ps, args.seed, work)
        call = ps.cli.main
        call_name = "prunespace.cli.main"
    else:
        workload = Desk(ps, args.seed, work, args.workload.removeprefix("desk-"))
        call = ps.run_pipeline
        call_name = "prunespace.pipeline.run_pipeline"

    spill = work / "spill"
    spill.mkdir()
    tracer = tracing.Tracer(spill, span_extras(ps))
    traced_call = tracer.wrap(call_name, call)
    totals = LayerTotals()

    setup_times = []
    for k in range(SETUPS):
        started = time.perf_counter()
        if args.trace and k == SETUPS - 1 and isinstance(workload, Desk):
            with tracer.active():
                workload.setup(traced_call)
            serial_ref = LayerTotals()
            serial_ref.add_op(tracer.collect(), None)
        else:
            workload.setup(call)
        setup_times.append(time.perf_counter() - started)

    # Traced runs alternate whole cycles (one op per space on sample-r50)
    # untraced and traced, so both sides do the same kind of work.
    seconds: dict[bool, list[tuple[int, float]]] = {False: [], True: []}
    attempted = failed = recipes = 0
    deadline = time.perf_counter() + args.seconds
    min_ops = 4 * workload.cycle if args.trace else MIN_OPS
    while time.perf_counter() < deadline or attempted < min_ops:
        i = attempted
        traced = bool(args.trace) and (i // workload.cycle) % 2 == 1
        attempted += 1
        try:
            if traced:
                with tracer.active():
                    op_seconds, op_recipes, quality = workload.op(i, traced_call)
                totals.add_op(tracer.collect(), quality)
            else:
                op_seconds, op_recipes, quality = workload.op(i, call)
        except Exception:  # any failure of an op is counted, and the run goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
            tracer.collect()
            continue
        seconds[traced].append((i, op_seconds))
        recipes += op_recipes

    untraced = [s for _, s in seconds[False]]
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed")
    print(f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    if not untraced:
        die("no untraced op succeeded, so there is nothing to report", 1)
    units = per_layer_units if args.trace else end_to_end_units
    if args.trace:
        metrics = totals.metrics()
        if seconds[True] and untraced:
            metrics["bench.trace_overhead_s"] = (cycle_stat(seconds[True], workload.cycle)
                                                 - cycle_stat(seconds[False], workload.cycle))
        else:
            metrics["bench.trace_overhead_s"] = 0.0
        metrics["bench.traced_ops"] = totals.ops
        print(f"{args.workload}: {whys[args.workload]}")
        for name, value in metrics.items():
            on = moved_on(name, whys)
            moves = f"moves end-to-end metrics on {', '.join(on)}" if on else "visibility only"
            label = " (computed)" if name == "network.step_gmacs_per_s" else ""
            print(f"  {name:34s} {value:12.6g} {units[name]:10s} {moves}{label}")
        if isinstance(workload, Desk):
            ref = serial_ref.metrics()
            for name in ("pipeline.screen.per_candidate_s", "pipeline.screen.cpu_per_wall"):
                print(f"  {name:34s} {ref[name]:12.6g} {units[name]:10s} serial reference run, same config")
    else:
        tail_value, pct = tail(untraced)
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "op_s": cycle_stat(seconds[False], workload.cycle),
            "op_s_tail": tail_value,
            "recipes_per_s": recipes / sum(untraced),
            "success_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": usage / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        op_name = "sample_s" if args.workload == "sample-r50" else "pipeline_s"
        notes = {
            "op_s": f"{op_name}: mean of {len(untraced)} ops"
                    + (f", per space, averaged over {workload.cycle} spaces" if workload.cycle > 1 else "")
                    + f" (median {cycle_stat(seconds[False], workload.cycle, statistics.median):.6g} s)",
            "op_s_tail": f"{op_name}_tail: p{pct:.0f} of {len(untraced)} ops",
            "recipes_per_s": "accepted recipes per second of op time",
            "success_ratio": "1 - fail_ratio",
            "peak_rss_mb": "max of this process and its largest child",
            "setup_s": f"median of {SETUPS} set-ups",
        }
        for name, value in metrics.items():
            print(f"  {name:16s} {value:12.6g} {units[name]:6s} {notes[name]}")
    if set(metrics) != set(units):
        die(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", 1)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    ps = load_library()
    import prunespace.cli  # noqa: F401  (the sample workload calls cli.main)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, ps, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
