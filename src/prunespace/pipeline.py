"""End-to-end subnetwork search: dense baseline, screened population, winners.

The procedure has three phases. A dense network is trained from scratch and
checkpointed. A constrained population of pruning recipes is sampled; each
candidate is pruned from the dense weights, fine-tuned briefly, and logged.
The top-k candidates by screening drop are re-pruned from the same dense
checkpoint and retrained with the full schedule; the winner is the finalist
with the smallest full-schedule drop.

A run's files and state are owned by one `RunDir`, and the phases take only
the run: `screen_candidates(run)` and `retrain_top_k(run, trials)`. The run
holds the config; the trial log, parsed once when the run opens; and the
dense baseline, derived once, as a `DenseBaseline` (resolved architecture,
dataset, weights, validation accuracy), and only when some phase has work
left. A fresh run reads the accuracy off the dense training trace; a run
whose directory already holds `dense.ckpt` (a resumed run, or one given a
dense network shared with another run) evaluates the reloaded checkpoint once.
The checkpoint carries the `dense_key` it was trained for, a hash of the
config's arch, dataset, dense_schedule and seed, and the architecture
document of its weights; a run refuses any other key or document.

Every phase is a pure function of (config, master seed): each random stream is
keyed by `derive_seed` from the master seed and a per-phase tag, so
interrupted runs resume idempotently from the trial log and reruns produce
byte-identical artifacts. Screening and finalist retraining share one
per-candidate step, which fans out across a pool of forked processes (one per
CPU this process may run on, capped by the PRUNESPACE_WORKERS environment
variable); results are taken in candidate order, so parallel and serial runs
emit identical logs, reports and checkpoints. A run holds numpy's OpenBLAS
at one thread from start to end and then restores the caller's count, so the
workers it forks inherit one thread each and do not oversubscribe the cores;
a second thread buys in-process training nothing at these sizes. Where
OpenBLAS exports no thread-count call, runs and workers keep the library's
default and one warning is logged. Wall-clock
timings are observations, not outputs: each is appended to the plain-text
sidecar `timings.txt` (`phase<TAB>index<TAB>seconds`) as soon as it is
measured, and the sidecar is excluded from all determinism guarantees.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .analysis import TrialRecord, accuracy_drop, distribution_summary, edf, top_k_winners
from .arch import ArchitectureSpec, arch_to_json, builtin_arch, builtin_names, load_arch
from .cost import network_cost
from .dataset import Batch, DatasetSpec
from .errors import TrainingDiverged, ValidationError, WorkerLost
from .network import NetworkWeights, evaluate, weight_layout
from .pruning import METHODS, one_shot_prune
from .runlog import (
    TrialLog,
    canonical_json,
    config_hash,
    edf_csv,
    histogram_csv,
    load_checkpoint,
    save_checkpoint,
    summary_csv,
    winners_csv,
    write_atomic,
)
from .sampling import SpaceSpec, derive_seed, recipe_std, sample_population
from .schema import spec_from_json, spec_to_json
from .training import ScheduleSpec, finetune_schedule, scratch_schedule, train

log = logging.getLogger("prunespace")

WORKERS_ENV = "PRUNESPACE_WORKERS"

# master-seed tags, one namespace per phase; 1 is retired, so each tag keeps its stream
_TAG_DENSE_TRAIN = 2
_TAG_SAMPLE = 3
_TAG_SCREEN = 4
_TAG_PRUNE = 5
_TAG_FULL = 6


def resolve_arch(name_or_path: str) -> ArchitectureSpec:
    """Builtin architecture name, or path to an architecture JSON file."""
    if name_or_path in builtin_names():
        return builtin_arch(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return load_arch(path.read_text())
    raise ValidationError(
        f"unknown architecture {name_or_path!r}: not a builtin "
        f"{builtin_names()} and not a file"
    )


@dataclass(frozen=True, kw_only=True)
class PipelineConfig:
    """Complete, hashable description of one search run."""

    arch: str
    dataset: DatasetSpec = DatasetSpec()
    space: SpaceSpec
    n: int
    top_k: int
    short_schedule: ScheduleSpec
    full_schedule: ScheduleSpec
    # None: from scratch for as many epochs as the finalists get
    dense_schedule: ScheduleSpec | None = None
    seed: int = 0
    method: str = "l2"

    def __post_init__(self):
        if not (self.n >= self.top_k >= 1):
            raise ValidationError(
                f"need n >= top_k >= 1, got n={self.n}, top_k={self.top_k}"
            )
        if self.short_schedule.epochs > self.full_schedule.epochs:
            raise ValidationError(
                "screening epochs must not exceed full-retraining epochs "
                f"({self.short_schedule.epochs} > {self.full_schedule.epochs})"
            )
        if self.dense_schedule is None:
            object.__setattr__(self, "dense_schedule", scratch_schedule(self.full_schedule.epochs))
        if self.dense_schedule.kind != "scratch":
            raise ValidationError("the dense baseline is trained from scratch")
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")

    to_json = spec_to_json


pipeline_config_from_json = functools.partial(spec_from_json, PipelineConfig)


def _preset(arch: str, seed: int, n: int, top_k: int, screen_epochs: int, epochs: int) -> PipelineConfig:
    """The presets' search: half the FLOPs, mcb band (1.0, 0.1); `epochs` for dense and finalists."""
    return PipelineConfig(
        arch=arch,
        dataset=DatasetSpec(),
        space=SpaceSpec(target_cflops=0.5, mcb_band=(1.0, 0.1)),
        n=n,
        top_k=top_k,
        short_schedule=finetune_schedule(screen_epochs),
        full_schedule=finetune_schedule(epochs),
        dense_schedule=scratch_schedule(epochs, lr0=0.01),
        seed=seed,
    )


def desk_preset(arch: str = "resnet-tiny", seed: int = 0) -> PipelineConfig:
    """Minutes-scale defaults: n=30 candidates, 2-epoch screening, top-3, 20-epoch retrain."""
    return _preset(arch, seed, n=30, top_k=3, screen_epochs=2, epochs=20)


def full_preset(arch: str = "resnet-tiny", seed: int = 0) -> PipelineConfig:
    """Full-scale counts: n=300 candidates, 5-epoch screening, top-5, 100-epoch retrain."""
    return _preset(arch, seed, n=300, top_k=5, screen_epochs=5, epochs=100)


# -- phases ---------------------------------------------------------------------


@dataclass(frozen=True)
class DenseBaseline:
    """The trained dense network of one run, derived once and read by every phase.

    Every candidate is pruned from `weights`, trained on `data`, and its drop
    measured against `accuracy`, the validation accuracy of `weights` on `data`.
    """

    arch: ArchitectureSpec
    data: tuple[Batch, Batch]
    weights: NetworkWeights
    accuracy: float


def dense_key(config: PipelineConfig) -> str:
    """Hash of the config fields `train_dense_baseline` reads; runs of one key share a dense network."""
    doc = config.to_json()
    return config_hash({k: doc[k] for k in ("arch", "dataset", "dense_schedule", "seed")})


def train_dense_baseline(
    config: PipelineConfig, data: tuple[Batch, Batch] | None = None
) -> DenseBaseline:
    """Scratch-train the unpruned network; its accuracy anchors every drop."""
    arch = resolve_arch(config.arch)
    if data is None:
        data = config.dataset.build()
    # a scratch schedule initializes the weights itself and reads only the shell's dtype
    shell = NetworkWeights.empty(weight_layout(arch), np.float32)
    result = train(shell, arch, data, config.dense_schedule, derive_seed(config.seed, _TAG_DENSE_TRAIN))
    # the last trace entry is the validation accuracy of the returned weights
    return DenseBaseline(arch, data, result.weights, result.trace[-1])


def _train_candidate(
    config: PipelineConfig, baseline: DenseBaseline, full: bool, index: int, ratios: Sequence[float]
) -> tuple[TrialRecord, tuple[NetworkWeights, ArchitectureSpec] | None, float]:
    """Prune candidate `index` from the dense weights, train it, and record the drop.

    `full` selects the finalist schedule and seed namespace and keeps the
    trained network, its weights and pruned architecture; screening
    (`full=False`) discards it.
    """
    started = time.perf_counter()
    arch = baseline.arch
    schedule, tag = (config.full_schedule, _TAG_FULL) if full else (config.short_schedule, _TAG_SCREEN)
    prune_seed = None
    if config.method == "random":
        prune_seed = derive_seed(derive_seed(config.seed, _TAG_PRUNE), index)
    pruned = one_shot_prune(baseline.weights, arch, ratios, method=config.method, seed=prune_seed)
    cost = network_cost(arch, pruned.plan)
    diverged = False
    network = None
    try:
        result = train(
            pruned.weights, pruned.arch, baseline.data, schedule,
            derive_seed(derive_seed(config.seed, tag), index),
        )
        drop = accuracy_drop(baseline.accuracy, result.trace[-1])
        if full:
            network = result.weights, pruned.arch
    except TrainingDiverged:
        drop = math.inf
        diverged = True
    record = TrialRecord(
        index=index,
        recipe=tuple(float(r) for r in ratios),
        arch=arch.name,
        cost=cost,
        recipe_std=recipe_std(ratios),
        accuracy_drop=drop,
        schedule=schedule.kind,
        epochs=schedule.epochs,
        seed=config.seed,
        diverged=diverged,
    )
    return record, network, time.perf_counter() - started


# -- worker pool ------------------------------------------------------------------

# Thread-count setter and getter of OpenBLAS: the scipy-openblas64 build that
# numpy wheels ship prefixes and suffixes the names, other builds do not.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_threads_api() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """(set, get) thread-count functions of the OpenBLAS numpy loaded, or None.

    dlsym on numpy's linalg extension searches the libraries it links, so this
    finds the very copy numpy calls. Warns once per process when none is found.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        lib = None
    for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
        setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    log.warning(
        "numpy's BLAS exports no OpenBLAS thread-count call; "
        "runs and pool workers keep its default thread count"
    )
    return None


def blas_threads() -> int | None:
    """OpenBLAS threads this process uses, or None when the count is out of reach."""
    api = _openblas_threads_api()
    return api[1]() if api is not None else None


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold OpenBLAS at one thread in this process; restore its count on exit."""
    api = _openblas_threads_api()
    before = api[1]() if api is not None else 1  # without the call, leave BLAS alone
    if before != 1:
        api[0](1)
    try:
        yield
    finally:
        if before != 1:
            api[0](before)


_worker_state: tuple[PipelineConfig, DenseBaseline] | None = None


def _init_worker(config: PipelineConfig | None, baseline: DenseBaseline | None) -> None:
    # One BLAS thread per worker: the pool already keeps every core busy, and
    # OpenBLAS threads in each of several workers oversubscribe the cores. A
    # worker forked inside a run inherits one thread already, and must not
    # call the setter: in a fresh fork it restarts OpenBLAS's thread server,
    # whose helper thread then spins on a core the other workers need.
    global _worker_state
    _worker_state = (config, baseline)
    api = _openblas_threads_api()
    if api is not None and api[1]() != 1:
        api[0](1)


def _pool_task(
    full: bool, task: tuple[int, tuple[float, ...]]
) -> tuple[TrialRecord, tuple[NetworkWeights, ArchitectureSpec] | None, float]:
    return _train_candidate(*_worker_state, full, *task)


def _candidate_pool(
    config: PipelineConfig | None, baseline: DenseBaseline | None, workers: int
) -> ProcessPoolExecutor:
    """Worker pool whose processes hold the run's config and baseline and run
    one BLAS thread each, inherited from a run or set by the worker.

    Workers are forked where the platform can: a fork child inherits the
    baseline's arrays and numpy's import without pickling or re-importing.
    """
    _openblas_threads_api()  # warn here, once, rather than in every worker
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_init_worker,
        initargs=(config, baseline),
    )


def _map_candidates(
    config: PipelineConfig,
    baseline: DenseBaseline,
    full: bool,
    tasks: Sequence[tuple[int, tuple[float, ...]]],
) -> Iterator[tuple[TrialRecord, tuple[NetworkWeights, ArchitectureSpec] | None, float]]:
    """`_train_candidate` over `tasks`, serially or on the pool; yields in task order.

    A pool whose worker dies raises `WorkerLost`, naming the phase and the
    candidates not yet yielded, which the caller has therefore not recorded.
    """
    workers = worker_count(len(tasks))
    if workers == 1:
        for index, ratios in tasks:
            yield _train_candidate(config, baseline, full, index, ratios)
        return
    log.info("training %d candidates across %d workers", len(tasks), workers)
    yielded = 0
    try:
        with _candidate_pool(config, baseline, workers) as pool:
            for result in pool.map(functools.partial(_pool_task, full), tasks):
                yield result
                yielded += 1
    except BrokenProcessPool as e:
        missing = [index for index, _ in tasks[yielded:]]
        raise WorkerLost(
            f"a pool worker died in the {'full' if full else 'screen'} phase; candidates {missing} "
            "were not recorded; a rerun resumes from what was"
        ) from e


def worker_count(pending: int) -> int:
    """Pool size: PRUNESPACE_WORKERS if set, else the CPUs this process may run on."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ValidationError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
        if cap < 1:
            raise ValidationError(f"{WORKERS_ENV} must be >= 1, got {cap}")
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, pending))


def screen_candidates(run: RunDir) -> list[TrialRecord]:
    """Prune, short-train, and log every sampled candidate of the run, in index order.

    Resumes past the records already in the run's trial log, so an interrupted
    run picks up at the first missing index and converges to the same final
    set; the population is sampled, and then the dense baseline derived, only
    when some index is still missing, so an infeasible space trains nothing.
    Each candidate is logged, and its seconds observed, as it finishes.
    """
    config, logged = run.config, len(run.trials.records)
    if logged < config.n:
        recipes = sample_population(run.arch, config.space, config.n, derive_seed(config.seed, _TAG_SAMPLE))
        tasks = [(i, recipes[i].ratios) for i in range(logged, config.n)]
        for record, _, seconds in _map_candidates(config, run.baseline, False, tasks):
            run.trials.append(record)
            run.observe("screen", record.index, seconds)
    return list(run.trials.records)


@dataclass(frozen=True)
class PipelineResult:
    dense_accuracy: float
    trials: tuple[TrialRecord, ...]
    finalists: tuple[TrialRecord, ...]
    winner: TrialRecord


def retrain_top_k(run: RunDir, trials: Sequence[TrialRecord]) -> PipelineResult:
    """Re-prune the screened top-k from the run's dense weights and fully retrain.

    Screening weights are deliberately discarded: finalists restart from the
    dense checkpoint so the two phases stay independent. Each finalist's
    weights and pruned architecture are saved to the run as
    `finalist_<index>.ckpt`, which `load_checkpoint` reads back whole.
    """
    config = run.config
    if len(trials) < config.top_k:
        raise ValidationError(f"need at least top_k={config.top_k} trials, got {len(trials)}")
    tasks = [(c.index, c.recipe) for c in top_k_winners(trials, config.top_k)]
    finalists: list[TrialRecord] = []
    for rank, (record, network, seconds) in enumerate(_map_candidates(config, run.baseline, True, tasks)):
        finalists.append(record)
        run.observe("full", record.index, seconds)
        if network is not None:
            meta = {
                "index": record.index, "rank": rank, "drop": record.accuracy_drop,
                "dataset": config.dataset.to_json(),
            }
            save_checkpoint(run.path / f"finalist_{record.index}.ckpt", *network, meta=meta)
        log.info(
            "finalist %d (screen rank %d): full-schedule drop %s",
            record.index, rank, "diverged" if record.diverged else f"{record.accuracy_drop:.3f}",
        )
    winner = top_k_winners(finalists, 1)[0]
    return PipelineResult(run.baseline.accuracy, tuple(trials), tuple(finalists), winner)


def write_reports(out_dir: str | Path, trials: Sequence[TrialRecord], top_k: int) -> list[Path]:
    """Standard CSV bundle for a trial population; returns the paths written."""
    out = Path(out_dir)
    summary = distribution_summary(trials, "accuracy_drop")
    payload = {
        "edf.csv": edf_csv(edf(trials)),
        "drop_summary.csv": summary_csv(summary),
        "drop_histogram.csv": histogram_csv(summary),
        "winners.csv": winners_csv(top_k_winners(trials, min(top_k, len(trials)))),
    }
    for name, text in payload.items():
        write_atomic(out / name, text)
    return [out / name for name in payload]


# -- run directory ------------------------------------------------------------------


class RunDir:
    """One run's directory: its claim, trial log, dense baseline and timings.

    Opening first resolves the config's arch, held as `arch`, and refuses,
    with nothing written, a config that arch cannot run: a dataset shape
    other than its input shape, or more classes than its classifier outputs.
    It then writes `config.json`, or refuses a directory whose `config.json`
    names another config, before touching anything else; it then opens the
    trial log and refuses one that is not indices 0, 1, ... of at most `n`
    records. `baseline` is derived on first use, from `dense.ckpt` when the
    directory holds one, which must carry the run's `dense_key` and
    architecture document. Whole files are written with `write_atomic`; the
    trial log (`trials.jsonl`) and the timings sidecar (`timings.txt`) grow by
    a line as each result comes in.
    """

    def __init__(self, path: str | Path, config: PipelineConfig):
        self.path, self.config = Path(path), config
        self.arch = arch = resolve_arch(config.arch)
        dataset, outputs = config.dataset, arch.layer(arch.classifier_id).c_out
        if tuple(dataset.shape) != arch.input_shape:
            raise ValidationError(
                f"dataset shape {list(dataset.shape)} is not the input shape {list(arch.input_shape)} of {config.arch!r}"
            )
        if dataset.num_classes > outputs:
            raise ValidationError(f"{dataset.num_classes} dataset classes exceed the {outputs} outputs of {config.arch!r}")
        config_doc = config.to_json()
        rendered = canonical_json(config_doc) + "\n"
        claim = self.path / "config.json"
        if not claim.exists():
            write_atomic(claim, rendered)
        elif claim.read_text() != rendered:
            raise ValidationError(
                f"{self.path} already holds a run with a different config; "
                "use a fresh output directory, or delete this one to start over"
            )
        self.trials = TrialLog(self.path / "trials.jsonl", config_doc)
        indices = [r.index for r in self.trials.records]
        if indices != list(range(len(indices))) or len(indices) > config.n:
            raise ValidationError(
                f"{self.trials.path} is not a contiguous prefix of a population of "
                f"{config.n}: it holds indices {indices}"
            )

    def observe(self, phase: str, index: int | str, seconds: float) -> None:
        """Append one `phase<TAB>index<TAB>seconds` line to the timings sidecar."""
        with open(self.path / "timings.txt", "a") as f:
            f.write(f"{phase}\t{index}\t{seconds:.3f}\n")

    @functools.cached_property
    def baseline(self) -> DenseBaseline:
        """The dense baseline: reloaded from dense.ckpt and evaluated, or trained and saved."""
        config, arch, path, key = self.config, self.arch, self.path / "dense.ckpt", dense_key(self.config)
        data = config.dataset.build()
        if path.exists():
            weights, saved_arch, meta = load_checkpoint(path)
            if meta.get("dense_key") != key:
                raise ValidationError(
                    f"{path} was trained for dense key {meta.get('dense_key')}, this run's is {key}: "
                    "its arch, dataset, dense_schedule or seed differ"
                )
            if arch_to_json(saved_arch) != arch_to_json(arch):
                raise ValidationError(
                    f"{path} holds another architecture document than the config's arch {config.arch!r}"
                )
            log.info("reusing dense baseline from %s", path)
            return DenseBaseline(arch, data, weights, evaluate(weights, arch, data[1]))
        started = time.perf_counter()
        baseline = train_dense_baseline(config, data)
        self.observe("dense", "-", time.perf_counter() - started)
        meta = {"dense_key": key, "val_accuracy": baseline.accuracy, "dataset": config.dataset.to_json()}
        save_checkpoint(path, baseline.weights, baseline.arch, meta=meta)
        log.info("dense baseline: val accuracy %.4f", baseline.accuracy)
        return baseline


def _screen(run: RunDir) -> list[TrialRecord]:
    """Screen the run's population, then write its reports."""
    trials = screen_candidates(run)
    if all(t.diverged for t in trials):
        raise TrainingDiverged(
            f"all {len(trials)} screened candidates diverged; no drop distribution to report"
        )
    write_reports(run.path, trials, run.config.top_k)
    return trials


@_one_blas_thread()
def explore_space(config: PipelineConfig, out_dir: str | Path) -> list[TrialRecord]:
    """Population screening without winner retraining: trial log plus report CSVs."""
    return _screen(RunDir(out_dir, config))


@_one_blas_thread()
def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> PipelineResult:
    """All three phases; resumable; byte-identical artifacts on rerun."""
    run = RunDir(out_dir, config)
    result = retrain_top_k(run, _screen(run))
    winners = {
        "dense_accuracy": result.dense_accuracy,
        "finalists": [t.to_json() for t in result.finalists],
        "winner": result.winner.to_json(),
    }
    write_atomic(run.path / "winners.json", canonical_json(winners) + "\n")
    log.info(
        "winner: candidate %d, drop %s",
        result.winner.index,
        "diverged" if result.winner.diverged else f"{result.winner.accuracy_drop:.3f}",
    )
    return result
