import dataclasses
import fnmatch
import json
import math
import os
import shutil
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from prunespace import (
    DatasetSpec,
    PipelineConfig,
    RunDir,
    ScheduleSpec,
    SchemaError,
    SpaceSpec,
    TrainingDiverged,
    ValidationError,
    accuracy_drop,
    arch_to_json,
    builtin_arch,
    canonical_json,
    dense_key,
    desk_preset,
    derive_seed,
    evaluate,
    explore_space,
    finetune_schedule,
    network_cost,
    full_preset,
    init_weights,
    load_checkpoint,
    pipeline_config_from_json,
    read_trials,
    resolve_arch,
    resolve_plan,
    retrain_top_k,
    run_pipeline,
    sample_population,
    save_checkpoint,
    screen_candidates,
    scratch_schedule,
    train,
    train_dense_baseline,
)
from prunespace import pipeline, runlog
from prunespace.cli import main as cli_main
from prunespace.pipeline import _candidate_pool, blas_threads, worker_count


def _mini_config(seed=0, n=4, top_k=2, method="l2"):
    return PipelineConfig(
        arch="resnet-tiny",
        dataset=DatasetSpec(seed=0, per_class=10),
        space=SpaceSpec(target_cflops=0.5, delta=0.01),
        n=n,
        top_k=top_k,
        short_schedule=finetune_schedule(1),
        full_schedule=finetune_schedule(2),
        dense_schedule=scratch_schedule(2, lr0=0.01),
        seed=seed,
        method=method,
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        _mini_config(n=1, top_k=2)
    with pytest.raises(ValidationError):
        PipelineConfig(
            arch="resnet-tiny", dataset=DatasetSpec(), space=SpaceSpec(target_cflops=0.5),
            n=4, top_k=1, short_schedule=finetune_schedule(5),
            full_schedule=finetune_schedule(2), dense_schedule=scratch_schedule(2),
        )
    with pytest.raises(ValidationError):
        PipelineConfig(
            arch="resnet-tiny", dataset=DatasetSpec(), space=SpaceSpec(target_cflops=0.5),
            n=4, top_k=1, short_schedule=finetune_schedule(1),
            full_schedule=finetune_schedule(2), dense_schedule=finetune_schedule(2),
        )
    with pytest.raises(ValidationError):
        _mini_config(method="largest")


def test_config_json_defaults():
    doc = {
        "arch": "resnet-tiny",
        "space": {"target_cflops": 0.5},
        "n": 4,
        "top_k": 2,
        "short_schedule": {"kind": "finetune", "epochs": 1},
        "full_schedule": {"kind": "finetune", "epochs": 3},
    }
    config = pipeline_config_from_json(doc)
    assert config.dataset == DatasetSpec()
    assert config.dense_schedule == scratch_schedule(3)
    assert config.seed == 0 and config.method == "l2"
    with pytest.raises(SchemaError):
        pipeline_config_from_json({**doc, "bogus": 1})
    with pytest.raises(SchemaError):
        pipeline_config_from_json({k: v for k, v in doc.items() if k != "space"})


def test_presets():
    desk = desk_preset()
    assert (desk.n, desk.top_k) == (30, 3)
    assert desk.short_schedule.epochs == 2 and desk.full_schedule.epochs == 20
    assert desk.dense_schedule.kind == "scratch" and desk.dense_schedule.lr0 == 0.01
    assert desk.space.target_cflops == 0.5 and desk.space.mcb_band == (1.0, 0.1)
    full = full_preset(seed=3)
    assert (full.n, full.top_k) == (300, 5)
    assert full.short_schedule.epochs == 5 and full.full_schedule.epochs == 100
    assert full.arch == "resnet-tiny" and full.seed == 3


def test_resolve_arch_sources(tmp_path):
    assert resolve_arch("chain3").name == "chain3"
    doc = arch_to_json(builtin_arch("chain3"))
    path = tmp_path / "my_arch.json"
    path.write_text(json.dumps(doc))
    assert resolve_arch(str(path)).name == "chain3"
    with pytest.raises(ValidationError):
        resolve_arch("not-an-arch-or-file")


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "3")
    assert worker_count(10) == 3
    assert worker_count(2) == 2
    monkeypatch.setenv("PRUNESPACE_WORKERS", "zero")
    with pytest.raises(ValidationError):
        worker_count(4)
    monkeypatch.setenv("PRUNESPACE_WORKERS", "0")
    with pytest.raises(ValidationError):
        worker_count(4)
    monkeypatch.delenv("PRUNESPACE_WORKERS")
    assert worker_count(1) == 1
    assert worker_count(10_000) >= 1
    # the default follows the CPUs this process may run on, not the machine's
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count(10) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count(10) == 2


def test_dense_baseline_deterministic():
    config = _mini_config()
    a, b = train_dense_baseline(config), train_dense_baseline(config)
    a_weights, a_acc = a.weights, a.accuracy
    b_weights, b_acc = b.weights, b.accuracy
    assert a_acc == b_acc
    for (lid, role, ta), (_, _, tb) in zip(a_weights.items(), b_weights.items()):
        assert np.array_equal(ta, tb), (lid, role)


def test_screen_candidates_order_and_content(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = _mini_config()
    records = screen_candidates(RunDir(tmp_path, config))
    assert [r.index for r in records] == list(range(config.n))
    arch = resolve_arch(config.arch)
    recipes = sample_population(arch, config.space, config.n, derive_seed(config.seed, 3))
    for rec, recipe in zip(records, recipes):
        assert rec.recipe == recipe.ratios
        want = network_cost(arch, resolve_plan(arch, rec.recipe))
        assert rec.cost == want
        assert rec.schedule == "finetune" and rec.epochs == 1
        assert rec.seed == config.seed


def _sharing_dense(source, path, config):
    """A RunDir at `path` that reuses the dense network of the run at `source`."""
    run = RunDir(path, config)
    shutil.copyfile(source / "dense.ckpt", run.path / "dense.ckpt")
    return run


def test_screen_resume_from_partial_log(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = _mini_config()

    full_path = tmp_path / "full" / "trials.jsonl"
    screen_candidates(RunDir(tmp_path / "full", config))

    # keep the header and first two records, then resume
    lines = full_path.read_text().splitlines()
    part_path = tmp_path / "part" / "trials.jsonl"
    part_path.parent.mkdir()
    part_path.write_text("\n".join(lines[:3]) + "\n")
    resumed = screen_candidates(_sharing_dense(tmp_path / "full", tmp_path / "part", config))
    assert part_path.read_bytes() == full_path.read_bytes()
    assert [r.index for r in resumed] == list(range(config.n))

    # a complete log short-circuits to the stored records
    again = screen_candidates(RunDir(tmp_path / "full", config))
    assert again == resumed
    assert full_path.read_bytes() == part_path.read_bytes()


def test_dense_checkpoint_is_reused_only_under_its_key(tmp_path, caplog, capsys):
    source = RunDir(tmp_path / "source", _mini_config(seed=1))
    source.baseline  # trains the dense network and saves it as dense.ckpt
    source_key = load_checkpoint(source.path / "dense.ckpt")[2]["dense_key"]
    assert source_key == dense_key(source.config)

    # another space and population size, the same dense fields: the network is shared
    other_space = dataclasses.replace(
        source.config, space=SpaceSpec(target_cflops=0.3, delta=0.01), n=2, top_k=1
    )
    assert dense_key(other_space) == source_key
    shared = _sharing_dense(tmp_path / "source", tmp_path / "shared", other_space)
    assert shared.baseline.accuracy == source.baseline.accuracy

    # another dense seed: the run refuses the checkpoint, exit 3, naming both keys
    config = _mini_config(seed=0)
    config_file = tmp_path / "config.json"
    config_file.write_text(canonical_json(config.to_json()) + "\n")
    run = _sharing_dense(tmp_path / "source", tmp_path / "run", config)
    with caplog.at_level("ERROR", logger="prunespace"):
        code = cli_main(["explore", "--config", str(config_file), "--out-dir", str(run.path)])
    capsys.readouterr()
    assert code == 3
    assert source_key in caplog.text and dense_key(config) in caplog.text
    assert read_trials(run.path / "trials.jsonl")[1] == []

    # a checkpoint saved without a key is refused as well
    save_checkpoint(
        run.path / "dense.ckpt", source.baseline.weights, source.baseline.arch, meta={"val_accuracy": 1.0}
    )
    with pytest.raises(ValidationError, match=f"dense key None, this run's is {dense_key(config)}"):
        RunDir(run.path, config).baseline


def test_dense_checkpoint_of_an_edited_arch_file_is_refused(tmp_path):
    # the config names the architecture by path, so its dense key does not
    # change with the file's content; the checkpoint's own document does
    doc = arch_to_json(builtin_arch("resnet-tiny"))
    arch_file = tmp_path / "arch.json"
    arch_file.write_text(json.dumps(doc))
    config = dataclasses.replace(_mini_config(), arch=str(arch_file))
    run = RunDir(tmp_path / "run", config)
    arch = resolve_arch(config.arch)
    save_checkpoint(run.path / "dense.ckpt", init_weights(arch, 0), arch, meta={"dense_key": dense_key(config)})
    assert arch_to_json(RunDir(run.path, config).baseline.arch) == doc

    doc["layers"][1].update(k=1, pad=0)
    arch_file.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="another architecture document"):
        RunDir(run.path, config).baseline


def test_screen_rejects_gapped_log(tmp_path, monkeypatch):
    # the refusal comes when the run opens, before any phase runs
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = _mini_config(n=4)
    gap_log = RunDir(tmp_path / "gap", config).trials
    records = screen_candidates(RunDir(tmp_path / "full", config))
    gap_log.append(records[0])
    gap_log.append(records[2])
    with pytest.raises(ValidationError):
        RunDir(tmp_path / "gap", config)
    small = _mini_config(n=2, top_k=1)
    with pytest.raises(ValidationError):
        RunDir(tmp_path / "full", small)
    # a log holding more records than the population is refused too
    long_log = RunDir(tmp_path / "long", small).trials
    for record in records[:3]:
        long_log.append(record)
    with pytest.raises(ValidationError, match="contiguous prefix"):
        RunDir(tmp_path / "long", small)


def test_parallel_matches_serial(tmp_path, monkeypatch):
    config = _mini_config()
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    serial = screen_candidates(RunDir(tmp_path / "serial", config))
    monkeypatch.setenv("PRUNESPACE_WORKERS", "2")
    parallel = screen_candidates(_sharing_dense(tmp_path / "serial", tmp_path / "parallel", config))
    assert serial == parallel
    assert (tmp_path / "serial" / "trials.jsonl").read_bytes() == (
        tmp_path / "parallel" / "trials.jsonl"
    ).read_bytes()


def test_pooled_pipeline_matches_serial(tmp_path, monkeypatch):
    # n=4 and top_k=2 start a pool for screening and another for the finalists
    config = _mini_config(n=4, top_k=2)
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    run_pipeline(config, tmp_path / "serial")
    monkeypatch.setenv("PRUNESPACE_WORKERS", "2")
    run_pipeline(config, tmp_path / "pooled")
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "pooled").iterdir())
    assert sum(name.startswith("finalist_") for name in names) == config.top_k
    for name in names:
        if name != "timings.txt":  # wall-clock observations, outside the contract
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "pooled" / name
            ).read_bytes(), name


def test_pool_workers_run_one_blas_thread():
    before = blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count call")
    with _candidate_pool(None, None, 2) as pool:
        counts = [f.result(timeout=60) for f in [pool.submit(blas_threads) for _ in range(4)]]
    assert counts == [1, 1, 1, 1]
    assert blas_threads() == before


def test_training_bytes_do_not_depend_on_blas_threads():
    # A run trains at one BLAS thread where OpenBLAS exports its thread-count
    # call and at the library's default where it does not, and `train` called
    # outside a run uses the caller's setting; all of them agree only if the
    # kernels' GEMMs give the same bytes at any thread count.
    api = pipeline._openblas_threads_api()
    if api is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count call")
    set_threads, get_threads = api
    arch = builtin_arch("resnet-tiny")
    data = DatasetSpec(seed=0, per_class=20).build()
    start = init_weights(arch, seed=1)
    before = get_threads()
    trained = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            assert get_threads() == threads
            trained.append(train(start, arch, data, scratch_schedule(2), seed=2).weights)
    finally:
        set_threads(before)
    assert get_threads() == before
    for (lid, role, a), (_, _, b) in zip(trained[0].items(), trained[1].items()):
        assert a.tobytes() == b.tobytes(), (lid, role)


@pytest.fixture
def two_blas_threads():
    """This process at two OpenBLAS threads, as on a machine with several cores."""
    api = pipeline._openblas_threads_api()
    if api is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count call")
    set_threads, get_threads = api
    before = get_threads()
    set_threads(2)
    try:
        yield
    finally:
        set_threads(before)


def test_run_holds_one_blas_thread_and_restores_it(tmp_path, monkeypatch, two_blas_threads):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    seen = []
    real_train = pipeline.train

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return real_train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train", spy)
    run_pipeline(_mini_config(n=2, top_k=1), tmp_path / "run")
    assert seen == [1] * 4  # dense, two screened, one finalist
    assert blas_threads() == 2

    def failing(*args, **kwargs):
        seen.append(blas_threads())
        raise RuntimeError("injected training fault")

    monkeypatch.setattr(pipeline, "train", failing)
    with pytest.raises(RuntimeError, match="injected training fault"):
        explore_space(_mini_config(n=2, top_k=1), tmp_path / "failed")
    assert seen[4:] == [1]
    assert blas_threads() == 2


def test_pool_workers_forked_in_a_run_keep_one_os_thread(tmp_path, monkeypatch, two_blas_threads):
    # Setting the thread count in a fresh fork restarts OpenBLAS's thread
    # server, whose helper thread busy-waits on a core the other workers need;
    # a worker forked inside a run inherits one thread and starts no server.
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count this process's OS threads")
    monkeypatch.setenv("PRUNESPACE_WORKERS", "2")
    parent, real = os.getpid(), pipeline._train_candidate

    def counting(config, baseline, full, index, ratios):
        result = real(config, baseline, full, index, ratios)  # trains: GEMMs on this process's BLAS
        assert os.getpid() != parent
        (tmp_path / f"threads_{index}").write_text(str(len(os.listdir("/proc/self/task"))))
        return result

    monkeypatch.setattr(pipeline, "_train_candidate", counting)
    explore_space(_mini_config(), tmp_path / "run")
    counts = {p.name: int(p.read_text()) for p in tmp_path.glob("threads_*")}
    assert counts == {f"threads_{i}": 1 for i in range(4)}


def test_pool_without_blas_thread_call_warns_once(monkeypatch, caplog):
    monkeypatch.setattr(pipeline, "_OPENBLAS_THREAD_SYMBOLS", (("no_such_set", "no_such_get"),))
    pipeline._openblas_threads_api.cache_clear()
    try:
        with caplog.at_level("WARNING", logger="prunespace"):
            for _ in range(2):
                with _candidate_pool(None, None, 2) as pool:
                    assert pool.submit(blas_threads).result(timeout=60) is None
        assert len([r for r in caplog.records if "thread-count" in r.getMessage()]) == 1
    finally:
        pipeline._openblas_threads_api.cache_clear()


def test_retrain_top_k(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = _mini_config()
    run = RunDir(tmp_path, config)
    trials = screen_candidates(run)
    result = retrain_top_k(run, trials)
    assert len(result.finalists) == config.top_k
    for f in result.finalists:
        assert f.schedule == "finetune" and f.epochs == 2
        source = trials[f.index]
        assert f.recipe == source.recipe and f.cost == source.cost
        assert (tmp_path / f"finalist_{f.index}.ckpt").exists()
    best = min(result.finalists, key=lambda t: (t.accuracy_drop, t.cost.c_flops, t.seed))
    assert result.winner == best
    with pytest.raises(ValidationError):
        retrain_top_k(run, trials[:1])


def test_explore_space_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = _mini_config()
    trials = explore_space(config, tmp_path / "a")
    assert len(trials) == config.n
    for name in (
        "config.json", "dense.ckpt", "trials.jsonl", "edf.csv",
        "drop_summary.csv", "drop_histogram.csv", "winners.csv", "timings.txt",
    ):
        assert (tmp_path / "a" / name).exists(), name
    stored = json.loads((tmp_path / "a" / "config.json").read_text())
    assert pipeline_config_from_json(stored) == config

    # byte-identical rerun in a fresh directory
    explore_space(config, tmp_path / "b")
    for name in ("config.json", "trials.jsonl", "edf.csv", "winners.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    # rerun in place reuses the dense checkpoint and rewrites identical content
    before = (tmp_path / "a" / "trials.jsonl").read_bytes()
    explore_space(config, tmp_path / "a")
    assert (tmp_path / "a" / "trials.jsonl").read_bytes() == before


def test_explore_space_refuses_foreign_run_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    explore_space(_mini_config(seed=0), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValidationError, match="different config"):
        explore_space(_mini_config(seed=1), tmp_path)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert after == before


def test_run_pipeline_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = _mini_config()
    result = run_pipeline(config, tmp_path / "run")
    assert (tmp_path / "run" / "winners.json").exists()
    doc = json.loads((tmp_path / "run" / "winners.json").read_text())
    assert set(doc) == {"dense_accuracy", "finalists", "winner"}  # config.json holds the config
    assert doc["dense_accuracy"] == result.dense_accuracy
    assert doc["winner"]["index"] == result.winner.index
    assert len(doc["finalists"]) == config.top_k
    for f in result.finalists:
        if not f.diverged:
            assert (tmp_path / "run" / f"finalist_{f.index}.ckpt").exists()
    # winner comes from the full-schedule finalists
    assert result.winner.epochs == config.full_schedule.epochs

    run_pipeline(config, tmp_path / "rerun")
    assert (tmp_path / "run" / "winners.json").read_bytes() == (
        tmp_path / "rerun" / "winners.json"
    ).read_bytes()


def test_dense_baseline_derived_once_per_run(tmp_path, monkeypatch):
    # a fresh run takes the dense accuracy from the training trace; a rerun
    # into the finished directory evaluates the reloaded checkpoint once and
    # samples no population, since every trial is already logged
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    calls = {"evaluate": 0, "sample_population": 0}

    def counting(name):
        real = getattr(pipeline, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    config = _mini_config()
    out = tmp_path / "run"

    first = run_pipeline(config, out)
    assert calls == {"evaluate": 0, "sample_population": 1}
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.txt"}

    again = run_pipeline(config, out)
    assert calls == {"evaluate": 1, "sample_population": 1}
    assert again.dense_accuracy == first.dense_accuracy
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.txt"}
    assert after == before


def _artifacts(out):
    """Every file of a run directory but the wall-clock sidecar, by name."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "timings.txt"}


def test_explore_rerun_derives_no_baseline(tmp_path, monkeypatch):
    # a finished directory has nothing left to screen, so a rerun of explore
    # neither builds the dataset nor loads or evaluates the dense network
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    calls = {"evaluate": 0, "load_checkpoint": 0, "build": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    config = _mini_config()
    out = tmp_path / "run"
    first = explore_space(config, out)
    before = _artifacts(out)
    counting(pipeline, "evaluate")
    counting(pipeline, "load_checkpoint")
    counting(DatasetSpec, "build")
    again = explore_space(config, out)
    assert calls == {"evaluate": 0, "load_checkpoint": 0, "build": 0}
    assert again == first
    assert _artifacts(out) == before


def test_trial_log_parsed_once_per_run(tmp_path, monkeypatch):
    # the run parses its log once, when it opens it, and then keeps the
    # records in memory; a fresh run has no log to parse
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    calls = []
    real = runlog.read_trials

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runlog, "read_trials", counted)
    config = _mini_config()
    out = tmp_path / "run"

    run_pipeline(config, out)
    assert len(calls) == 0
    whole = _artifacts(out)

    run_pipeline(config, out)
    assert len(calls) == 1
    assert _artifacts(out) == whole

    # keep the header and first two records, then resume
    cut = tmp_path / "cut"
    shutil.copytree(out, cut)
    lines = (cut / "trials.jsonl").read_text().splitlines()
    (cut / "trials.jsonl").write_text("\n".join(lines[:3]) + "\n")
    run_pipeline(config, cut)
    assert len(calls) == 2
    assert _artifacts(cut) == whole


def test_explore_resumes_past_torn_final_line(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = _mini_config()
    explore_space(config, tmp_path / "whole")
    whole = _artifacts(tmp_path / "whole")
    log_bytes = whole["trials.jsonl"]
    last_line_start = log_bytes.rstrip(b"\n").rfind(b"\n") + 1
    cuts = {
        "mid-record": (last_line_start + len(log_bytes)) // 2,
        "before-newline": len(log_bytes) - 1,
    }
    for label, cut in cuts.items():
        out = tmp_path / label
        shutil.copytree(tmp_path / "whole", out)
        (out / "trials.jsonl").write_bytes(log_bytes[:cut])
        explore_space(config, out)
        assert _artifacts(out) == whole, label


_FAULT_POINTS = {
    # target name -> phases of the timings observed before its write
    "config.json": [],
    "dense.ckpt": ["dense"],
    "edf.csv": ["dense"] + ["screen"] * 4,
    "finalist_*.ckpt": ["dense"] + ["screen"] * 4 + ["full"],
    "winners.json": ["dense"] + ["screen"] * 4 + ["full"] * 2,
}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """An uninterrupted, serial run of the mini config."""
    out = tmp_path_factory.mktemp("finished") / "run"
    with pytest.MonkeyPatch.context() as m:
        m.setenv("PRUNESPACE_WORKERS", "1")
        run_pipeline(_mini_config(), out)
    return out


def _run_with_fault(monkeypatch, out, pattern):
    """run_pipeline, with `os.replace` failing once, at the first target whose
    name matches `pattern`; returns that target's name."""
    real_replace = os.replace
    failed = []

    def replace(src, dst):
        if not failed and fnmatch.fnmatch(os.path.basename(dst), pattern):
            failed.append(os.path.basename(dst))
            raise OSError("injected write fault")
        return real_replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="injected write fault"):
            run_pipeline(_mini_config(), out)
    return failed[0]


@pytest.mark.parametrize("target", list(_FAULT_POINTS))
def test_fresh_run_survives_write_fault(tmp_path, monkeypatch, finished_run, target):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    out = tmp_path / "run"
    name = _run_with_fault(monkeypatch, out, target)
    assert not (out / name).exists()
    timings = out / "timings.txt"
    lines = timings.read_text().splitlines() if timings.exists() else []
    assert [line.split("\t")[0] for line in lines] == _FAULT_POINTS[target]
    run_pipeline(_mini_config(), out)
    assert _artifacts(out) == _artifacts(finished_run)


@pytest.mark.parametrize("target", ["edf.csv", "finalist_*.ckpt", "winners.json"])
def test_rerun_survives_write_fault(tmp_path, monkeypatch, finished_run, target):
    # a rerun into a finished directory rewrites its reports, finalists and
    # winners; a failed write leaves the file it was replacing as it was
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    name = _run_with_fault(monkeypatch, out, target)
    assert (out / name).read_bytes() == (finished_run / name).read_bytes()
    run_pipeline(_mini_config(), out)
    assert _artifacts(out) == _artifacts(finished_run)


def test_killed_pool_worker_breaks_the_run_and_a_rerun_converges(tmp_path, monkeypatch, finished_run):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "2")
    parent, real = os.getpid(), pipeline._train_candidate

    def dying(config, baseline, full, index, ratios):
        if index == 1 and os.getpid() != parent:
            os._exit(1)
        return real(config, baseline, full, index, ratios)

    out = tmp_path / "run"
    before = blas_threads()
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_train_candidate", dying)
        with pytest.raises(BrokenProcessPool):
            run_pipeline(_mini_config(), out)
    assert blas_threads() == before
    assert [r.index for r in read_trials(out / "trials.jsonl")[1]] in ([], [0])
    run_pipeline(_mini_config(), out)
    assert _artifacts(out) == _artifacts(finished_run)


def test_killed_pool_worker_exits_6_naming_the_unrecorded_candidates(tmp_path, monkeypatch, caplog, capsys):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "2")
    parent, real = os.getpid(), pipeline._train_candidate

    def dying(config, baseline, full, index, ratios):
        if index == 1 and os.getpid() != parent:
            os._exit(1)
        return real(config, baseline, full, index, ratios)

    monkeypatch.setattr(pipeline, "_train_candidate", dying)
    config_file = tmp_path / "config.json"
    config_file.write_text(canonical_json(_mini_config().to_json()) + "\n")
    out = tmp_path / "run"
    with caplog.at_level("ERROR", logger="prunespace"):
        assert cli_main(["pipeline", "--config", str(config_file), "--out-dir", str(out)]) == 6
    assert "Traceback" not in capsys.readouterr().err
    logged = [r.index for r in read_trials(out / "trials.jsonl")[1]]
    unrecorded = [i for i in range(4) if i not in logged]
    assert 1 in unrecorded
    assert f"screen phase; candidates {unrecorded} were not recorded" in caplog.text


def test_finalist_checkpoints_reload_to_their_logged_drop(finished_run, tmp_path, capsys):
    # a finalist's checkpoint is the subnetwork the run found: it loads with
    # its pruned architecture, scores its logged drop, names the run's
    # dataset, saves back to its own bytes, and trains on that dataset
    winners = json.loads((finished_run / "winners.json").read_text())
    dataset = _mini_config().dataset
    data = dataset.build()
    assert load_checkpoint(finished_run / "dense.ckpt")[2]["dataset"] == dataset.to_json()
    for finalist in winners["finalists"]:
        path = finished_run / f"finalist_{finalist['index']}.ckpt"
        weights, arch, meta = load_checkpoint(path)
        assert meta["drop"] == finalist["accuracy_drop"]
        assert meta["dataset"] == dataset.to_json()
        assert accuracy_drop(winners["dense_accuracy"], evaluate(weights, arch, data[1])) == finalist["accuracy_drop"]
        save_checkpoint(tmp_path / "again.ckpt", weights, arch, meta=meta)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        capsys.readouterr()
        assert cli_main(["train", "--checkpoint", str(path), "--kind", "finetune", "--epochs", "1"]) == 0
        trace = train(weights, arch, data, ScheduleSpec("finetune", 1), 0).trace
        assert json.loads(capsys.readouterr().out)["trace"] == list(trace)


def _diverging_config():
    return PipelineConfig(
        arch="resnet-tiny",
        dataset=DatasetSpec(seed=0, per_class=10),
        space=SpaceSpec(target_cflops=0.5, delta=0.01),
        n=2,
        top_k=1,
        short_schedule=finetune_schedule(1, lr0=50.0),
        full_schedule=finetune_schedule(2, lr0=50.0),
        dense_schedule=scratch_schedule(2, lr0=0.01),
    )


def test_screen_divergence_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = _diverging_config()
    records = screen_candidates(RunDir(tmp_path, config))
    assert all(r.diverged for r in records)
    assert all(math.isinf(r.accuracy_drop) for r in records)


def test_all_diverged_screening_raises(tmp_path, monkeypatch, caplog):
    # a population with no finite drop has no distribution to report: the run
    # stops with TrainingDiverged (CLI exit 5), its trial log complete
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = _diverging_config()
    with pytest.raises(TrainingDiverged, match="all 2 screened candidates diverged"):
        explore_space(config, tmp_path / "api")
    assert len(read_trials(tmp_path / "api" / "trials.jsonl")[1]) == config.n
    assert not (tmp_path / "api" / "edf.csv").exists()

    config_file = tmp_path / "config.json"
    config_file.write_text(canonical_json(config.to_json()) + "\n")
    argv = ["explore", "--config", str(config_file), "--out-dir", str(tmp_path / "cli")]
    with caplog.at_level("ERROR", logger="prunespace"):
        assert cli_main(argv) == 5
    assert "all 2 screened candidates diverged" in caplog.text
