"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines. Criteria
10 and 11 train real networks and dominate the runtime (a few minutes total);
everything else finishes in seconds. Criterion 11 is exploratory: its space
comparison is printed for inspection, only its bookkeeping is asserted.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from prunespace import (
    Batch,
    DatasetSpec,
    SpaceSpec,
    builtin_arch,
    canonical_json,
    compare_spaces,
    derive_seed,
    edf,
    edf_eval,
    finetune_schedule,
    forward,
    init_weights,
    is_member,
    layer_cost,
    load_arch,
    loss_and_grads,
    network_cost,
    one_shot_prune,
    prunable_units,
    resolve_plan,
    rewind_schedule,
    lr_at,
    sample_population,
    save_checkpoint,
    scratch_schedule,
    softmax_cross_entropy,
    winner_mcb_by_regime,
)
from prunespace.cli import main as cli_main
from prunespace.pipeline import (
    PipelineConfig,
    RunDir,
    dense_key,
    desk_preset,
    run_pipeline,
    screen_candidates,
    train_dense_baseline,
)

from .oracles import edf_value, enumerate_network_cost, finite_diff_grads


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {num:02d} {verdict} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def desk_dense():
    """Dense baseline for the desk preset, trained once and shared."""
    config = desk_preset()
    t0 = time.perf_counter()
    baseline = train_dense_baseline(config)
    return baseline, time.perf_counter() - t0


def test_criterion_01_cost_model_matches_enumeration():
    t0 = time.perf_counter()
    checked = 0
    for name in ("chain3", "resnet-tiny"):
        arch = builtin_arch(name)
        n_units = len(prunable_units(arch))
        for ratios in itertools.product((0.0, 0.25, 0.5, 0.75), repeat=n_units):
            plan = resolve_plan(arch, ratios)
            cost = network_cost(arch, plan)
            macs, params = enumerate_network_cost(arch, plan)
            assert (cost.flops, cost.params) == (macs, params), (name, ratios)
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "cost model equals per-MAC enumeration on the full ratio grid",
        elapsed < 10.0,
        f"{checked} plans exact in {elapsed:.2f}s",
    )


def test_criterion_02_pruning_scales_both_adjacent_layers():
    # plain chain, first unit 8 filters wide: conv 3->8, conv 8->5, fc
    doc = {
        "name": "chain-8",
        "input": [3, 8, 8],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": 3, "c_out": 8, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": True},
            {"id": 1, "kind": "conv", "c_in": 8, "c_out": 5, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": True},
            {"id": 2, "kind": "fc", "c_in": 5, "c_out": 7, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1], [1, 2]],
        "classifier": 2,
    }
    arch = load_arch(doc)
    l0, l1 = arch.layers[0], arch.layers[1]
    dense0 = layer_cost(l0, 3, 8)[0]
    dense1 = layer_cost(l1, 8, 5)[0]
    for m in (2, 4, 6):
        plan = resolve_plan(arch, (m / 8, 0.0))
        kept = plan.kept[0]
        assert kept == 8 - m
        assert layer_cost(l0, 3, kept)[0] * 8 == dense0 * (8 - m)
        assert layer_cost(l1, kept, 5)[0] * 8 == dense1 * (8 - m)
    _report(
        2,
        "removing m of 8 filters scales both touching layers by (8-m)/8",
        True,
        "m in {2, 4, 6}, exact integer equality",
    )


def test_criterion_03_resnet50_uniform_half_band():
    t0 = time.perf_counter()
    arch = builtin_arch("resnet50-shape")
    plan = resolve_plan(arch, [0.5] * len(prunable_units(arch)))
    c_flops = network_cost(arch, plan).c_flops
    elapsed = time.perf_counter() - t0
    in_band = abs(c_flops - 0.259) <= 0.015
    _report(
        3,
        "uniform 0.5 recipe on the 50-layer residual shape lands near 0.259",
        in_band and elapsed < 1.0,
        f"c_flops {c_flops:.4f}, {elapsed:.3f}s",
    )


def test_criterion_04_dense_identities():
    for name in ("chain3", "resnet-tiny", "resnet50-shape"):
        assert network_cost(builtin_arch(name)).mcb == 1.0
    arch = builtin_arch("resnet-tiny")
    weights = init_weights(arch, seed=3)
    pruned = one_shot_prune(weights, arch, (0.0,) * len(prunable_units(arch)))
    cost = network_cost(arch, pruned.plan)
    assert cost.c_flops == 1.0 and cost.c_params == 1.0
    for lid, role, tensor in weights.items():
        kept = pruned.weights.tensors[lid][role]
        assert tensor.tobytes() == kept.tobytes(), (lid, role)
    _report(
        4,
        "dense mcb is exactly 1.0 and the zero recipe is a bit-identical no-op",
        True,
    )


def test_criterion_05_sampler_soundness():
    arch = builtin_arch("resnet-tiny")
    t0 = time.perf_counter()
    spaces = (
        SpaceSpec(target_cflops=0.25, delta=0.002),
        SpaceSpec(target_cflops=0.25, delta=0.002, std_cap=0.01),
        SpaceSpec(target_cflops=0.25, delta=0.002, std_cap=0.01, mcb_band=(1.0, 0.1)),
    )
    members = 0
    for i, space in enumerate(spaces):
        population = sample_population(arch, space, 1000, derive_seed(7, i))
        members += sum(1 for r in population if is_member(arch, space, r).passed)
        assert population == sample_population(arch, space, 1000, derive_seed(7, i))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "constrained sampling is 100% sound and seed-reproducible",
        members == 3000 and elapsed < 60.0,
        f"{members}/3000 members in {elapsed:.1f}s",
    )


def test_criterion_06_edf_laws():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 26))
        drops = np.round(rng.normal(2.0, 3.0, size=n), 1)
        curve = edf(drops.tolist())
        finite = np.sort(drops)
        probes = np.concatenate([finite, finite + 0.05, [finite[0] - 1.0, finite[-1] + 1.0]])
        last = -1.0
        for e in np.sort(probes):
            f = edf_eval(curve, float(e))
            assert f == edf_value(finite.tolist(), float(e))  # strict inequality
            assert f >= last  # monotone nondecreasing
            count = f * n
            assert abs(count - round(count)) < 1e-9  # n*F(e) integral
            last = f
        assert edf_eval(curve, float(finite[0]) - 1.0) == 0.0
        assert edf_eval(curve, float(finite[-1]) + 1.0) == 1.0
    _report(6, "EDF laws hold on 1000 random drop sets", True)


def test_criterion_07_pruned_forward_equals_masked_dense():
    arch = builtin_arch("resnet-tiny")
    n_units = len(prunable_units(arch))
    from .oracles import masked_dense_logits

    worst = 0.0
    rng = np.random.default_rng(23)
    for pair in range(50):
        weights = init_weights(arch, seed=int(rng.integers(1 << 30)), dtype=np.float64)
        recipe = tuple(float(r) for r in rng.uniform(0.0, 0.9, size=n_units))
        batch = Batch(rng.normal(size=(4, *arch.input_shape)), rng.integers(0, 10, size=4))
        pruned = one_shot_prune(weights, arch, recipe)
        logits, _ = forward(pruned.weights, pruned.arch, batch)
        reference = masked_dense_logits(weights, arch, pruned, batch)
        rel = np.abs(logits - reference) / np.maximum(np.abs(reference), 1e-12)
        worst = max(worst, float(rel.max()))
    _report(
        7,
        "pruned forward equals the zero-masked dense forward",
        worst < 1e-5,
        f"worst per-logit relative error {worst:.2e} over 50 pairs",
    )


def test_criterion_08_gradients_match_finite_differences():
    doc = {
        "name": "gradcheck",
        "input": [2, 6, 6],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": 2, "c_out": 3, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": True, "group": 0},
            {"id": 1, "kind": "conv", "c_in": 3, "c_out": 3, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": True, "group": 0},
            {"id": 2, "kind": "conv", "c_in": 3, "c_out": 4, "k": 3, "stride": 2,
             "pad": 1, "bias": True, "prunable": True},
            {"id": 3, "kind": "fc", "c_in": 4, "c_out": 3, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1], [0, 2], [1, 2], [2, 3]],
        "classifier": 3,
    }
    arch = load_arch(doc)
    assert init_weights(arch, 0).num_params() <= 500

    def loss_fn(w, a, b):
        logits, _ = forward(w, a, b)
        return softmax_cross_entropy(logits, b.labels)[0]

    def worst_rel(analytic, numeric):
        worst = 0.0
        for lid in analytic.tensors:
            for role, g in analytic.tensors[lid].items():
                ref = numeric[lid][role]
                err = float(np.linalg.norm(np.asarray(g, dtype=np.float64) - ref))
                worst = max(worst, err / max(float(np.linalg.norm(ref)), 1e-12))
        return worst

    worst32 = worst64 = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=(4, 2, 6, 6))
        labels = rng.integers(0, 3, size=4)

        # single precision: analytic fp32 grads against the fp64 reference
        w32 = init_weights(arch, seed=seed, dtype=np.float32)
        _, g32 = loss_and_grads(w32, arch, Batch(x.astype(np.float32), labels))
        ref = finite_diff_grads(w32.astype(np.float64), arch, Batch(x, labels), loss_fn, eps=1e-6)
        worst32 = max(worst32, worst_rel(g32, ref))

        w64 = init_weights(arch, seed=seed, dtype=np.float64)
        _, g64 = loss_and_grads(w64, arch, Batch(x, labels))
        ref64 = finite_diff_grads(w64, arch, Batch(x, labels), loss_fn, eps=1e-5)
        worst64 = max(worst64, worst_rel(g64, ref64))
    _report(
        8,
        "analytic gradients match central finite differences",
        worst32 < 1e-3 and worst64 < 1e-6,
        f"fp32 {worst32:.2e} < 1e-3, fp64 {worst64:.2e} < 1e-6, 5 seeds",
    )


def test_criterion_09_schedule_anchor_values():
    ft = finetune_schedule(10)
    assert ft.lr0 == 0.01
    assert lr_at(ft, 0) == 0.01
    assert math.isclose(lr_at(ft, 5), 0.005, rel_tol=1e-12)
    assert lr_at(ft, 10) == 0.0
    rw = rewind_schedule(20, lr0=0.1)
    assert rw.warmup_epochs == 5
    assert math.isclose(lr_at(rw, 5), 0.1, rel_tol=1e-12)
    assert lr_at(rw, 0) == 0.0
    _report(
        9,
        "schedule anchors: finetune 0.01 -> 0.005 -> 0, rewind warmup tops out at lr0",
        True,
    )


def test_criterion_10_desk_scale_end_to_end(desk_dense, tmp_path):
    baseline, dense_seconds = desk_dense
    dense_acc = baseline.accuracy
    _report(
        10,
        "dense baseline reaches 95% validation accuracy inside five minutes",
        dense_acc >= 0.95 and dense_seconds <= 300.0,
        f"accuracy {dense_acc:.4f} in {dense_seconds:.0f}s",
    )
    t0 = time.perf_counter()
    result = run_pipeline(desk_preset(), tmp_path / "desk")
    elapsed = time.perf_counter() - t0
    drop = result.winner.accuracy_drop
    _report(
        10,
        "desk preset pipeline finishes inside ten minutes with winner drop <= 2 points",
        elapsed <= 600.0 and drop <= 2.0,
        f"winner drop {drop:.3f} points in {elapsed:.0f}s",
    )


def test_criterion_11_std_space_comparison(desk_dense, tmp_path):
    """Exploratory: reported for inspection, dominance not asserted."""
    baseline, _ = desk_dense
    arch = builtin_arch("resnet-tiny")
    configs = {
        "std-0.01": 0.01,
        "std-0.10": 0.1,
    }
    trials_by_space = {}
    for label, cap in configs.items():
        config = PipelineConfig(
            arch="resnet-tiny",
            dataset=DatasetSpec(),
            space=SpaceSpec(target_cflops=0.1, std_cap=cap),
            n=50,
            top_k=5,
            short_schedule=finetune_schedule(2),
            full_schedule=finetune_schedule(20),
            dense_schedule=scratch_schedule(20, lr0=0.01),
            seed=0,
        )
        # both spaces prune the desk preset's dense network, placed in each run as its
        # dense.ckpt under the preset's key, which a run reuses only if it equals its own
        run = RunDir(tmp_path / label, config)
        meta = {"dense_key": dense_key(desk_preset()), "val_accuracy": baseline.accuracy}
        save_checkpoint(run.path / "dense.ckpt", baseline.weights, baseline.arch, meta=meta)
        trials_by_space[label] = screen_candidates(run)
    assert all(len(t) == 50 for t in trials_by_space.values())

    report = compare_spaces(trials_by_space)
    pair = next(p for p in report.pairs if p.space_a == "std-0.01")
    medians = {}
    for label, trials in trials_by_space.items():
        row = winner_mcb_by_regime(arch, {0.1: trials}, 5)[0]
        medians[label] = (row.winner_mcb_median, row.uniform_mcb)
    detail = (
        f"tight dominates at pooled median: {pair.a_dominates_at_median}, "
        f"EDF diff at median {pair.diffs[1]:+.3f}; winner mcb medians "
        + ", ".join(
            f"{label} {med:.3f} (uniform {uni:.3f})" for label, (med, uni) in medians.items()
        )
    )
    _report(11, "low-std space comparison at a tenth of the compute, reported", True, detail)


def test_criterion_12_byte_identical_reruns(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"target_cflops": 0.5, "delta": 0.01}))
    samples = []
    for run in (1, 2):
        out = tmp_path / f"samples{run}.jsonl"
        code = cli_main([
            "sample", "--arch", "resnet-tiny", "--space", str(space_file),
            "--n", "20", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        samples.append(out.read_bytes())
    capsys.readouterr()
    assert samples[0] == samples[1]

    config = PipelineConfig(
        arch="resnet-tiny",
        dataset=DatasetSpec(per_class=10),
        space=SpaceSpec(target_cflops=0.5, delta=0.01),
        n=6,
        top_k=2,
        short_schedule=finetune_schedule(1),
        full_schedule=finetune_schedule(2),
        dense_schedule=scratch_schedule(2, lr0=0.01),
        seed=0,
    )
    config_file = tmp_path / "config.json"
    config_file.write_text(canonical_json(config.to_json()) + "\n")
    for run in (1, 2):
        code = cli_main([
            "explore", "--config", str(config_file), "--out-dir", str(tmp_path / f"run{run}"),
        ])
        assert code == 0
    capsys.readouterr()
    compared = []
    for name in ("config.json", "dense.ckpt", "trials.jsonl", "edf.csv",
                 "drop_summary.csv", "drop_histogram.csv", "winners.csv"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, name
        compared.append(name)

    reports = []
    for run in (1, 2):
        out = tmp_path / f"edf{run}.csv"
        code = cli_main([
            "report", "edf", "--trials", str(tmp_path / "run1" / "trials.jsonl"),
            "--out", str(out),
        ])
        assert code == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    _report(
        12,
        "sample, explore, and report reruns are byte-identical",
        True,
        f"{len(compared)} artifact files plus sample and report outputs",
    )
