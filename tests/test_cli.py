import json
import re
import weakref

import numpy as np
import pytest

from prunespace import (
    CostReport,
    DatasetSpec,
    NetworkWeights,
    PipelineConfig,
    SpaceSpec,
    TrialLog,
    TrialRecord,
    ValidationError,
    builtin_arch,
    finetune_schedule,
    init_weights,
    load_arch,
    load_checkpoint,
    network_cost,
    one_shot_prune,
    pipeline_config_from_json,
    save_checkpoint,
    scratch_schedule,
)
from prunespace import cost, pipeline
from prunespace.cli import main
from prunespace.network import weight_layout


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["unknown-command"]) == 2
    assert main(["arch"]) == 2  # --arch is required
    assert main(["report", "edf"]) == 2  # --trials is required
    assert main(["explore", "--preset", "bogus", "--out-dir", "x"]) == 2
    capsys.readouterr()


def test_arch_summary(capsys):
    code, out = _run(capsys, "arch", "--arch", "chain3")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "chain3"
    assert doc["layers"] == 3
    assert doc["flops"] == 20796 and doc["params"] == 404
    assert [u["c_out"] for u in doc["prunable_units"]] == [4, 6]
    assert main(["arch", "--arch", "not-a-thing"]) == 3
    capsys.readouterr()


def test_arch_dump_round_trips(capsys):
    code, out = _run(capsys, "arch", "--arch", "resnet-tiny", "--dump")
    assert code == 0
    arch = load_arch(out)
    assert arch.name == "resnet-tiny"
    assert len(arch.layers) == 11


def test_cost_uniform_and_recipe(tmp_path, capsys):
    code, out = _run(capsys, "cost", "--arch", "chain3", "--uniform", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["flops"] == 6942
    assert doc["c_flops"] == pytest.approx(0.333814, abs=1e-6)

    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"arch": "chain3", "ratios": [0.5, 0.5]}))
    code, out = _run(capsys, "cost", "--arch", "chain3", "--recipe", str(recipe))
    assert code == 0
    assert json.loads(out)["flops"] == 6942

    assert main(["cost", "--arch", "chain3", "--recipe", str(recipe), "--uniform", "0.5"]) == 3
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"arch": "resnet-tiny", "ratios": [0.5] * 6}))
    assert main(["cost", "--arch", "chain3", "--recipe", str(wrong)]) == 3
    capsys.readouterr()


def test_cost_and_prune_take_any_ratio_in_the_unit_interval(tmp_path, capsys):
    # 0.97 lies above the default space bound (0.95) but inside [0, 1]; a
    # space with ratio_max 0.99 samples such recipes
    recipe = tmp_path / "r.json"
    ratios = [0.5, 0.97, 0.25, 0.5, 0.5, 0.25]
    recipe.write_text(json.dumps({"arch": "resnet-tiny", "ratios": ratios}))
    code, out = _run(capsys, "cost", "--arch", "resnet-tiny", "--recipe", str(recipe))
    assert code == 0
    cost = json.loads(out)
    assert cost["flops"] == network_cost(builtin_arch("resnet-tiny"), ratios).flops

    dense_ckpt, pruned_ckpt = tmp_path / "dense.ckpt", tmp_path / "pruned.ckpt"
    arch = builtin_arch("resnet-tiny")
    save_checkpoint(dense_ckpt, init_weights(arch, seed=0), arch)
    code, out = _run(
        capsys, "prune", "--checkpoint", str(dense_ckpt),
        "--recipe", str(recipe), "--out-checkpoint", str(pruned_ckpt),
    )
    assert code == 0
    assert json.loads(out) == cost
    weights, _, _ = load_checkpoint(pruned_ckpt)
    assert weights.tensors[1]["w"].shape[1] == 1  # layer 1 keeps round(0.03 * 8) -> 1 filter


def test_sample_deterministic_jsonl(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"target_cflops": 0.5, "delta": 0.01}))
    args = ("sample", "--arch", "resnet-tiny", "--space", str(space), "--n", "3", "--seed", "5")
    code, first = _run(capsys, *args)
    assert code == 0
    lines = first.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        doc = json.loads(line)
        assert doc["arch"] == "resnet-tiny" and len(doc["ratios"]) == 6
    code, second = _run(capsys, *args)
    assert code == 0 and second == first

    out_file = tmp_path / "recipes.jsonl"
    code, _ = _run(capsys, *args, "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == first


def test_sample_calls_share_one_cost_table(tmp_path, capsys, monkeypatch):
    built = []

    class CountingTable(cost.CostTable):
        def __init__(self, arch):
            built.append(arch.name)
            super().__init__(arch)

    monkeypatch.setattr(cost, "CostTable", CountingTable)
    monkeypatch.setattr(cost, "_TABLES", weakref.WeakKeyDictionary())
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"target_cflops": 0.5}))
    for _ in range(2):
        code, _ = _run(capsys, "sample", "--arch", "resnet50-shape", "--space", str(space), "--n", "2")
        assert code == 0
    assert built == ["resnet50-shape"]
    assert builtin_arch("resnet50-shape") is builtin_arch("resnet50-shape")


def test_sample_infeasible_exits_4(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"target_cflops": 0.30, "delta": 0.0001, "std_cap": 0.0}))
    code = main([
        "sample", "--arch", "chain3", "--space", str(space),
        "--n", "1", "--max-attempts", "10",
    ])
    assert code == 4
    capsys.readouterr()


def test_train_prune_train_round_trip(tmp_path, capsys, caplog):
    ds = tmp_path / "ds.json"
    ds.write_text(json.dumps({"per_class": 10, "shape": [3, 8, 8]}))
    trained_on = DatasetSpec(per_class=10, shape=(3, 8, 8)).to_json()
    dense_ckpt = tmp_path / "dense.ckpt"
    code, out = _run(
        capsys, "train", "--arch", "chain3", "--kind", "scratch", "--epochs", "2",
        "--dataset", str(ds), "--out-checkpoint", str(dense_ckpt),
    )
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["val_accuracy"] <= 1.0
    assert len(doc["trace"]) == 2
    assert load_checkpoint(dense_ckpt)[2] == {"val_accuracy": doc["val_accuracy"], "dataset": trained_on}

    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"arch": "chain3", "ratios": [0.5, 0.5]}))
    pruned_ckpt = tmp_path / "pruned.ckpt"
    code, out = _run(
        capsys, "prune", "--checkpoint", str(dense_ckpt),
        "--recipe", str(recipe), "--out-checkpoint", str(pruned_ckpt),
    )
    assert code == 0
    assert json.loads(out)["flops"] == 6942
    weights, arch, meta = load_checkpoint(pruned_ckpt)
    assert meta == {"recipe": {"arch": "chain3", "ratios": [0.5, 0.5]}, "method": "l2", "dataset": trained_on}
    assert weights.tensors[0]["w"].shape == (3, 2, 3, 3)
    assert [l.c_out for l in arch.layers] == [2, 3, 10]

    # the pruned checkpoint carries its own (reduced) architecture, and the
    # dataset it was trained on: 8x8 inputs, which the spec defaults are not
    argv = ["train", "--checkpoint", str(pruned_ckpt), "--kind", "finetune", "--epochs", "1"]
    code, out = _run(capsys, *argv)
    assert code == 0
    assert len(json.loads(out)["trace"]) == 1
    assert _run(capsys, *argv, "--dataset", str(ds))[0] == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"per_class": 20, "shape": [3, 8, 8]}))
    _exits_3_naming(capsys, caplog, [*argv, "--dataset", str(other)], f"{pruned_ckpt} was trained on")
    assert '"per_class":20' in caplog.text and '"per_class":10' in caplog.text


def test_train_requires_a_network(tmp_path, capsys, caplog):
    refusal = "give exactly one of --arch and --checkpoint"
    _exits_3_naming(capsys, caplog, ["train", "--kind", "scratch", "--epochs", "1"], refusal)
    ckpt = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, init_weights(builtin_arch("chain3"), seed=0), builtin_arch("chain3"))
    argv = ["train", "--arch", "chain3", "--checkpoint", str(ckpt), "--epochs", "1"]
    _exits_3_naming(capsys, caplog, argv, refusal)


def test_train_divergence_exits_5(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    ds.write_text(json.dumps({"per_class": 10}))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"kind": "scratch", "epochs": 1, "lr0": 50.0}))
    code = main([
        "train", "--arch", "resnet-tiny", "--schedule", str(sched), "--dataset", str(ds),
    ])
    assert code == 5
    capsys.readouterr()


def _write_trials(path, drops, label_seed=0):
    config = {"purpose": "report-test", "seed": label_seed}
    log = TrialLog(path, config)
    for i, drop in enumerate(drops):
        log.append(
            TrialRecord(
                index=i,
                recipe=(0.4, 0.6),
                arch="chain3",
                cost=CostReport(6942, 153, 6942 / 20796, 153 / 404, (6942 / 20796) / (153 / 404)),
                recipe_std=0.1,
                accuracy_drop=float(drop),
                diverged=False,
                schedule="finetune",
                epochs=2,
                seed=label_seed,
            )
        )
    return path


def test_report_kinds(tmp_path, capsys):
    trials = _write_trials(tmp_path / "t.jsonl", [1.0, 0.5, 2.0, 1.5])
    code, out = _run(capsys, "report", "edf", "--trials", str(trials))
    assert code == 0
    assert out.startswith("accuracy_drop,fraction_below")
    assert len(out.strip().split("\n")) == 5

    code, out = _run(capsys, "report", "summary", "--trials", str(trials))
    assert code == 0 and out.startswith("stat,value\nn,4")

    code, out = _run(capsys, "report", "histogram", "--trials", str(trials), "--bins", "3")
    assert code == 0 and len(out.strip().split("\n")) == 4

    code, out = _run(capsys, "report", "winners", "--trials", str(trials), "--k", "2")
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 3
    assert rows[1].split(",")[1] == "1"  # smallest drop first

    code, out = _run(capsys, "report", "summary", "--trials", str(trials), "--field", "mcb")
    assert code == 0
    assert main(["report", "summary", "--trials", str(trials), "--field", "loss"]) == 3
    capsys.readouterr()


def test_report_compare(tmp_path, capsys):
    a = _write_trials(tmp_path / "a.jsonl", [0.5, 1.0, 0.8])
    b = _write_trials(tmp_path / "b.jsonl", [2.0, 2.5, 1.8], label_seed=1)
    code, out = _run(
        capsys, "report", "compare", "--trials", f"tight={a}", "--trials", f"loose={b}",
    )
    assert code == 0
    assert out.startswith("space_a,space_b,quantile")
    assert "tight,loose" in out and "loose,tight" in out

    # labels default to file stems
    code, out = _run(capsys, "report", "compare", "--trials", str(a), "--trials", str(b))
    assert code == 0 and "a,b," in out

    assert main(["report", "compare", "--trials", f"x={a}", "--trials", f"x={b}"]) == 3
    assert main(["report", "compare", "--trials", str(a)]) == 3
    assert main(["report", "edf", "--trials", str(a), "--trials", str(b)]) == 3
    capsys.readouterr()


def _mini_config_doc():
    return PipelineConfig(
        arch="resnet-tiny",
        dataset=DatasetSpec(seed=0, per_class=10),
        space=SpaceSpec(target_cflops=0.5, delta=0.01),
        n=3,
        top_k=1,
        short_schedule=finetune_schedule(1),
        full_schedule=finetune_schedule(2),
        dense_schedule=scratch_schedule(2, lr0=0.01),
    ).to_json()


def test_explore_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_mini_config_doc()))
    out_dir = tmp_path / "run"
    code, out = _run(capsys, "explore", "--config", str(config), "--out-dir", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 3
    assert doc["out"] == str(out_dir)
    assert (out_dir / "trials.jsonl").exists()
    assert (out_dir / "edf.csv").exists()
    assert main(["explore", "--out-dir", str(out_dir)]) == 3  # neither config nor preset
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit",
    [
        {"dataset": {"per_class": 3}},
        {"dataset": {"shape": [3, 8, 8]}},
        {"dataset": {"num_classes": 12}},
        {"arch": "not-an-arch"},
    ],
    ids=["per_class 3", "shape 3x8x8", "12 classes", "unknown arch"],
)
def test_unrunnable_config_claims_no_run_dir(tmp_path, capsys, monkeypatch, edit):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    good = _mini_config_doc()
    bad = {k: {**good[k], **v} if isinstance(v, dict) else v for k, v in edit.items()}
    paths = {}
    for name, doc in (("good", good), ("bad", {**good, **bad})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    assert main(["explore", "--config", str(paths["bad"]), "--out-dir", str(out_dir)]) == 3
    assert list(out_dir.iterdir()) == []
    assert main(["explore", "--config", str(paths["good"]), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()


def test_infeasible_space_exits_4_before_dense_training(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    monkeypatch.setattr(pipeline, "train_dense_baseline", lambda *a: pytest.fail("trained the dense network"))
    doc = {**_mini_config_doc(), "space": {"target_cflops": 0.02, "ratio_max": 0.5}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out-dir", str(out_dir)]) == 4
    assert not (out_dir / "dense.ckpt").exists()
    capsys.readouterr()


def test_pipeline_cli_with_seed_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRUNESPACE_WORKERS", "1")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_mini_config_doc()))
    out_dir = tmp_path / "run"
    summary = tmp_path / "summary.json"
    code, _ = _run(
        capsys, "pipeline", "--config", str(config), "--out-dir", str(out_dir),
        "--seed", "2", "--out", str(summary),
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert set(doc) == {"dense_accuracy", "winner", "out"}
    assert (out_dir / "winners.json").exists()
    stored = json.loads((out_dir / "config.json").read_text())
    assert pipeline_config_from_json(stored).seed == 2


# -- malformed read-back documents ------------------------------------------------

_TRIAL_LINE = {
    "index": 0, "recipe": [0.4, 0.6], "arch": "chain3",
    "cost": {"flops": 6942, "params": 153, "c_flops": 0.25, "c_params": 0.5, "mcb": 0.5},
    "recipe_std": 0.1, "accuracy_drop": 1.5, "diverged": False, "schedule": "finetune",
    "epochs": 2, "seed": 0,
}

_DIVERGENCE_RULE = "TrialRecord: accuracy_drop must be null or inf exactly when the trial diverged"

# Each is (fields set on a valid trial line, text the refusal must name). Before
# trial lines were read as specs, "diverged": "false" read as a diverged trial,
# and the next six were coerced or silently accepted. Before float fields
# refused JSON's non-finite tokens, the last two read back.
_MALFORMED_TRIALS = [
    ({"diverged": "false"}, "TrialRecord.diverged must be true or false"),
    ({"index": 2.7}, "TrialRecord.index must be an integer"),
    ({"index": "3"}, "TrialRecord.index must be an integer"),
    ({"epochs": True}, "TrialRecord.epochs must be an integer"),
    ({"seed": 1.9}, "TrialRecord.seed must be an integer"),
    ({"accuracy_drop": "1.5"}, "TrialRecord.accuracy_drop must be a number"),
    ({"diverged": True, "accuracy_drop": 3.0}, _DIVERGENCE_RULE),
    ({"bogus": 1}, "TrialRecord has unknown fields ['bogus']"),
    ({"accuracy_drop": None}, _DIVERGENCE_RULE),
    ({"accuracy_drop": float("inf")}, "TrialRecord.accuracy_drop must be a number, got Infinity"),
    ({"recipe_std": float("nan")}, "TrialRecord.recipe_std must be a number, got NaN"),
    ({"recipe": [0.4, float("inf")]}, "TrialRecord.recipe[1] must be a number, got Infinity"),
]

# Each is (the header line of a trial log, text the refusal must name).
_MALFORMED_HEADERS = [
    ({"schema_version": 1}, "LogHeader misses the required field 'config_hash'"),
    ({"schema_version": "1", "config_hash": "0"}, "LogHeader.schema_version must be an integer"),
]


def _exits_3_naming(capsys, caplog, argv, text):
    with caplog.at_level("ERROR", logger="prunespace"):
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert text in caplog.text
    assert "Traceback" not in caplog.text + err


@pytest.mark.parametrize(
    "changes, text", _MALFORMED_TRIALS, ids=[json.dumps(c) for c, _ in _MALFORMED_TRIALS]
)
def test_malformed_trial_line_exits_3(changes, text, tmp_path, capsys, caplog):
    path = tmp_path / "t.jsonl"
    line = json.dumps({**_TRIAL_LINE, **changes})  # json writes inf as Infinity
    path.write_text('{"schema_version":1,"config_hash":"0"}\n' + line + "\n")
    _exits_3_naming(capsys, caplog, ["report", "summary", "--trials", str(path)], f"line 2: {text}")


@pytest.mark.parametrize(
    "header, text", _MALFORMED_HEADERS, ids=[json.dumps(h) for h, _ in _MALFORMED_HEADERS]
)
def test_malformed_log_header_exits_3(header, text, tmp_path, capsys, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_mini_config_doc()))
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "trials.jsonl").write_text(json.dumps(header) + "\n")
    argv = ["explore", "--config", str(config), "--out-dir", str(out_dir)]
    _exits_3_naming(capsys, caplog, argv, f"line 1: {text}")


def _edit_checkpoint(path, edit_header, edit_body):
    magic, _, rest = path.read_bytes().partition(b"\n")
    header, _, body = rest.partition(b"\n")
    doc = json.loads(header)
    if edit_header:
        edit_header(doc)
    path.write_bytes(magic + b"\n" + json.dumps(doc).encode() + b"\n" + (edit_body(body) if edit_body else body))


# Each is (an edit of a valid chain3 float32 checkpoint's header, one of its body, text
# the refusal must name). A version-1 header names its architecture instead of holding
# it; a version-2 header lists each tensor's place in the body as `entries`. The body
# is 404 float32 parameters, 1616 bytes, ending in the classifier's (6, 10) w.
_MALFORMED_CHECKPOINTS = [
    ("version 1", lambda doc: doc.update(version=1, arch="chain3"), None,
     "checkpoint version 1 unsupported (expected 3)"),
    ("version 2", lambda doc: doc.update(version=2), None, "checkpoint version 2 unsupported (expected 3)"),
    ("one tensor short", None, lambda body: body[: -6 * 10 * 4],
     "checkpoint body holds 1376 bytes, its architecture lays out 1616"),
    ("trailing bytes", None, lambda body: body + bytes(4),
     "checkpoint body holds 1620 bytes, its architecture lays out 1616"),
    ("arch off shapes", lambda doc: doc["arch"]["layers"][0].update(k=1, pad=0), None,
     "checkpoint body holds 1616 bytes, its architecture lays out 1232"),
]


@pytest.mark.parametrize(
    "edit_header, edit_body, text", [c[1:] for c in _MALFORMED_CHECKPOINTS], ids=[c[0] for c in _MALFORMED_CHECKPOINTS]
)
def test_malformed_checkpoint_header_exits_3(edit_header, edit_body, text, tmp_path, capsys, caplog):
    ckpt, recipe = tmp_path / "w.ckpt", tmp_path / "r.json"
    save_checkpoint(ckpt, init_weights(builtin_arch("chain3"), seed=0), builtin_arch("chain3"))
    _edit_checkpoint(ckpt, edit_header, edit_body)
    recipe.write_text(json.dumps({"arch": "chain3", "ratios": [0.5, 0.5]}))
    argv = [
        "prune", "--checkpoint", str(ckpt), "--recipe", str(recipe),
        "--out-checkpoint", str(tmp_path / "out.ckpt"),
    ]
    _exits_3_naming(capsys, caplog, argv, text)


def _chain3():
    return builtin_arch("chain3")


def _relaid(edit):
    """chain3 weights on a layout `edit` changes; only a hand-built layout can be off its architecture."""
    def build():
        layout = list(weight_layout(_chain3()))
        edit(layout)
        return NetworkWeights.empty(layout, np.float32)
    return build


def _drop_w(layout):
    layout.remove((1, "w", (4, 6, 3, 3)))


def _short_bias(layout):
    layout[0] = (0, "b", (2,))


def _extra_layer(layout):
    layout.append((3, "w", (6, 10)))


def _extra_role(layout):
    layout.insert(5, (2, "scale", (10,)))


def _pruned_chain3():
    arch = _chain3()
    return one_shot_prune(init_weights(arch, seed=0), arch, [0.5, 0.5]).arch


# Weights off their architecture are refused when saved, so no checkpoint that
# `prune` reads can hold them: nothing is written, not even the temp file.
@pytest.mark.parametrize("weights, arch, text", [
    (_relaid(_drop_w), _chain3, "weight entry 3: the weights hold (2, 'b', (10,)), the architecture lays out (1, 'w', (4, 6, 3, 3))"),
    (_relaid(_short_bias), _chain3, "weight entry 0: the weights hold (0, 'b', (2,)), the architecture lays out (0, 'b', (4,))"),
    (_relaid(_extra_layer), _chain3, "weight entry 6: the weights hold (3, 'w', (6, 10)), the architecture lays out nothing"),
    (_relaid(_extra_role), _chain3, "weight entry 5: the weights hold (2, 'scale', (10,)), the architecture lays out (2, 'w', (6, 10))"),
    (lambda: init_weights(_chain3(), seed=0), _pruned_chain3,
     "weight entry 0: the weights hold (0, 'b', (4,)), the architecture lays out (0, 'b', (2,))"),
    (lambda: init_weights(builtin_arch("resnet-tiny"), seed=0), _chain3,
     "weight entry 0: the weights hold (0, 'scale', (8,)), the architecture lays out (0, 'b', (4,))"),
], ids=["no w", "short bias", "extra layer", "extra role", "dense on pruned", "resnet-tiny on chain3"])
def test_prune_checkpoint_missing_a_role_exits_3(weights, arch, text, tmp_path):
    with pytest.raises(ValidationError, match=re.escape(text)):
        save_checkpoint(tmp_path / "w.ckpt", weights(), arch())
    assert list(tmp_path.iterdir()) == []
