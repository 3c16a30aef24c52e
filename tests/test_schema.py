"""The one schema layer for run documents: pinned config.json bytes, round
trips of every spec, and strict refusal of malformed documents."""

import dataclasses
import functools
import hashlib
import importlib.util
import json
import operator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunespace import (
    METHODS,
    DatasetSpec,
    PipelineConfig,
    PruningRecipe,
    ScheduleSpec,
    SchemaError,
    SpaceSpec,
    ValidationError,
    canonical_json,
    dense_key,
    desk_preset,
    finetune_schedule,
    full_preset,
    pipeline_config_from_json,
    scratch_schedule,
)
from prunespace.cli import main as cli_main
from prunespace.sampling import DEFAULT_DELTA
from prunespace.schema import spec_from_json
from prunespace.training import KINDS
from tests.test_cli import _mini_config_doc
from tests.test_pipeline import _diverging_config, _mini_config

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _demo(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _acceptance_config(**overrides):
    fields = dict(
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
    return PipelineConfig(**{**fields, **overrides})


def _criterion_11_config(cap):
    return _acceptance_config(
        dataset=DatasetSpec(),
        space=SpaceSpec(target_cflops=0.1, std_cap=cap),
        n=50,
        top_k=5,
        short_schedule=finetune_schedule(2),
        full_schedule=finetune_schedule(20),
        dense_schedule=scratch_schedule(20, lr0=0.01),
    )


# The documents of every config the presets, tests and demos build, as config.json holds them.
_PINNED_CONFIGS = {
    "desk_preset": lambda: desk_preset().to_json(),
    "full_preset": lambda: full_preset().to_json(),
    "test_pipeline.mini": lambda: _mini_config().to_json(),
    "test_pipeline.mini_seed7": lambda: _mini_config(seed=7).to_json(),
    "test_pipeline.mini_seed1": lambda: _mini_config(seed=1).to_json(),
    "test_pipeline.mini_small": lambda: _mini_config(n=2, top_k=1).to_json(),
    "test_pipeline.diverging": lambda: _diverging_config().to_json(),
    "test_pipeline.defaults": lambda: pipeline_config_from_json({
        "arch": "resnet-tiny",
        "space": {"target_cflops": 0.5},
        "n": 4,
        "top_k": 2,
        "short_schedule": {"kind": "finetune", "epochs": 1},
        "full_schedule": {"kind": "finetune", "epochs": 3},
    }).to_json(),
    "test_cli.mini": _mini_config_doc,
    "test_cli.mini_seed2": lambda: dataclasses.replace(
        pipeline_config_from_json(_mini_config_doc()), seed=2
    ).to_json(),
    "criterion_11.std-0.01": lambda: _criterion_11_config(0.01).to_json(),
    "criterion_11.std-0.10": lambda: _criterion_11_config(0.1).to_json(),
    "criterion_12": lambda: _acceptance_config().to_json(),
    "demo_04.std-free": lambda: _demo("04_population_analysis").config_for(None).to_json(),
    "demo_04.std-0.02": lambda: _demo("04_population_analysis").config_for(0.02).to_json(),
    "demo_05": lambda: _demo("05_full_pipeline").CONFIG.to_json(),
    "params_only": lambda: _acceptance_config(
        space=SpaceSpec(target_cparams=0.4, delta_params=0.01, std_cap=0.1),
    ).to_json(),
}

_PINNED_DIGESTS = {
    "desk_preset": "81e736d370f47eec9c428159f7feb7f98fb859a682071df5819585f441c185ee",
    "full_preset": "975339357e85297b4813b53848732c9ad08e22e35d64260e1680f28345b9771b",
    "test_pipeline.mini": "2167b8dc0ba5cca08482db5ad5eb850a0ae3712aba1f6e83f7ca60099608dff6",
    "test_pipeline.mini_seed7": "a0781bde870337a71cc11fe89bc663fe3035b1a4119675a286f853ba59613e14",
    "test_pipeline.mini_seed1": "87cc13ad1100b0ccb14734615d0473277bb748a81788bd97e0fdf6e5cb1af825",
    "test_pipeline.mini_small": "37781b87a5d5cc1c41f66072dbab9fdb446346ef2aa620fa9996ed29fc0e6773",
    "test_pipeline.diverging": "6bf53e1246a1e9677e1eb9ff04ba3f91404f38917bd946993904fda7fb2664c0",
    "test_pipeline.defaults": "5a406a532caa517098fe40ae6e827564125b401d2c35951874cd0579b85e8027",
    "test_cli.mini": "b21fd1e321333543c25a039370791e27384f663077f10c66f0a7ffd90bbc726f",
    "test_cli.mini_seed2": "a61f950e1fe693511f835f7e038aea0051e4739131b839c86ef8ea568c53fdc3",
    "criterion_11.std-0.01": "98c8ae8c80644f80576f2094d460effc9626653ab17aac137682e2bb41d7b6f9",
    "criterion_11.std-0.10": "cc16459f34314d77e25403031e7e7367c0106e6b4dc733bd4486fe319ea87134",
    "criterion_12": "4c0695abb9e3ff92f0c1d33b10583c212cd7fe22c1d62cfa2e03a432e1f45959",
    "demo_04.std-free": "7b605dbfcac75c3e50e267552d98a5a819ce495909ac9fef68a8335adb8548bd",
    "demo_04.std-0.02": "4b090f4acaa1cdd019c42672fc4fb948af2656e10e0c69be522ed9807a33be16",
    "demo_05": "88edcd82e3d96494488818d28672a6e9323f607218a80b7ca8ccd0cf3d3afd5f",
    "params_only": "282ef5451778fa7ffd6073be46e3a6a32b9108de72d2ea38b80362af4e267d34",
}


def test_config_json_bytes_are_pinned():
    got = {
        name: hashlib.sha256(canonical_json(build()).encode()).hexdigest()
        for name, build in _PINNED_CONFIGS.items()
    }
    assert got == _PINNED_DIGESTS


def test_shared_dense_networks_fit_their_runs():
    # criterion 11 reuses the desk preset's dense network, demo 04 its std-free one
    assert dense_key(_criterion_11_config(0.01)) == dense_key(desk_preset())
    assert dense_key(_criterion_11_config(0.1)) == dense_key(desk_preset())
    demo = _demo("04_population_analysis")
    assert dense_key(demo.config_for(0.02)) == dense_key(demo.config_for(None))
    assert dense_key(_mini_config(seed=1)) != dense_key(_mini_config())


# -- round trips ------------------------------------------------------------------

# a float field also takes an integer, which it keeps as an integer
_unit = st.floats(0.0, 1.0) | st.integers(0, 1)
_open_unit = st.floats(0.0, 1.0, exclude_min=True) | st.just(1)


@st.composite
def _spaces(draw):
    # to_json leaves out the half-width of an absent target, so it keeps its default
    flops = draw(st.none() | _open_unit)
    params = draw(_open_unit if flops is None else st.none() | _open_unit)
    return SpaceSpec(
        target_cflops=flops,
        delta=DEFAULT_DELTA if flops is None else draw(_unit),
        target_cparams=params,
        delta_params=DEFAULT_DELTA if params is None else draw(_unit),
        std_cap=draw(st.none() | _unit),
        mcb_band=draw(st.none() | st.tuples(st.floats(0.0, 10.0, exclude_min=True), _unit)),
        ratio_max=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )


@st.composite
def _schedules(draw, kinds=KINDS, max_epochs=200):
    kind = draw(st.sampled_from([k for k in kinds if k != "rewind" or max_epochs > 1]))
    epochs = draw(st.integers(2 if kind == "rewind" else 1, max_epochs))
    return ScheduleSpec(
        kind,
        epochs,
        lr0=draw(st.none() | st.floats(0.0, 10.0, exclude_min=True)),
        warmup_epochs=draw(st.integers(1, epochs - 1) if kind == "rewind" else st.integers(0, 10)),
        momentum=draw(st.floats(0.0, 1.0, exclude_max=True)),
        weight_decay=draw(_unit),
        batch_size=draw(st.integers(1, 512)),
    )


_datasets = st.builds(
    DatasetSpec,
    seed=st.integers(),
    num_classes=st.integers(min_value=2),
    per_class=st.integers(min_value=5),
    shape=st.tuples(st.integers(min_value=1), st.integers(min_value=1), st.integers(min_value=1)),
    noise_sigma=st.floats(min_value=0.0, allow_infinity=False),
)
_recipes = st.builds(
    PruningRecipe,
    arch=st.text(),
    ratios=st.lists(st.floats(allow_nan=False, allow_infinity=False)).map(tuple),
)


@st.composite
def _configs(draw):
    top_k = draw(st.integers(1, 10))
    full = draw(_schedules())
    return PipelineConfig(
        arch=draw(st.text()),
        dataset=draw(_datasets),
        space=draw(_spaces()),
        n=draw(st.integers(top_k, 10_000)),
        top_k=top_k,
        short_schedule=draw(_schedules(max_epochs=full.epochs)),
        full_schedule=full,
        dense_schedule=draw(st.none() | _schedules(kinds=("scratch",))),
        seed=draw(st.integers()),
        method=draw(st.sampled_from(METHODS)),
    )


_SPECS = {
    SpaceSpec: _spaces(),
    ScheduleSpec: _schedules(),
    DatasetSpec: _datasets,
    PruningRecipe: _recipes,
    PipelineConfig: _configs(),
}


@pytest.mark.parametrize("cls", list(_SPECS), ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_spec_json_round_trip(cls, data):
    spec = data.draw(_SPECS[cls])
    doc = spec.to_json()
    assert spec_from_json(cls, doc) == spec
    assert spec_from_json(cls, canonical_json(doc)) == spec  # the bytes config.json holds


# -- strictness -------------------------------------------------------------------


def test_spec_from_json_takes_text_and_names_paths():
    # a number is kept as written, so config.json renders a document's own numbers
    schedule = spec_from_json(ScheduleSpec, '{"kind": "finetune", "epochs": 2, "lr0": 1}')
    assert schedule == finetune_schedule(2, lr0=1) and canonical_json(schedule.to_json()).count('"lr0":1,') == 1
    assert spec_from_json(ScheduleSpec, {"kind": "rewind", "epochs": 8, "lr0": None}).lr0 == 0.1
    assert issubclass(SchemaError, ValidationError)
    with pytest.raises(SchemaError, match="not valid JSON"):
        spec_from_json(ScheduleSpec, "{")
    with pytest.raises(SchemaError, match=r"ScheduleSpec must be a JSON object, got \[1\]"):
        spec_from_json(ScheduleSpec, [1])
    with pytest.raises(SchemaError, match=r"ScheduleSpec has unknown fields \['bogus'\]"):
        spec_from_json(ScheduleSpec, {"kind": "finetune", "epochs": 2, "bogus": 1})
    with pytest.raises(SchemaError, match="ScheduleSpec misses the required field 'epochs'"):
        spec_from_json(ScheduleSpec, {"kind": "finetune"})
    with pytest.raises(SchemaError, match=r"SpaceSpec.mcb_band must be a list of 2 items"):
        spec_from_json(SpaceSpec, {"target_cflops": 0.5, "mcb_band": [1.0]})
    with pytest.raises(SchemaError, match=r"PruningRecipe.ratios\[1\] must be a number, got false"):
        spec_from_json(PruningRecipe, {"arch": "chain3", "ratios": [0.5, False]})
    with pytest.raises(SchemaError, match=r"PruningRecipe.ratios\[0\] must be a number, got NaN"):
        spec_from_json(PruningRecipe, '{"arch": "x", "ratios": [NaN, 0.1]}')
    with pytest.raises(SchemaError, match=r"SpaceSpec.std_cap must be a number, got -Infinity"):
        spec_from_json(SpaceSpec, '{"target_cflops": 0.5, "std_cap": -Infinity}')
    with pytest.raises(SchemaError, match="PruningRecipe.ratios must be a list, got 0.5"):
        spec_from_json(PruningRecipe, {"arch": "chain3", "ratios": 0.5})


# Each is one field of the desk preset's config document, set to a value of the wrong
# type. Before the one schema layer, the first seven crashed with a traceback (exit 1)
# and the rest were coerced: seed 1.9 ran as 1, top_k true as 1, arch 5 as "5". The
# last two are JSON's NaN and Infinity, which float fields took as numbers before.
_MALFORMED = [
    ("short_schedule.epochs", "1"),
    ("full_schedule.lr0", "0.1"),
    ("n", "abc"),
    ("dataset.per_class", "x"),
    ("dataset.noise_sigma", "a"),
    ("space", [1]),
    ("space.mcb_band", ["a", "b"]),
    ("seed", 1.9),
    ("top_k", True),
    ("n", 2.7),
    ("full_schedule.epochs", 2.5),
    ("short_schedule.batch_size", 1.5),
    ("dataset.shape", [3.5, 16, 16]),
    ("space.target_cflops", True),
    ("arch", 5),
    ("space.std_cap", float("nan")),
    ("full_schedule.lr0", float("inf")),
]


@pytest.mark.parametrize(
    "field, value", _MALFORMED, ids=[f"{field}={json.dumps(value)}" for field, value in _MALFORMED]
)
def test_malformed_config_exits_3(field, value, tmp_path, caplog, capsys):
    doc = desk_preset().to_json()
    *parents, key = field.split(".")
    functools.reduce(operator.getitem, parents, doc)[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    with caplog.at_level("ERROR", logger="prunespace"):
        code = cli_main(["explore", "--config", str(config), "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert code == 3
    assert not (out_dir / "config.json").exists()
    assert f"PipelineConfig.{field}" in caplog.text


def test_bool_ratio_exits_3(tmp_path, caplog, capsys):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({"arch": "resnet-tiny", "ratios": [True] + [0.5] * 5}))
    with caplog.at_level("ERROR", logger="prunespace"):
        code = cli_main(["cost", "--arch", "resnet-tiny", "--recipe", str(recipe)])
    capsys.readouterr()
    assert code == 3
    assert "PruningRecipe.ratios[0] must be a number, got true" in caplog.text
