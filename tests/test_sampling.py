import hashlib
import json
import math

import numpy as np
import pytest

from prunespace import (
    FeasibilityError,
    PruningRecipe,
    SchemaError,
    SpaceSpec,
    ValidationError,
    builtin_arch,
    derive_seed,
    is_member,
    load_arch,
    network_cost,
    prunable_units,
    recipe_from_json,
    recipe_std,
    resolve_plan,
    sample_population,
    sample_recipe,
    space_from_json,
    uniform_base_ratio,
)
from prunespace.cli import main
from prunespace.sampling import ATTEMPT_BLOCK, DEFAULT_SIGMA

from .oracles import sample_recipe_sequential

CHAIN3_HALF_CFLOPS = 6942 / 20796


def test_recipe_std_values():
    assert recipe_std((0.5, 0.5)) == 0.0
    assert recipe_std((0.2, 0.5, 0.8)) == pytest.approx(math.sqrt(0.06), rel=1e-12)
    assert recipe_std(PruningRecipe("chain3", (0.0, 1.0))) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        recipe_std(())


def test_recipe_json_round_trip():
    r = PruningRecipe("chain3", (0.25, 0.5))
    doc = r.to_json()
    assert recipe_from_json(json.dumps(doc)) == r
    with pytest.raises(SchemaError):
        recipe_from_json({"arch": "chain3"})
    with pytest.raises(SchemaError):
        recipe_from_json({"arch": "chain3", "ratios": [0.1], "extra": 1})
    with pytest.raises(SchemaError):
        recipe_from_json({"arch": "chain3", "ratios": ["a"]})


def test_space_spec_validation():
    with pytest.raises(ValidationError):
        SpaceSpec()  # no cost target at all
    with pytest.raises(ValidationError):
        SpaceSpec(target_cflops=0.0)
    with pytest.raises(ValidationError):
        SpaceSpec(target_cflops=1.5)
    with pytest.raises(ValidationError):
        SpaceSpec(target_cflops=0.5, delta=-0.1)
    with pytest.raises(ValidationError):
        SpaceSpec(target_cflops=0.5, std_cap=-1.0)
    with pytest.raises(ValidationError):
        SpaceSpec(target_cflops=0.5, mcb_band=(0.0, 0.1))
    with pytest.raises(ValidationError):
        SpaceSpec(target_cflops=0.5, ratio_max=1.0)


def test_space_json_round_trip():
    space = SpaceSpec(target_cflops=0.5, delta=0.01, std_cap=0.1, mcb_band=(1.0, 0.2))
    doc = space.to_json()
    assert "target_cparams" not in doc
    assert doc["ratio_max"] == 0.95
    assert space_from_json(json.dumps(doc)) == space
    with pytest.raises(SchemaError):
        space_from_json({"target_cflops": 0.5, "bogus": 1})
    with pytest.raises(SchemaError):
        space_from_json({"target_cflops": 0.5, "mcb_band": [1.0]})


def test_is_member_checks():
    arch = builtin_arch("chain3")
    space = SpaceSpec(target_cflops=CHAIN3_HALF_CFLOPS, delta=1e-6)
    report = is_member(arch, space, (0.5, 0.5))
    assert report.passed
    assert [c.name for c in report.checks] == ["c_flops"]
    miss = is_member(arch, space, (0.0, 0.0))
    assert not miss.passed
    assert miss.failed_names() == ("c_flops",)

    wide = SpaceSpec(target_cflops=CHAIN3_HALF_CFLOPS, delta=0.5, std_cap=0.01)
    assert is_member(arch, wide, (0.5, 0.5)).passed
    assert is_member(arch, wide, (0.2, 0.8)).failed_names() == ("recipe_std",)

    banded = SpaceSpec(target_cflops=CHAIN3_HALF_CFLOPS, delta=0.5, mcb_band=(0.88, 0.01))
    assert is_member(arch, banded, (0.5, 0.5)).passed
    assert "mcb" in is_member(arch, banded, (0.0, 0.0)).failed_names()

    with pytest.raises(ValidationError):
        is_member(arch, space, PruningRecipe("resnet-tiny", (0.5, 0.5, 0.5, 0.5, 0.5, 0.5)))


def test_uniform_base_chain3_half():
    arch = builtin_arch("chain3")
    base = uniform_base_ratio(arch, 0.33381)
    assert base.in_band
    assert base.achieved == pytest.approx(CHAIN3_HALF_CFLOPS, rel=1e-9)
    assert abs(base.ratio - 0.5) < 1e-3
    # the root sits on the same rounding plateau as 0.5 itself
    plan_root = resolve_plan(arch, [base.ratio, base.ratio])
    plan_half = resolve_plan(arch, [0.5, 0.5])
    assert plan_root.kept == plan_half.kept


def test_uniform_base_extremes():
    arch = builtin_arch("chain3")
    top = uniform_base_ratio(arch, 1.0)
    assert top.in_band and top.ratio == 0.0 and top.achieved == 1.0
    # minimum reachable cost keeps a single filter everywhere
    floor_plan = resolve_plan(arch, [0.95, 0.95])
    floor_cost = network_cost(arch, floor_plan).c_flops
    low = uniform_base_ratio(arch, floor_cost, delta=1e-9)
    assert low.in_band
    with pytest.raises(FeasibilityError):
        uniform_base_ratio(arch, floor_cost / 2, delta=1e-4)
    with pytest.raises(ValidationError):
        uniform_base_ratio(arch, 0.5, metric="watts")
    with pytest.raises(ValidationError):
        uniform_base_ratio(arch, -0.2)


def test_uniform_base_params_metric():
    arch = builtin_arch("chain3")
    base = uniform_base_ratio(arch, 153 / 404, delta=0.002, metric="params")
    assert base.in_band
    assert base.achieved == pytest.approx(153 / 404, rel=1e-9)


def test_uniform_base_skipped_band_flagged():
    # chain3's rounded uniform map jumps from 0.33381 to 0.27794; a razor-thin
    # band at 0.30 falls in the gap
    arch = builtin_arch("chain3")
    base = uniform_base_ratio(arch, 0.30, delta=1e-4)
    assert not base.in_band
    assert abs(base.achieved - 0.30) > 1e-4


@pytest.mark.parametrize("name,metric,target,ratio,achieved", [
    ("chain3", "flops", 0.27, 0.5833333343333332, 0.2779380650125024),
    ("chain3", "flops", 0.38, 0.4166666656666666, 0.389690325062512),
    ("chain3", "params", 0.45, 0.4166666656666666, 0.4504950495049505),
    ("resnet-tiny", "flops", 0.06, 0.781250001, 0.05994521053927604),
    ("resnet-tiny", "flops", 0.17, 0.593749999, 0.172595351446004),
])
def test_uniform_base_first_in_band_plateau_probe(name, metric, target, ratio, achieved):
    # the bisection root misses the band here, so the anchor is the first
    # plateau-edge probe in band, and every population depends on which
    base = uniform_base_ratio(builtin_arch(name), target, 0.01, metric)
    assert (base.ratio, base.in_band, base.achieved) == (ratio, True, achieved)


def test_uniform_base_no_prunable_units():
    doc = {
        "name": "frozen",
        "input": [3, 8, 8],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": 3, "c_out": 4, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": False},
            {"id": 1, "kind": "fc", "c_in": 4, "c_out": 2, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1]],
        "classifier": 1,
    }
    arch = load_arch(doc)
    with pytest.raises(FeasibilityError):
        uniform_base_ratio(arch, 0.5)


def test_derive_seed():
    assert derive_seed(7, 3) == (7, 3)
    assert derive_seed((7, 3), 1) == (7, 3, 1)
    assert derive_seed(np.int64(5), 0) == (5, 0)


def test_sample_recipe_deterministic():
    arch = builtin_arch("resnet-tiny")
    space = SpaceSpec(target_cflops=0.5, delta=0.01)
    a = sample_recipe(arch, space, seed=11)
    b = sample_recipe(arch, space, seed=11)
    assert a == b
    assert a.arch == "resnet-tiny"
    assert len(a) == len(prunable_units(arch))
    assert is_member(arch, space, a).passed
    c = sample_recipe(arch, space, seed=12)
    assert c != a


def test_sample_recipe_respects_std_cap():
    arch = builtin_arch("resnet-tiny")
    space = SpaceSpec(target_cflops=0.5, delta=0.01, std_cap=0.02)
    for seed in range(5):
        r = sample_recipe(arch, space, seed=seed)
        assert recipe_std(r) <= 0.02


def test_sample_recipe_infeasible_space():
    arch = builtin_arch("chain3")
    space = SpaceSpec(target_cflops=0.30, delta=1e-4, std_cap=0.0)
    with pytest.raises(FeasibilityError) as err:
        sample_recipe(arch, space, seed=0, max_attempts=50)
    assert err.value.attempts == 50


def test_sample_population_matches_per_index_seeds():
    arch = builtin_arch("resnet-tiny")
    space = SpaceSpec(target_cflops=0.5, delta=0.01)
    pop = sample_population(arch, space, n=6, seed=3)
    assert len(pop) == 6
    for i, r in enumerate(pop):
        assert r == sample_recipe(arch, space, derive_seed(3, i))
    with pytest.raises(ValidationError):
        sample_population(arch, space, n=0, seed=3)


def test_tighter_std_space_nests_in_looser():
    arch = builtin_arch("resnet-tiny")
    tight = SpaceSpec(target_cflops=0.5, delta=0.01, std_cap=0.02)
    loose = SpaceSpec(target_cflops=0.5, delta=0.01, std_cap=0.10)
    for r in sample_population(arch, tight, n=10, seed=21):
        assert is_member(arch, loose, r).passed


def _oracle_spaces(name):
    arch = builtin_arch(name)
    if name == "chain3":
        target, params, uniform = CHAIN3_HALF_CFLOPS, 153 / 404, CHAIN3_HALF_CFLOPS
    else:
        target, params = 0.5, 0.5
        uniform = network_cost(arch, [0.5] * len(prunable_units(arch))).c_flops
    return arch, {
        "flops": SpaceSpec(target_cflops=target, delta=0.01),
        "flops+mcb": SpaceSpec(target_cflops=target, delta=0.01, mcb_band=(0.95, 0.06) if name == "chain3" else (1.0, 0.02)),
        "flops+std": SpaceSpec(target_cflops=target, delta=0.01, std_cap=0.02),
        "params": SpaceSpec(target_cparams=params, delta_params=0.01),
        "std_cap=0": SpaceSpec(target_cflops=uniform, delta=1e-9, std_cap=0.0),
        "std_cap=0, infeasible": SpaceSpec(target_cflops=0.25, delta=1e-9, std_cap=0.0),
    }


@pytest.mark.parametrize("name", ["chain3", "resnet-tiny"])
def test_sample_recipe_matches_sequential_oracle(name):
    arch, spaces = _oracle_spaces(name)
    max_attempts = 150  # past the first block, and not a multiple of it
    past_first_block = 0
    for label, space in spaces.items():
        if space.target_cflops is not None:
            base = uniform_base_ratio(arch, space.target_cflops, space.delta)
        else:
            base = uniform_base_ratio(arch, space.target_cparams, space.delta_params, "params")
        sigma = DEFAULT_SIGMA if space.std_cap is None else space.std_cap
        for seed in range(4):
            want = sample_recipe_sequential(arch, space, (seed, 1), base.ratio, max_attempts, sigma)
            if want is None:
                with pytest.raises(FeasibilityError) as err:
                    sample_recipe(arch, space, (seed, 1), max_attempts)
                assert err.value.attempts == max_attempts, label
                continue
            ratios, attempt = want
            past_first_block += attempt >= ATTEMPT_BLOCK
            assert sample_recipe(arch, space, (seed, 1), max_attempts).ratios == ratios, (label, seed)
    if name == "resnet-tiny":
        assert past_first_block > 0  # some accepted draw lies beyond a block boundary


def test_max_attempts_caps_the_last_block():
    arch = builtin_arch("resnet-tiny")
    infeasible = SpaceSpec(target_cflops=0.25, delta=1e-9, std_cap=0.01)
    for max_attempts in (1, ATTEMPT_BLOCK - 1, ATTEMPT_BLOCK + 1, 3 * ATTEMPT_BLOCK + 5):
        with pytest.raises(FeasibilityError) as err:
            sample_recipe(arch, infeasible, seed=0, max_attempts=max_attempts)
        assert err.value.attempts == max_attempts
    # a member first drawn at attempt k (0-based) inside a block: k attempts
    # miss it, k + 1 find it
    space = _oracle_spaces("resnet-tiny")[1]["flops+mcb"]
    base = uniform_base_ratio(arch, space.target_cflops, space.delta)
    ratios, k = sample_recipe_sequential(arch, space, (1, 1), base.ratio, 300, DEFAULT_SIGMA)
    assert k > ATTEMPT_BLOCK and k % ATTEMPT_BLOCK != 0
    with pytest.raises(FeasibilityError):
        sample_recipe(arch, space, (1, 1), max_attempts=k)
    assert sample_recipe(arch, space, (1, 1), max_attempts=k + 1).ratios == ratios


# sha256 of `prunespace sample --arch resnet50-shape --n 40` output for the four
# spaces the benchmark samples, recorded before the block sampler replaced the
# draw-by-draw loop: populations must not change by a byte.
PINNED_R50_POPULATIONS = {
    (0, "flops"): "3344ba0cec576250161d4d99ef1c98e449295b53ddffd29f7fb6881ec96fe9f9",
    (0, "flops-mcb"): "0867d519a18514475d8a3a3906047116845483eea7c6c1bfaa785c4ccb4bd157",
    (0, "flops-std"): "7c5568cb96d3192f12387e850234917481356ea7ad2d33dc726ddc738fc8042d",
    (0, "params"): "a51c745ce994ccf0a25d20496e52776a1410c4ec2f411d6d871fb07b4962d462",
    (7, "flops"): "c941cb43ad1b6a92ca33734c0da9fa011149e4924af1093d918ea6801d442208",
    (7, "flops-mcb"): "21ef144db067724b489962f5b8ad894431714ae84a725d148ff137d3ccfe5e4e",
    (7, "flops-std"): "5aa4e7df21fd3001c781dd3f9d699763bcfb060946dca641073d39778e4c8b3c",
    (7, "params"): "bbc0b7676695c80d9dcb44e7e5ebab5ba9b2f973e9813bb1a1386aeb9a34d6bc",
}
R50_SPACES = {
    "flops": {"target_cflops": 0.5},
    "flops-mcb": {"target_cflops": 0.5, "mcb_band": [1.0, 0.05]},
    "flops-std": {"target_cflops": 0.5, "std_cap": 0.05},
    "params": {"target_cparams": 0.5},
}


@pytest.mark.parametrize("seed,space", sorted(PINNED_R50_POPULATIONS))
def test_resnet50_populations_pinned(seed, space, tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(R50_SPACES[space]))
    out = tmp_path / "pop.jsonl"
    argv = ["sample", "--arch", "resnet50-shape", "--space", str(space_file),
            "--n", "40", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_R50_POPULATIONS[seed, space]
