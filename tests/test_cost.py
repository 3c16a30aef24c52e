import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunespace import (
    PruningRecipe,
    SubnetworkPlan,
    ValidationError,
    builtin_arch,
    builtin_names,
    cost_table,
    fractional_uniform_metrics,
    kept_channels,
    layer_cost,
    load_arch,
    mcb,
    network_cost,
    prunable_units,
    resolve_plan,
)

from .oracles import enumerate_network_cost, fractional_uniform_metrics_loop


def test_chain3_dense_totals():
    arch = builtin_arch("chain3")
    report = network_cost(arch)
    assert report.flops == 20796
    assert report.params == 404
    assert report.c_flops == 1.0
    assert report.c_params == 1.0
    assert report.mcb == 1.0


def test_chain3_half_recipe():
    arch = builtin_arch("chain3")
    plan = resolve_plan(arch, [0.5, 0.5])
    report = network_cost(arch, plan)
    assert report.flops == 6942
    assert report.params == 153
    assert report.c_flops == pytest.approx(0.333814, abs=1e-6)
    assert report.c_params == pytest.approx(0.378713, abs=1e-6)
    assert report.mcb == pytest.approx(0.88144, abs=1e-5)


def test_network_cost_accepts_ratios_and_recipes():
    arch = builtin_arch("chain3")
    resolved = network_cost(arch, resolve_plan(arch, [0.5, 0.5]))
    assert network_cost(arch, [0.5, 0.5]) == resolved

    class Recipe:
        ratios = [0.5, 0.5]

    assert network_cost(arch, Recipe()) == resolved
    assert network_cost(arch, PruningRecipe("chain3", (0.5, 0.5))) == resolved
    # a recipe that names another architecture is refused, even at a fitting length
    with pytest.raises(ValidationError, match="recipe is for 'resnet-tiny'"):
        network_cost(arch, PruningRecipe("resnet-tiny", (0.5, 0.5)))


def test_resnet_tiny_dense_totals():
    arch = builtin_arch("resnet-tiny")
    report = network_cost(arch)
    assert report.flops == 1169568
    assert report.params == 11122


def test_resnet50_shape_dense_totals():
    arch = builtin_arch("resnet50-shape")
    report = network_cost(arch)
    assert report.flops == 4089184256
    assert report.params == 25557032


def test_resnet50_uniform_half_band():
    arch = builtin_arch("resnet50-shape")
    n = len(prunable_units(arch))
    report = network_cost(arch, resolve_plan(arch, [0.5] * n))
    assert abs(report.c_flops - 0.259) <= 0.015


def _first_layer_chain():
    doc = {
        "name": "law",
        "input": [3, 8, 8],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": 3, "c_out": 8, "k": 3, "stride": 1,
             "pad": 1, "bias": False, "prunable": True},
            {"id": 1, "kind": "conv", "c_in": 8, "c_out": 5, "k": 3, "stride": 1,
             "pad": 1, "bias": False, "prunable": True},
            {"id": 2, "kind": "fc", "c_in": 5, "c_out": 7, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1], [1, 2]],
        "classifier": 2,
    }
    return load_arch(doc)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_first_layer_ratio_scales_macs_exactly(m):
    # ratio m/8 on an 8-filter layer keeps exactly 8 - m filters, so both the
    # layer's own multiplies and its consumer's scale by (8 - m) / 8
    arch = _first_layer_chain()
    dense = network_cost(arch)
    plan = resolve_plan(arch, [m / 8, 0.0])
    report = network_cost(arch, plan)
    l0, l1 = arch.layer(0), arch.layer(1)
    scale = 8 - m
    assert plan.kept[0] == 8 - m
    assert layer_cost(l0, 3, plan.kept[0])[0] * 8 == layer_cost(l0, 3, 8)[0] * scale
    assert layer_cost(l1, plan.kept[0], 5)[0] * 8 == layer_cost(l1, 8, 5)[0] * scale
    # the fc layer is untouched
    assert dense.flops - report.flops == (
        layer_cost(l0, 3, 8)[0] - layer_cost(l0, 3, plan.kept[0])[0]
        + layer_cost(l1, 8, 5)[0] - layer_cost(l1, plan.kept[0], 5)[0]
    )


def test_layer_cost_bounds():
    arch = builtin_arch("chain3")
    l0 = arch.layer(0)
    with pytest.raises(ValidationError):
        layer_cost(l0, 0, 2)
    with pytest.raises(ValidationError):
        layer_cost(l0, 3, 5)  # above dense width


def test_mcb_validation():
    assert mcb(0.5, 0.5) == 1.0
    with pytest.raises(ValidationError):
        mcb(0.0, 0.5)
    with pytest.raises(ValidationError):
        mcb(0.5, 1.2)
    with pytest.raises(ValidationError):
        mcb(-0.1, 0.5)


@pytest.mark.parametrize("name", ["chain3", "resnet-tiny", "resnet50-shape"])
def test_network_cost_matches_enumeration(name):
    arch = builtin_arch(name)
    n = len(prunable_units(arch))
    rng = np.random.default_rng(7)
    for _ in range(3 if name == "resnet50-shape" else 30):
        recipe = rng.uniform(0.0, 0.95, size=n)
        plan = resolve_plan(arch, recipe)
        report = network_cost(arch, plan)
        macs, params = enumerate_network_cost(arch, plan)
        assert report.flops == macs
        assert report.params == params


def test_dense_enumeration_matches():
    for name in ("chain3", "resnet-tiny"):
        arch = builtin_arch(name)
        report = network_cost(arch)
        assert (report.flops, report.params) == enumerate_network_cost(arch, None)


def test_fractional_metrics_monotone():
    arch = builtin_arch("resnet-tiny")
    assert fractional_uniform_metrics(arch, 0.0) == (1.0, 1.0)
    grid = np.linspace(0.0, 0.9, 19)
    flops = [fractional_uniform_metrics(arch, float(r))[0] for r in grid]
    assert all(a > b for a, b in zip(flops, flops[1:]))
    with pytest.raises(ValidationError):
        fractional_uniform_metrics(arch, 1.5)


def test_fractional_tracks_rounded_on_plateau():
    # at exact multiples the relaxation and the rounded plan agree
    arch = builtin_arch("chain3")
    plan = resolve_plan(arch, [0.5, 0.5])
    rounded = network_cost(arch, plan)
    frac = fractional_uniform_metrics(arch, 0.5)
    assert frac[0] == pytest.approx(rounded.c_flops, rel=1e-12)
    assert frac[1] == pytest.approx(rounded.c_params, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_cost_equals_per_row_network_cost(data):
    arch = builtin_arch(data.draw(st.sampled_from(builtin_names())))
    n = len(prunable_units(arch))
    rows = data.draw(st.lists(
        st.lists(st.floats(0.0, 0.95), min_size=n, max_size=n), min_size=1, max_size=8))
    table = cost_table(arch)
    ratios = np.array(rows)
    flops, params = table.totals(*table.channels(table.kept(ratios)))
    c_flops, c_params = table.relative(ratios)
    for i, row in enumerate(rows):
        report = network_cost(arch, resolve_plan(arch, row))
        assert (int(flops[i]), int(params[i])) == (report.flops, report.params)
        assert (c_flops[i], c_params[i]) == (report.c_flops, report.c_params)


@pytest.mark.parametrize("name", builtin_names())
def test_block_rounding_matches_kept_channels_at_breakpoints(name):
    # every edge 1 - (j + 0.5) / c of a unit's rounding plateaus, and one ulp
    # either side of it, where float rounding is most likely to differ
    arch = builtin_arch(name)
    units = prunable_units(arch)
    table = cost_table(arch)
    edges = np.unique(np.concatenate(
        [1.0 - (np.arange(u.c_out) + 0.5) / u.c_out for u in units]))
    probes = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    probes = probes[(probes >= 0.0) & (probes <= 1.0)]
    kept = table.kept(np.repeat(probes[:, None], len(units), axis=1))
    want = [[kept_channels(u.c_out, float(r)) for u in units] for r in probes]
    assert kept.tolist() == want


@pytest.mark.parametrize("name", builtin_names())
def test_fractional_metrics_equal_scalar_loop(name):
    # the sampler's anchor bisects this map, so its floats must not move
    arch = builtin_arch(name)
    grid = np.concatenate([np.linspace(0.0, 1.0, 401), np.random.default_rng(3).uniform(0, 1, 200)])
    for r in grid:
        assert fractional_uniform_metrics(arch, float(r)) == fractional_uniform_metrics_loop(arch, float(r))


def test_network_cost_rejects_bad_plans():
    arch = builtin_arch("resnet-tiny")
    plan = resolve_plan(arch, [0.5] * len(prunable_units(arch)))
    kept = dict(plan.kept)
    kept[1] = 9  # layer 1 has 8 filters
    with pytest.raises(ValidationError, match=r"layer 1: kept 9 must lie in \[1, 8\]"):
        network_cost(arch, SubnetworkPlan(kept))
    kept = dict(plan.kept)
    kept[2] -= 1  # layers 0, 2 and 4 are one coupling group
    with pytest.raises(ValidationError, match="match its coupling group"):
        network_cost(arch, SubnetworkPlan(kept))


@pytest.mark.parametrize("side,c_out", [(2**14, 2**26), (2**22, 2**20)])
def test_dense_cost_past_exact_float_range_raises(side, c_out):
    # 2**54 MACs, and 2**64, which an int64 sum would wrap to a small total
    doc = {
        "name": "huge",
        "input": [1, side, side],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": 1, "c_out": c_out, "k": 1, "stride": 1,
             "pad": 0, "bias": False, "prunable": True},
            {"id": 1, "kind": "fc", "c_in": c_out, "c_out": 2, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1]],
        "classifier": 1,
    }
    with pytest.raises(ValidationError, match="exceeds 2\\*\\*53"):
        network_cost(load_arch(doc))
