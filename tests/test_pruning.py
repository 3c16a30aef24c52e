import numpy as np
import pytest

from prunespace import (
    Batch,
    DatasetSpec,
    PruningRecipe,
    ValidationError,
    builtin_arch,
    evaluate,
    filter_l1_norms,
    filter_l2_norms,
    forward,
    init_weights,
    network_cost,
    one_shot_prune,
    prunable_units,
    resolve_plan,
)

from .oracles import masked_dense_logits


def test_filter_norms_match_manual():
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=0, dtype=np.float64)
    w0 = weights.tensors[0]["w"]  # (c_in, c_out, k, k)
    want_l2 = np.sqrt((w0**2).sum(axis=(0, 2, 3)))
    np.testing.assert_allclose(filter_l2_norms(weights, arch, 0), want_l2, rtol=1e-12)
    want_l1 = np.abs(w0).sum(axis=(0, 2, 3))
    np.testing.assert_allclose(filter_l1_norms(weights, arch, 0), want_l1, rtol=1e-12)
    with pytest.raises(ValidationError):
        filter_l2_norms(weights, arch, 5)


def test_group_norms_aggregate_members():
    arch = builtin_arch("resnet-tiny")
    weights = init_weights(arch, seed=1, dtype=np.float64)
    unit = next(u for u in prunable_units(arch) if u.coupling_group == 0)
    assert unit.layer_ids == (0, 2, 4)
    total = np.zeros(unit.c_out)
    for lid in unit.layer_ids:
        w = weights.tensors[lid]["w"]
        total += (w**2).sum(axis=(0, 2, 3))
    np.testing.assert_allclose(filter_l2_norms(weights, arch, unit), np.sqrt(total), rtol=1e-12)


def test_prune_keeps_top_filters():
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=2)
    # make the ranking unambiguous on layer 0: filters 3 and 1 dominate
    w0 = weights.tensors[0]["w"]
    w0[:] = 0.0
    w0[0, 3, 0, 0] = 5.0
    w0[0, 1, 0, 0] = 4.0
    w0[0, 0, 0, 0] = 3.0
    w0[0, 2, 0, 0] = 2.0
    pruned = one_shot_prune(weights, arch, (0.5, 0.0))
    assert pruned.kept_indices[0] == (1, 3)
    assert pruned.arch.layer(0).c_out == 2
    assert pruned.arch.layer(1).c_in == 2
    np.testing.assert_array_equal(
        pruned.weights.tensors[0]["w"], weights.tensors[0]["w"][:, [1, 3]]
    )
    np.testing.assert_array_equal(
        pruned.weights.tensors[1]["w"], weights.tensors[1]["w"][[1, 3]]
    )


def test_ties_keep_lower_index():
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=3)
    weights.tensors[0]["w"][:] = 1.0  # all filters identical
    pruned = one_shot_prune(weights, arch, (0.5, 0.0))
    assert pruned.kept_indices[0] == (0, 1)


def test_zero_recipe_is_identity():
    arch = builtin_arch("resnet-tiny")
    weights = init_weights(arch, seed=4)
    pruned = one_shot_prune(weights, arch, [0.0] * 6)
    for lid, role, a in weights.items():
        assert np.array_equal(a, pruned.weights.tensors[lid][role]), (lid, role)
    report = network_cost(arch, pruned.plan)
    assert report.c_flops == 1.0 and report.c_params == 1.0 and report.mcb == 1.0


def test_group_members_share_kept_indices():
    arch = builtin_arch("resnet-tiny")
    weights = init_weights(arch, seed=5)
    pruned = one_shot_prune(weights, arch, (0.5, 0.25, 0.25, 0.5, 0.5, 0.25))
    for unit in prunable_units(arch):
        idx = {pruned.kept_indices[lid] for lid in unit.layer_ids}
        assert len(idx) == 1
    # pruned arch still validates as a residual graph
    assert len(prunable_units(pruned.arch)) == 6


def test_pruned_forward_matches_masked_dense():
    # slicing filters out of the dense net must equal hard-zeroing them:
    # inputs that are exactly zero contribute nothing through any kernel
    arch = builtin_arch("resnet-tiny")
    weights = init_weights(arch, seed=6, dtype=np.float64)
    rng = np.random.default_rng(7)
    batch = Batch(rng.normal(size=(4, 3, 16, 16)), rng.integers(0, 10, size=4))
    for recipe in [(0.5, 0.0, 0.25, 0.5, 0.3, 0.6), (0.2, 0.2, 0.2, 0.2, 0.2, 0.2)]:
        pruned = one_shot_prune(weights, arch, recipe)
        sliced, _ = forward(pruned.weights, pruned.arch, batch)
        masked = masked_dense_logits(weights, arch, pruned, batch)
        np.testing.assert_allclose(sliced, masked, rtol=1e-10, atol=1e-12)


def test_random_method_needs_and_uses_seed():
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=8)
    with pytest.raises(ValidationError):
        one_shot_prune(weights, arch, (0.5, 0.5), method="random")
    a = one_shot_prune(weights, arch, (0.5, 0.5), method="random", seed=1)
    b = one_shot_prune(weights, arch, (0.5, 0.5), method="random", seed=1)
    assert a.kept_indices == b.kept_indices
    picks = {
        one_shot_prune(weights, arch, (0.5, 0.5), method="random", seed=s).kept_indices[0]
        for s in range(12)
    }
    assert len(picks) > 1  # seed actually changes the selection
    with pytest.raises(ValidationError):
        one_shot_prune(weights, arch, (0.5, 0.5), method="largest")


def test_recipe_object_and_arch_mismatch():
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=9)
    pruned = one_shot_prune(weights, arch, PruningRecipe("chain3", (0.5, 0.5)))
    assert pruned.arch.layer(0).c_out == 2
    with pytest.raises(ValidationError):
        one_shot_prune(weights, arch, PruningRecipe("resnet-tiny", (0.5, 0.5)))


def test_pruned_network_cost_matches_plan():
    arch = builtin_arch("resnet-tiny")
    weights = init_weights(arch, seed=10)
    recipe = (0.4, 0.1, 0.6, 0.3, 0.2, 0.5)
    pruned = one_shot_prune(weights, arch, recipe)
    via_plan = network_cost(arch, pruned.plan)
    dense_sub = network_cost(pruned.arch)
    assert via_plan.flops == dense_sub.flops
    assert via_plan.params == dense_sub.params
    assert via_plan.flops == network_cost(arch, resolve_plan(arch, recipe)).flops


def test_pruned_network_evaluates():
    arch = builtin_arch("resnet-tiny")
    weights = init_weights(arch, seed=11)
    _, val = DatasetSpec(seed=0, per_class=10).build()
    pruned = one_shot_prune(weights, arch, (0.5,) * 6)
    acc = evaluate(pruned.weights, pruned.arch, val)
    assert 0.0 <= acc <= 1.0
