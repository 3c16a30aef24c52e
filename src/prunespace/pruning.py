"""Magnitude-ranked one-shot filter pruning.

Filters are ranked per prunable unit; for a coupling group the score of filter
j aggregates every member layer, sqrt(sum of squared entries) for the l2
criterion. The lowest-scoring filters are dropped in one shot: surviving
weights are re-indexed into dense arrays and the architecture shrinks to the
kept channel counts, so the subnetwork trains at its real (reduced) size.
Ties keep the lower filter index.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .arch import ArchitectureSpec, PrunableUnit, SubnetworkPlan, prunable_units, resolve_plan
from .errors import ValidationError
from .network import NetworkWeights, check_weights, weight_layout
from .sampling import PruningRecipe
from .seeds import derive_seed

METHODS = ("l2", "l1", "random")


def filter_l2_norms(
    weights: NetworkWeights, arch: ArchitectureSpec, unit: PrunableUnit | int
) -> np.ndarray:
    """Per-filter l2 magnitude of a unit, aggregated across coupled members."""
    return _scores(weights, arch, unit, "l2")


def filter_l1_norms(
    weights: NetworkWeights, arch: ArchitectureSpec, unit: PrunableUnit | int
) -> np.ndarray:
    return _scores(weights, arch, unit, "l1")


def _scores(weights, arch, unit: PrunableUnit | int, method: str, seed=None) -> np.ndarray:
    """Per-filter scores of a unit (or its index) under a ranking method of METHODS."""
    if not isinstance(unit, PrunableUnit):
        units = prunable_units(arch)
        if not (0 <= unit < len(units)):
            raise ValidationError(f"unit index {unit} outside [0, {len(units)})")
        unit = units[unit]
    if method == "random":
        return np.random.default_rng(derive_seed(seed, unit.index)).random(unit.c_out)
    total = np.zeros(unit.c_out, dtype=np.float64)
    for lid in unit.layer_ids:
        w = weights.tensors[lid]["w"].astype(np.float64)
        axes = tuple(i for i in range(w.ndim) if i != 1)  # filters live on axis 1
        total += (np.square(w) if method == "l2" else np.abs(w)).sum(axis=axes)
    return np.sqrt(total) if method == "l2" else total


@dataclass(frozen=True)
class PrunedNetwork:
    """The reduced network, the plan it realizes, and, per layer of the dense
    arch, the indices of the filters that survived (ascending)."""

    weights: NetworkWeights
    arch: ArchitectureSpec
    plan: SubnetworkPlan
    kept_indices: Mapping[int, tuple[int, ...]]


def one_shot_prune(
    weights: NetworkWeights,
    arch: ArchitectureSpec,
    recipe: PruningRecipe | Sequence[float],
    method: str = "l2",
    seed=None,
) -> PrunedNetwork:
    """Materialize the subnetwork a recipe selects from trained dense weights.

    Keeps the top-scoring filters per unit (ties to the lower index), slices
    every tensor to dense re-indexed arrays, and rebuilds the architecture at
    the reduced widths.
    """
    if method not in METHODS:
        raise ValidationError(f"ranking method must be one of {METHODS}, got {method!r}")
    if method == "random" and seed is None:
        raise ValidationError("random ranking needs a seed")
    check_weights(weights, arch)
    plan = resolve_plan(arch, recipe)

    kept_indices: dict[int, tuple[int, ...]] = {
        l.id: tuple(range(plan.kept[l.id])) for l in arch.layers
    }
    for unit in prunable_units(arch):
        keep = plan.kept[unit.layer_ids[0]]
        scores = _scores(weights, arch, unit, method, seed)
        # stable argsort on negated scores: ties keep the lower filter index
        order = np.argsort(-scores, kind="stable")[:keep]
        chosen = tuple(int(i) for i in np.sort(order))
        for lid in unit.layer_ids:
            kept_indices[lid] = chosen

    new_layers, keeps = [], {}
    for l in arch.layers:
        prods = arch.producers[l.id]
        in_keep = np.asarray(kept_indices[prods[0]] if prods else range(l.c_in), dtype=np.intp)
        out_keep = np.asarray(kept_indices[l.id], dtype=np.intp)
        keeps[l.id] = in_keep, out_keep
        new_layers.append(replace(l, c_in=len(in_keep), c_out=len(out_keep), out_h=0, out_w=0))
    new_arch = ArchitectureSpec(arch.name, arch.input_shape, new_layers, arch.edges, arch.classifier_id)
    pruned = NetworkWeights.empty(weight_layout(new_arch), weights.dtype)
    for lid, role, a in pruned.items():
        in_keep, out_keep = keeps[lid]
        t = weights.tensors[lid][role]
        a[...] = t[in_keep][:, out_keep] if role == "w" else t[out_keep]
    return PrunedNetwork(pruned, new_arch, plan, kept_indices)
