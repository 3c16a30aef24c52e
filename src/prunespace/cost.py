"""Exact multiply-count and parameter accounting for pruned subnetworks.

All absolute numbers are integers (MACs for conv/fc layers; weights plus
biases plus per-channel affine parameters). Relative metrics divide by the
dense network's totals:

    c_flops  = flops(sub) / flops(dense)
    c_params = params(sub) / params(dense)
    mcb      = c_flops / c_params

Pooling and elementwise ops are excluded from the counts.

Cost is bilinear in kept channels (per layer, macs = flops_coef * in * out),
so `cost_table` packs an architecture into int64 arrays once and costs a
block of recipes in a few numpy operations. The integer sums are exact and
stay below 2**53, so every ratio equals the scalar int / int division.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .arch import ArchitectureSpec, LayerSpec, SubnetworkPlan, prunable_units, resolve_plan
from .errors import ValidationError
from .network import tensor_layout
from .schema import spec_to_json


@dataclass(frozen=True)
class CostReport:
    flops: int
    params: int
    c_flops: float
    c_params: float
    mcb: float

    to_json = spec_to_json


def layer_cost(layer: LayerSpec, in_ch: int, out_ch: int) -> tuple[int, int]:
    """(macs, params) for one layer at the given effective channel counts: a
    multiply per weight per output position, and the size of every tensor."""
    if not (1 <= in_ch <= layer.c_in):
        raise ValidationError(f"layer {layer.id}: in_ch {in_ch} outside [1, {layer.c_in}]")
    if not (1 <= out_ch <= layer.c_out):
        raise ValidationError(f"layer {layer.id}: out_ch {out_ch} outside [1, {layer.c_out}]")
    shapes = dict(tensor_layout(replace(layer, c_in=in_ch, c_out=out_ch)))
    return math.prod(shapes["w"]) * layer.out_h * layer.out_w, sum(map(math.prod, shapes.values()))


def network_cost(
    arch: ArchitectureSpec, plan: SubnetworkPlan | Sequence[float] | None = None
) -> CostReport:
    """Totals for the (sub)network plus ratios relative to the dense network.

    `plan` may be a resolved SubnetworkPlan, or any recipe `resolve_plan`
    takes; None means dense. A plan whose kept count leaves [1, c_out], or
    whose layers of one coupling group disagree on it, raises ValidationError.
    """
    if plan is not None and not isinstance(plan, SubnetworkPlan):
        plan = resolve_plan(arch, plan)
    t = cost_table(arch)
    out_ch = t.dense_out if plan is None else np.array([plan.kept[l.id] for l in arch.layers])
    cols = np.concatenate([t.unit_c_out, t.fixed])
    cols[t.out_col] = out_ch
    bad = np.flatnonzero((out_ch < 1) | (out_ch > t.dense_out) | (cols[t.out_col] != out_ch))
    if bad.size:
        l, kept = arch.layers[bad[0]], out_ch[bad[0]]
        raise ValidationError(f"layer {l.id}: kept {kept} must lie in [1, {l.c_out}] and match its coupling group")
    flops, params = (int(v) for v in t.totals(cols[t.in_col], out_ch))
    c_flops = flops / t.dense_flops
    c_params = params / t.dense_params
    return CostReport(flops, params, c_flops, c_params, mcb(c_flops, c_params))


def mcb(c_flops: float, c_params: float) -> float:
    """Compute-to-parameter budget ratio of a subnetwork, both relative to dense."""
    for name, v in (("c_flops", c_flops), ("c_params", c_params)):
        if not (0.0 < v <= 1.0):
            raise ValidationError(f"{name} must be in (0, 1], got {v}")
    return c_flops / c_params


def fractional_uniform_metrics(arch: ArchitectureSpec, ratio: float) -> tuple[float, float]:
    """(c_flops, c_params) of a uniform recipe with real-valued kept channels.

    The continuous relaxation of the rounding rule: every prunable unit keeps
    max(1, (1 - ratio) * c_out) fractional channels. Strictly monotone in the
    ratio wherever rounding has plateaus, which makes it the right map to
    bisect when hunting a cost target. Products and sums (cumsum, sequential)
    keep a per-layer scalar loop's order, so the sampler's anchor stays fixed.
    """
    if not (0.0 <= ratio <= 1.0):
        raise ValidationError(f"uniform ratio {ratio} outside [0, 1]")
    t = cost_table(arch)
    in_ch, out_ch = t.channels(np.maximum(1.0, (1.0 - ratio) * t.unit_c_out))
    macs = in_ch * out_ch * t.params_coef * t.out_h * t.out_w
    params = in_ch * out_ch * t.params_coef + out_ch * t.bias + 2 * out_ch * t.affine
    return float(np.cumsum(macs)[-1]) / t.dense_flops, float(np.cumsum(params)[-1]) / t.dense_params


class CostTable:
    """Exact cost coefficients of one architecture, one int64 entry per layer.

    Channel counts are columns of [kept count of each prunable unit, then the
    fixed counts: network input, then each layer or coupling group outside a
    unit]; `in_col` and `out_col` name the column a layer reads.
    """

    def __init__(self, arch: ArchitectureSpec):
        units = prunable_units(arch)
        col = {lid: u.index for u in units for lid in u.layer_ids}
        fixed = [arch.input_shape[0]]
        for l in arch.layers:
            if l.id not in col:
                group = (l.id,) if l.coupling_group is None else arch.groups[l.coupling_group]
                col.update((lid, len(units) + len(fixed)) for lid in group)
                fixed.append(l.c_out)
        per_layer = lambda f: np.array([f(l) for l in arch.layers], dtype=np.int64)
        self.in_col = per_layer(lambda l: col[arch.producers[l.id][0]] if arch.producers[l.id] else len(units))
        self.out_col = per_layer(lambda l: col[l.id])
        self.fixed = np.array(fixed, dtype=np.int64)
        self.unit_c_out = np.array([u.c_out for u in units], dtype=np.int64)
        self.dense_out = per_layer(lambda l: l.c_out)
        self.params_coef = per_layer(lambda l: l.kernel * l.kernel if l.kind == "conv" else 1)
        self.out_h, self.out_w = per_layer(lambda l: l.out_h), per_layer(lambda l: l.out_w)
        self.flops_coef = self.params_coef * self.out_h * self.out_w
        self.bias, self.affine = per_layer(lambda l: l.has_bias), per_layer(lambda l: l.has_affine)
        self.out_params = self.bias + 2 * self.affine
        in_ch, out_ch = self.channels(self.unit_c_out)
        # checked in float64 first: an int64 total past 2**63 would wrap, not raise
        if max(self.totals(in_ch.astype(np.float64), out_ch.astype(np.float64))) >= 2**53:
            raise ValidationError(f"{arch.name}: dense cost exceeds 2**53, the exact float range")
        self.dense_flops, self.dense_params = (int(v) for v in self.totals(in_ch, out_ch))

    def kept(self, ratios: np.ndarray) -> np.ndarray:
        """Kept channels per unit for rows of ratios: `kept_channels`, vectorized."""
        return np.maximum(1, np.floor((1.0 - ratios) * self.unit_c_out + 0.5)).astype(np.int64)

    def channels(self, unit_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(in_ch, out_ch) per layer for rows of per-unit channel counts."""
        units = unit_counts.shape[-1]
        cols = np.empty(unit_counts.shape[:-1] + (units + len(self.fixed),), dtype=unit_counts.dtype)
        cols[..., :units] = unit_counts
        cols[..., units:] = self.fixed
        return cols[..., self.in_col], cols[..., self.out_col]

    def totals(self, in_ch: np.ndarray, out_ch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(macs, params) per row of per-layer channel counts."""
        both = in_ch * out_ch
        return both @ self.flops_coef, both @ self.params_coef + out_ch @ self.out_params

    def relative(self, ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c_flops, c_params) per row of a (rows, units) ratio block."""
        flops, params = self.totals(*self.channels(self.kept(ratios)))
        return flops / self.dense_flops, params / self.dense_params


_TABLES: "weakref.WeakKeyDictionary[ArchitectureSpec, CostTable]" = weakref.WeakKeyDictionary()


def cost_table(arch: ArchitectureSpec) -> CostTable:
    """The architecture's CostTable, built on first use and dropped with the spec."""
    if arch not in _TABLES:
        _TABLES[arch] = CostTable(arch)
    return _TABLES[arch]
