"""Independent reference implementations used to verify the package.

Everything here is deliberately naive: explicit loops, Fractions, sorting.
The point is a second derivation path, not speed.
"""
from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from prunespace import ArchitectureSpec, NetworkWeights, forward, prunable_units


def kept_channels_fraction(c_out: int, ratio) -> int:
    """Round-half-up keep count via exact rational arithmetic."""
    kept = (1 - Fraction(ratio)) * c_out
    floored = int(kept + Fraction(1, 2))
    return max(1, floored)


_tap_memo: dict = {}


def conv_site_macs(c_in: int, kernel: int) -> int:
    """Multiplies at one output site, counted tap by tap."""
    key = (c_in, kernel)
    if key not in _tap_memo:
        count = 0
        for _ic in range(c_in):
            for _ky in range(kernel):
                for _kx in range(kernel):
                    count += 1
        _tap_memo[key] = count
    return _tap_memo[key]


_layer_memo: dict = {}


def enumerate_network_cost(arch: ArchitectureSpec, plan=None) -> tuple[int, int]:
    """(macs, params) by enumerating output sites and parameter tensors.

    Channel counts come from the plan (producer lookup), spatial sizes from
    re-propagating shapes, parameter counts from the sizes of ones arrays of
    the layer's tensor shapes.
    """
    def kept_of(lid: int) -> int:
        layer = arch.layer(lid)
        if plan is None:
            return layer.c_out
        return plan.kept[lid]

    total_macs = 0
    total_params = 0
    for l in arch.layers:
        prods = arch.producers[l.id]
        if prods:
            in_ch = {kept_of(p) for p in prods}
            assert len(in_ch) == 1
            c_in = in_ch.pop()
        else:
            c_in = arch.input_shape[0]
        c_out = kept_of(l.id)
        key = (l.kind, l.kernel, l.out_h, l.out_w, l.has_bias, l.has_affine, c_in, c_out)
        if key not in _layer_memo:
            if l.kind == "conv":
                macs = 0
                site = conv_site_macs(c_in, l.kernel)
                for _oc in range(c_out):
                    for _oy in range(l.out_h):
                        for _ox in range(l.out_w):
                            macs += site
                w = np.ones((c_in, c_out, l.kernel, l.kernel))
            else:
                w = np.ones((c_in, c_out))
                macs = int(w.sum())
            params = w.size
            if l.has_bias:
                params += np.ones(c_out).size
            if l.has_affine:
                params += np.ones(c_out).size + np.ones(c_out).size
            _layer_memo[key] = (macs, params)
        macs, params = _layer_memo[key]
        total_macs += macs
        total_params += params
    return total_macs, total_params


def fractional_uniform_metrics_loop(arch: ArchitectureSpec, ratio: float) -> tuple[float, float]:
    """Relaxed uniform-recipe cost by a per-layer scalar loop, summed in layer order."""
    frac_out = {l.id: float(l.c_out) for l in arch.layers}
    for unit in prunable_units(arch):
        for lid in unit.layer_ids:
            frac_out[lid] = max(1.0, (1.0 - ratio) * unit.c_out)
    flops = params = 0.0
    for l in arch.layers:
        prods = arch.producers[l.id]
        in_ch = float(arch.input_shape[0]) if not prods else frac_out[prods[0]]
        out_ch = frac_out[l.id]
        scale = l.kernel * l.kernel if l.kind == "conv" else 1
        flops += in_ch * out_ch * scale * l.out_h * l.out_w
        p = in_ch * out_ch * scale
        if l.has_bias:
            p += out_ch
        if l.has_affine:
            p += 2 * out_ch
        params += p
    dense_flops, dense_params = enumerate_network_cost(arch, None)
    return flops / dense_flops, params / dense_params


def uniform_root_sequential(arch: ArchitectureSpec, target: float, metric: str, ratio_max: float) -> float:
    """The anchor's bisection root one midpoint at a time, on the per-layer loop's relaxed cost."""
    idx = 0 if metric == "flops" else 1
    frac = lambda u: fractional_uniform_metrics_loop(arch, u)[idx]
    lo, hi = 0.0, ratio_max
    if frac(lo) <= target:
        return lo
    if frac(hi) >= target:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if frac(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13:
            break
    return 0.5 * (lo + hi)


def sample_recipe_sequential(arch: ArchitectureSpec, space, seed, base_ratio: float,
                             max_attempts: int, sigma: float):
    """Rejection sampling one attempt at a time: one Gaussian row per attempt,
    membership from enumerated costs and exact-rational rounding.

    Returns (ratios, attempt index) of the first member, or None when every
    attempt misses.
    """
    units = prunable_units(arch)
    dense_macs, dense_params = enumerate_network_cost(arch, None)
    rng = np.random.default_rng(seed)
    for attempt in range(max_attempts):
        eps = rng.normal(0.0, sigma, size=len(units)) if sigma > 0 else np.zeros(len(units))
        ratios = tuple(min(max(base_ratio + float(e), 0.0), space.ratio_max) for e in eps)
        kept = {l.id: l.c_out for l in arch.layers}
        for unit, r in zip(units, ratios):
            for lid in unit.layer_ids:
                kept[lid] = kept_channels_fraction(unit.c_out, r)
        macs, params = enumerate_network_cost(arch, SimpleNamespace(kept=kept))
        c_flops, c_params = macs / dense_macs, params / dense_params
        bands = []
        if space.target_cflops is not None:
            bands.append((c_flops, space.target_cflops - space.delta, space.target_cflops + space.delta))
        if space.target_cparams is not None:
            bands.append((c_params, space.target_cparams - space.delta_params,
                          space.target_cparams + space.delta_params))
        if space.std_cap is not None:
            bands.append((float(np.std(np.asarray(ratios))), 0.0, space.std_cap))
        if space.mcb_band is not None:
            center, half = space.mcb_band
            bands.append((c_flops / c_params, center - half, center + half))
        if all(lo <= v <= hi for v, lo, hi in bands):
            return ratios, attempt
    return None


def conv2d_naive(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Per-pixel cross-correlation. x: (B, c_in, h, w); w: (c_in, c_out, k, k)."""
    b, c_in, h, wd = x.shape
    _, c_out, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((b, c_out, oh, ow), dtype=x.dtype)
    for n in range(b):
        for oc in range(c_out):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(c_in):
                        for ky in range(k):
                            for kx in range(k):
                                acc += x[n, ic, oy * stride + ky, ox * stride + kx] * w[ic, oc, ky, kx]
                    out[n, oc, oy, ox] = acc
    return out


def conv_layer_naive(x: np.ndarray, t: dict, stride: int, padding: int) -> np.ndarray:
    """One conv layer's ReLU output, NCHW: `conv2d_naive`, then the bias, then
    the per-channel affine (z * scale + shift), then the ReLU. t maps each of
    the layer's roles to its tensor."""
    z = conv2d_naive(x, t["w"], stride, padding)
    if "b" in t:
        z = z + t["b"][None, :, None, None]
    if "scale" in t:
        z = z * t["scale"][None, :, None, None] + t["shift"][None, :, None, None]
    return np.maximum(z, 0.0)


def finite_diff_grads(weights: NetworkWeights, arch, batch, loss_fn, eps: float):
    """Central-difference gradient of loss_fn(weights) for every tensor entry."""
    grads: dict = {}
    for lid, tensors in weights.tensors.items():
        grads[lid] = {}
        for role, a in tensors.items():
            g = np.zeros_like(a, dtype=np.float64)
            flat = a.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss_fn(weights, arch, batch)
                flat[i] = orig - eps
                lo = loss_fn(weights, arch, batch)
                flat[i] = orig
                gflat[i] = (hi - lo) / (2.0 * eps)
            grads[lid][role] = g
    return grads


def masked_dense_logits(
    weights: NetworkWeights, arch: ArchitectureSpec, plan, batch
) -> np.ndarray:
    """Forward of the dense network with pruned channels hard-zeroed.

    Zeroes each pruned filter along with its bias and affine parameters; input
    kernels of consumers stay intact (they read zeros).
    """
    masked = weights.copy()
    for l in arch.layers:
        if l.id == arch.classifier_id:
            continue
        keep = set(plan.kept_indices[l.id])
        drop = [j for j in range(l.c_out) if j not in keep]
        if not drop:
            continue
        t = masked.tensors[l.id]
        t["w"][:, drop] = 0.0
        if "b" in t:
            t["b"][drop] = 0.0
        if "scale" in t:
            t["scale"][drop] = 0.0
            t["shift"][drop] = 0.0
    logits, _ = forward(masked, arch, batch)
    return logits


def nearest_template_labels(inputs: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Classify by smallest squared distance to a class template."""
    n = inputs.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        dists = [((inputs[i] - t) ** 2).sum() for t in templates]
        labels[i] = int(np.argmin(dists))
    return labels


def quantile_sorted(values, q: float) -> float:
    """Linear-interpolation quantile computed from an explicit sort."""
    v = sorted(float(x) for x in values)
    if not v:
        raise ValueError("no values")
    if len(v) == 1:
        return v[0]
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    frac = pos - lo
    return v[lo] * (1.0 - frac) + v[hi] * frac


def edf_value(drops, e: float) -> float:
    """Strict empirical distribution value by direct counting."""
    drops = list(drops)
    return sum(1 for d in drops if d < e) / len(drops)
