"""Numpy CNN kernel: weights, forward pass, gradients, evaluation.

Execution follows the architecture graph: each conv layer computes
cross-correlation -> optional bias -> optional per-channel affine -> ReLU,
a consumer with several producers sums their outputs first (residual add),
and the classifier applies global average pooling before its fc transform.

Conv weights are stored (c_in, c_out, k, k) and fc weights (c_in, c_out);
filters are therefore columns w[:, j]. Activations are channels-last
(B, h, w, c) from the moment `forward` receives the NCHW batch, which it
transposes once, until `loss_and_grads` returns.

Every conv kernel is k * k BLAS GEMMs, one per kernel offset (ki, kj), over
the window of the zero-padded input that the offset reads, a stride-sliced
(B, oh, ow, c_in) view:
  forward  z  += window @ w[:, :, ki, kj]       (B * oh * ow, c_out)
  dW       dw[:, :, ki, kj] = window.T @ dz     (c_in, c_out)
  dX       window of dx_pad += dz @ w[:, :, ki, kj].T, a scatter-add
Gradients are hand-derived reverse-mode over the same graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .arch import ArchitectureSpec, LayerSpec
from .dataset import Batch
from .errors import ValidationError


class NetworkWeights:
    """Per-layer tensors keyed by role, as `tensor_layout` lays them out."""

    def __init__(self, tensors: dict[int, dict[str, np.ndarray]]):
        self.tensors = tensors

    @property
    def dtype(self) -> np.dtype:
        first = next(iter(self.tensors.values()))
        return first["w"].dtype

    def copy(self) -> "NetworkWeights":
        return NetworkWeights(
            {lid: {role: a.copy() for role, a in t.items()} for lid, t in self.tensors.items()}
        )

    def astype(self, dtype) -> "NetworkWeights":
        return NetworkWeights(
            {lid: {role: a.astype(dtype) for role, a in t.items()} for lid, t in self.tensors.items()}
        )

    def num_params(self) -> int:
        return sum(a.size for t in self.tensors.values() for a in t.values())

    def items(self):
        for lid in sorted(self.tensors):
            for role in sorted(self.tensors[lid]):
                yield lid, role, self.tensors[lid][role]


def tensor_layout(layer: LayerSpec) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """A layer's tensors as (role, shape), roles in `NetworkWeights.items()` order:
    "b" (c_out,) with a bias, "scale" and "shift" (c_out,) with an affine, then
    "w", (c_in, c_out, k, k) for a conv and (c_in, c_out) for an fc."""
    vector = (layer.c_out,)
    w = (layer.c_in, layer.c_out, layer.kernel, layer.kernel) if layer.kind == "conv" else (layer.c_in, layer.c_out)
    return (
        (("b", vector),) * layer.has_bias
        + (("scale", vector), ("shift", vector)) * layer.has_affine
        + (("w", w),)
    )


def init_weights(arch: ArchitectureSpec, seed, dtype=np.float32) -> NetworkWeights:
    """Fan-in-scaled Gaussian init: w ~ Normal(0, g / fan_in) with g = 2 for
    layers followed by an activation, g = 1 for the classifier. Biases start
    at zero, affine at scale 1 / shift 0."""
    rng = np.random.default_rng(seed)
    tensors: dict[int, dict[str, np.ndarray]] = {}
    for l in arch.layers:
        t: dict[str, np.ndarray] = {}
        for role, shape in tensor_layout(l):
            if role == "w":
                fan_in = math.prod(shape[:1] + shape[2:])  # every axis but the filters'
                gain = 1.0 if l.id == arch.classifier_id else 2.0
                t[role] = rng.normal(0.0, math.sqrt(gain / fan_in), size=shape).astype(dtype)
            else:
                t[role] = (np.ones if role == "scale" else np.zeros)(shape, dtype=dtype)
        tensors[l.id] = t
    return NetworkWeights(tensors)


def check_weights(weights: NetworkWeights, arch: ArchitectureSpec) -> None:
    """Refuse weights that are not exactly the tensors of `arch`: a missing,
    misshapen or extra layer or role."""
    extra = weights.tensors.keys() - arch.layer_map.keys()
    if extra:
        raise ValidationError(f"weights hold layer {min(extra)}, which the architecture lacks")
    for l in arch.layers:
        t = weights.tensors.get(l.id)
        if t is None:
            raise ValidationError(f"weights missing layer {l.id}")
        layout = dict(tensor_layout(l))
        extra = t.keys() - layout.keys()
        if extra:
            raise ValidationError(f"layer {l.id}: weights hold role {min(extra)!r}, which the layer lacks")
        for role, shape in layout.items():
            if role not in t:
                raise ValidationError(f"layer {l.id}: weights missing role {role!r}")
            if t[role].shape != shape:
                raise ValidationError(f"layer {l.id}: {role} shape {t[role].shape} != {shape}")


def _as_inputs(batch) -> np.ndarray:
    return batch.inputs if isinstance(batch, Batch) else np.asarray(batch)


def _window(xp: np.ndarray, ki: int, kj: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """(B, oh, ow, c_in) view of the padded NHWC input that kernel offset (ki, kj) reads."""
    return xp[:, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """(B, h + 2 * pad, w + 2 * pad, c) zero-padded copy of x, or x itself when pad is 0.

    One allocation and one slice copy: `np.pad` costs about twice as much.
    """
    if not pad:
        return x
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x
    return xp


def _rows(a: np.ndarray) -> np.ndarray:
    """(B * h, w * c) view of a contiguous (B, h, w, c) array.

    numpy runs an elementwise op over long contiguous rows several times
    faster than over rows only c wide, so a per-channel (c,) vector is
    applied to this view as one row, the vector tiled w times.
    """
    b, h, w, c = a.shape
    return a.reshape(b * h, w * c)


def _conv(xp: np.ndarray, w: np.ndarray, stride: int, oh: int, ow: int) -> np.ndarray:
    """(B, oh, ow, c_out) cross-correlation of a padded NHWC input, one GEMM per kernel offset."""
    b, c_in = xp.shape[0], xp.shape[3]
    kernel = w.shape[2]
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (k, k, c_in, c_out)
    parts = (
        _window(xp, ki, kj, stride, oh, ow).reshape(-1, c_in) @ taps[ki, kj]
        for ki in range(kernel)
        for kj in range(kernel)
    )
    z = next(parts)
    for part in parts:
        z += part
    return z.reshape(b, oh, ow, -1)


def forward(weights: NetworkWeights, arch: ArchitectureSpec, batch) -> tuple[np.ndarray, dict]:
    """(logits, cache) for an NCHW batch.

    The cache carries every intermediate the backward pass needs, channels-last:
    `outputs[lid]` and a conv's `z_pre`/`z_act` are (B, h, w, c), and `x_pad`
    is the conv's zero-padded (B, h + 2p, w + 2p, c_in) input.
    """
    x = _as_inputs(batch)
    if x.ndim != 4 or x.shape[1:] != arch.input_shape:
        raise ValidationError(f"inputs shaped {x.shape[1:]} do not match {arch.input_shape}")
    check_weights(weights, arch)
    x = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    cache: dict = {"outputs": {}, "layers": {}}
    outputs = cache["outputs"]
    logits = None
    for lid in arch.topo_order:
        l = arch.layer(lid)
        prods = arch.producers[lid]
        if not prods:
            x_in = x
        elif len(prods) == 1:
            x_in = outputs[prods[0]]
        else:
            x_in = outputs[prods[0]] + outputs[prods[1]]
            for p in prods[2:]:
                x_in = x_in + outputs[p]
        t = weights.tensors[lid]
        if l.kind == "conv":
            xp = _pad(x_in, l.padding)
            z = _conv(xp, t["w"], l.stride, l.out_h, l.out_w)
            rows, ow = _rows(z), l.out_w
            if "b" in t:
                rows += np.tile(t["b"], ow)
            z_pre = z
            if "scale" in t:
                z = (rows * np.tile(t["scale"], ow) + np.tile(t["shift"], ow)).reshape(z.shape)
            out = np.maximum(z, 0.0)
            cache["layers"][lid] = {"x_pad": xp, "z_pre": z_pre, "z_act": z, "x_shape": x_in.shape}
            outputs[lid] = out
        else:
            feats = x_in.mean(axis=(1, 2))
            logits = feats @ t["w"]
            if "b" in t:
                logits = logits + t["b"]
            cache["layers"][lid] = {"feats": feats, "spatial": x_in.shape[1:3]}
            outputs[lid] = logits
    return outputs[arch.classifier_id], cache


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """(mean loss, d loss / d logits)."""
    if logits.shape[0] != labels.shape[0]:
        raise ValidationError("logits and labels disagree on batch size")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValidationError("label out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    n = logits.shape[0]
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = exp / total
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def loss_and_grads(
    weights: NetworkWeights, arch: ArchitectureSpec, batch: Batch
) -> tuple[float, dict[int, dict[str, np.ndarray]]]:
    """Mean softmax cross-entropy and gradients for every weight tensor."""
    logits, cache = forward(weights, arch, batch)
    loss, dlogits = softmax_cross_entropy(logits, batch.labels)

    grads: dict[int, dict[str, np.ndarray]] = {}
    douts: dict[int, np.ndarray] = {arch.classifier_id: dlogits}
    for lid in reversed(arch.topo_order):
        l = arch.layer(lid)
        t = weights.tensors[lid]
        c = cache["layers"][lid]
        dout = douts.pop(lid, None)
        if dout is None:
            continue
        g: dict[str, np.ndarray] = {}
        if l.kind == "fc":
            feats = c["feats"]
            g["w"] = feats.T @ dout
            if "b" in t:
                g["b"] = dout.sum(axis=0)
            dfeats = dout @ t["w"].T
            h, w_sp = c["spatial"]
            dx = np.broadcast_to(
                dfeats[:, None, None, :] / (h * w_sp), (dfeats.shape[0], h, w_sp, dfeats.shape[1])
            )
        else:
            dz = dout * (c["z_act"] > 0)
            if "scale" in t:
                g["scale"] = _channel_sum(dz * c["z_pre"])
                g["shift"] = _channel_sum(dz)
                dz = (_rows(dz) * np.tile(t["scale"], l.out_w)).reshape(dz.shape)
            if "b" in t:
                g["b"] = _channel_sum(dz)
            g["w"] = _conv_weight_grad(c["x_pad"], dz, l.kernel, l.stride)
            dx = None
            if arch.producers[lid]:
                dx = _conv_input_grad(dz, t["w"], c["x_shape"], l.kernel, l.stride, l.padding)
        grads[lid] = g
        prods = arch.producers[lid]
        for p in prods:
            if p in douts:
                douts[p] = douts[p] + dx
            else:
                douts[p] = dx
    return loss, grads


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """(c,) sum of a (B, h, w, c) array over all but the channel axis.

    Sums the rows of `_rows(a)` first, then the w channel vectors.
    """
    b, h, w, c = a.shape
    return _rows(a).sum(axis=0).reshape(w, c).sum(axis=0)


def _conv_weight_grad(xp: np.ndarray, dz: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """(c_in, c_out, k, k) weight gradient: window.T @ dz for each kernel offset."""
    b, oh, ow, c_out = dz.shape
    c_in = xp.shape[3]
    dz2 = dz.reshape(-1, c_out)
    dw = np.empty((c_in, c_out, kernel, kernel), dtype=dz.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            dw[:, :, ki, kj] = _window(xp, ki, kj, stride, oh, ow).reshape(-1, c_in).T @ dz2
    return dw


def _conv_input_grad(
    dz: np.ndarray, w: np.ndarray, x_shape: tuple, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """(B, h, w, c_in) input gradient: dz @ w.T for each kernel offset, scattered
    back onto the window of the padded input that the offset read."""
    b, h, w_sp, c_in = x_shape
    _, oh, ow, c_out = dz.shape
    dz2 = dz.reshape(-1, c_out)
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (k, k, c_in, c_out)
    dxp = np.zeros((b, h + 2 * padding, w_sp + 2 * padding, c_in), dtype=dz.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            _window(dxp, ki, kj, stride, oh, ow)[...] += (dz2 @ taps[ki, kj].T).reshape(b, oh, ow, c_in)
    if padding:
        return dxp[:, padding : padding + h, padding : padding + w_sp]
    return dxp


def evaluate(
    weights: NetworkWeights, arch: ArchitectureSpec, batch: Batch, chunk: int = 512
) -> float:
    """Top-1 accuracy; argmax breaks ties toward the lower class index."""
    n = len(batch)
    if n == 0:
        raise ValidationError("cannot evaluate an empty batch")
    correct = 0
    for start in range(0, n, chunk):
        part = Batch(batch.inputs[start : start + chunk], batch.labels[start : start + chunk])
        logits, _ = forward(weights, arch, part)
        correct += int((logits.argmax(axis=1) == part.labels).sum())
    return correct / n
