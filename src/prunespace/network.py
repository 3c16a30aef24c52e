"""Numpy CNN kernel: weights, forward pass, gradients, evaluation.

Execution follows the architecture graph: each conv layer computes
cross-correlation -> optional bias -> optional per-channel affine -> ReLU,
a consumer with several producers sums their outputs first (residual add),
and the classifier applies global average pooling before its fc transform.

Conv weights are stored (c_in, c_out, k, k) and fc weights (c_in, c_out);
filters are therefore columns w[:, j]. Activations are channel-major
(c, B, h, w) from the moment `forward` receives the NCHW batch, which it
transposes once, until `loss_and_grads` returns. Per-channel ops are (c, 1)
broadcasts over the (c, B * h * w) rows.

Every conv kernel is k * k BLAS GEMMs, one per kernel offset (ki, kj), over
the (c_in, n) columns of the zero-padded (c_in, B, Hp, Wp) input that the
offset reads:
  forward  z  += w[:, :, ki, kj].T @ cols      (c_out, n)
  dW       dw[:, :, ki, kj] = cols @ dz.T       (c_in, c_out)
  dX       dx_pad at cols += w[:, :, ki, kj] @ dz
A stride-1 conv reads the flat grid xp.reshape(c_in, B * Hp * Wp): column p
is grid position p, and offset (ki, kj) reads the contiguous slice
[s, s + n), s = ki * Wp + kj, n = B * Hp * Wp - (k - 1) * (Wp + 1), with no
copy. Its output lands on the same grid and is compacted once from
[:, :, :oh, :ow]; the other columns are the border and the seams between
batch items. So dz sits on a zeroed grid: a seam column holding anything
else would leak into dW and into the next item's dX. Other strides copy
the stride-sliced window of each offset to (c_in, B * oh * ow), and dX adds
each product back onto that window.
Gradients are hand-derived reverse-mode over the same graph. The affine
scales whole output channels, so a conv runs with it folded in (the batch-norm
fold): weight w' = w * scale over c_out, offset b * scale + shift. With dz the
ReLU-masked gradient, ds its per-channel sum and dw' the folded weight's
gradient, shift gets ds, b ds * scale, w dw' * scale, and scale the sum of
dw' * w over (c_in, k, k), plus b * ds with a bias.
"""
from __future__ import annotations

import itertools
import math
from types import MappingProxyType

import numpy as np

from .arch import ArchitectureSpec, LayerSpec
from .dataset import Batch
from .errors import ValidationError

# Rows per forward in `evaluate`: of 32-64 rows, 40 ran a 200-row split about as fast as
# any, in half the time of one 200-row forward, and keeps a 40-row split in one forward.
EVAL_ROWS = 40


class NetworkWeights:
    """An architecture's weights in one contiguous 1-D buffer, `flat`.

    `layout` is the (layer id, role, shape) tuple `weight_layout` gives; the
    tensors lie in `flat` in that order, row-major and without gaps, as in a
    checkpoint body. `tensors` is a read-only {lid: {role: view}} mapping of
    views into `flat`, so writes land in the buffer and no tensor can be
    swapped out of it. A pickle holds only `(layout, flat)`.
    """

    def __init__(self, layout, flat: np.ndarray):
        sizes = [math.prod(shape) for _, _, shape in layout]
        if flat.shape != (sum(sizes),):
            raise ValidationError(f"a buffer shaped {flat.shape} cannot hold the {sum(sizes)} entries of its layout")
        tensors: dict[int, dict[str, np.ndarray]] = {}
        offset = 0
        for (lid, role, shape), size in zip(layout, sizes):
            tensors.setdefault(lid, {})[role] = flat[offset : offset + size].reshape(shape)
            offset += size
        self.layout = tuple(layout)
        self.flat = flat
        self.tensors = MappingProxyType({lid: MappingProxyType(t) for lid, t in tensors.items()})

    @classmethod
    def empty(cls, layout, dtype) -> "NetworkWeights":
        """Uninitialized weights on `layout`; the caller writes every view."""
        return cls(layout, np.empty(sum(math.prod(shape) for _, _, shape in layout), dtype=dtype))

    def __reduce__(self):
        return NetworkWeights, (self.layout, self.flat)

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def copy(self) -> "NetworkWeights":
        return NetworkWeights(self.layout, self.flat.copy())

    def astype(self, dtype) -> "NetworkWeights":
        return NetworkWeights(self.layout, self.flat.astype(dtype))

    def num_params(self) -> int:
        return self.flat.size

    def items(self):
        """(layer id, role, tensor) in layout order."""
        for lid, role, _ in self.layout:
            yield lid, role, self.tensors[lid][role]


def tensor_layout(layer: LayerSpec) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """A layer's tensors as (role, shape), in `weight_layout` order: "b" (c_out,)
    with a bias, "scale" and "shift" (c_out,) with an affine, then "w",
    (c_in, c_out, k, k) for a conv and (c_in, c_out) for an fc."""
    vector = (layer.c_out,)
    w = (layer.c_in, layer.c_out, layer.kernel, layer.kernel) if layer.kind == "conv" else (layer.c_in, layer.c_out)
    return (
        (("b", vector),) * layer.has_bias
        + (("scale", vector), ("shift", vector)) * layer.has_affine
        + (("w", w),)
    )


def weight_layout(arch: ArchitectureSpec) -> tuple[tuple[int, str, tuple[int, ...]], ...]:
    """(layer id, role, shape) of every tensor of `arch`, in `NetworkWeights.flat`
    order: ascending layer id, then each layer's `tensor_layout`."""
    return tuple(
        (l.id, role, shape) for l in sorted(arch.layers, key=lambda l: l.id) for role, shape in tensor_layout(l)
    )


def init_weights(arch: ArchitectureSpec, seed, dtype=np.float32) -> NetworkWeights:
    """Fan-in-scaled Gaussian init: w ~ Normal(0, g / fan_in) with g = 2 for
    layers followed by an activation, g = 1 for the classifier. Biases start
    at zero, affine at scale 1 / shift 0. Draws in `arch.layers` order."""
    rng = np.random.default_rng(seed)
    weights = NetworkWeights.empty(weight_layout(arch), dtype)
    for l in arch.layers:
        t = weights.tensors[l.id]
        for role, shape in tensor_layout(l):
            if role == "w":
                fan_in = math.prod(shape[:1] + shape[2:])  # every axis but the filters'
                gain = 1.0 if l.id == arch.classifier_id else 2.0
                t[role][...] = rng.normal(0.0, math.sqrt(gain / fan_in), size=shape)
            else:
                t[role].fill(1.0 if role == "scale" else 0.0)
    return weights


def check_weights(weights: NetworkWeights, arch: ArchitectureSpec) -> None:
    """Refuse weights not laid out for `arch`, naming the first entry that differs."""
    want = weight_layout(arch)
    if weights.layout != want:
        i, have, need = next(
            (i, a, b) for i, (a, b) in enumerate(itertools.zip_longest(weights.layout, want)) if a != b
        )
        raise ValidationError(
            f"weight entry {i}: the weights hold {have or 'nothing'}, the architecture lays out {need or 'nothing'}"
        )


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """(c, B, h + 2 * pad, w + 2 * pad) zero-padded copy of x, or x itself when pad is 0.

    One allocation and one slice copy: `np.pad` costs about twice as much.
    """
    if not pad:
        return x
    c, b, h, w = x.shape
    xp = np.zeros((c, b, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


def _views(a: np.ndarray, kernel: int, stride: int, oh: int, ow: int) -> list[np.ndarray]:
    """Per kernel offset (ki, kj), row-major, the view of a padded (c, B, Hp, Wp) array it reads:
    for stride 1 the (c, n) flat-grid slice [s, s + n), else the (c, B, oh, ow) window."""
    c, wp = a.shape[0], a.shape[3]
    flat, n = a.reshape(c, -1), a[0].size - (kernel - 1) * (wp + 1)
    return [
        flat[:, ki * wp + kj : ki * wp + kj + n] if stride == 1
        else a[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
        for ki in range(kernel)
        for kj in range(kernel)
    ]


def _taps(w: np.ndarray) -> np.ndarray:
    """(k * k, c_in, c_out) copy of a conv weight, one contiguous matrix per kernel offset."""
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(-1, *w.shape[:2])


def _conv(xp: np.ndarray, w: np.ndarray, stride: int, oh: int, ow: int) -> np.ndarray:
    """(c_out, B, oh, ow) cross-correlation of a padded (c_in, B, Hp, Wp) input.

    Each offset's GEMM writes one reused buffer, which is added into the output grid.
    """
    c_in, c_out = w.shape[:2]
    taps, views = _taps(w), _views(xp, w.shape[2], stride, oh, ow)
    z = np.empty((c_out, *(xp.shape[1:] if stride == 1 else (xp.shape[1], oh, ow))), dtype=xp.dtype)
    acc = z.reshape(c_out, -1)[:, : views[0].size // c_in]
    np.matmul(taps[0].T, views[0].reshape(c_in, -1), out=acc)
    buf = np.empty(acc.shape, dtype=acc.dtype)
    for tap, v in zip(taps[1:], views[1:]):
        acc += np.matmul(tap.T, v.reshape(c_in, -1), out=buf)
    return np.ascontiguousarray(z[:, :, :oh, :ow])


def forward(weights: NetworkWeights, arch: ArchitectureSpec, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """(logits, cache) for an NCHW inputs array.

    The cache carries every intermediate the backward pass needs, channel-major:
    `outputs[lid]` is (c, B, h, w), for a conv after the ReLU, whose `> 0` is the
    backward's mask; a conv keeps `x_pad`, its zero-padded (c_in, B, h + 2p,
    w + 2p) input, whose flat grid a stride-1 conv reads, and `w`, the folded
    weight it ran with; the classifier keeps `feats`, (B, c). A stride-1 conv
    computes its output on that grid, border and batch seams included, and
    compacts it; its backward puts dz on a zeroed grid so those columns add
    nothing to dW and dX. The offset and the ReLU write into `_conv`'s fresh
    output, never into `x_pad`, which can be a view of the caller's batch.
    """
    if x.ndim != 4 or x.shape[1:] != arch.input_shape:
        raise ValidationError(f"inputs shaped {x.shape[1:]} do not match {arch.input_shape}")
    check_weights(weights, arch)
    x = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
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
            w, offset = t["w"], t.get("b")
            if "scale" in t:  # the affine folded in, as the module docstring derives
                w = w * t["scale"][:, None, None]
                offset = t["shift"] if offset is None else offset * t["scale"] + t["shift"]
            out = _conv(xp, w, l.stride, l.out_h, l.out_w)
            rows = out.reshape(len(out), -1)
            if offset is not None:
                rows += offset[:, None]
            np.maximum(rows, 0.0, out=rows)
            cache["layers"][lid] = {"x_pad": xp, "w": w}
            outputs[lid] = out
        else:
            feats = x_in.mean(axis=(2, 3)).T
            logits = feats @ t["w"]
            if "b" in t:
                logits = logits + t["b"]
            cache["layers"][lid] = {"feats": feats, "spatial": x_in.shape[2:]}
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
) -> tuple[float, NetworkWeights]:
    """Mean softmax cross-entropy and its gradient, laid out as `weights`."""
    logits, cache = forward(weights, arch, batch.inputs)
    loss, dlogits = softmax_cross_entropy(logits, batch.labels)

    grads = NetworkWeights.empty(weights.layout, weights.dtype)
    douts: dict[int, np.ndarray] = {arch.classifier_id: dlogits}
    for lid in reversed(arch.topo_order):
        l = arch.layer(lid)
        t, g = weights.tensors[lid], grads.tensors[lid]
        c = cache["layers"].pop(lid)  # freed as the backward passes, to lower the step's peak
        dout = douts.pop(lid)
        if l.kind == "fc":
            feats = c["feats"]
            g["w"][...] = feats.T @ dout
            if "b" in t:
                g["b"][...] = dout.sum(axis=0)
            dfeats = dout @ t["w"].T
            h, w_sp = c["spatial"]
            dx = np.broadcast_to((dfeats.T / (h * w_sp))[:, :, None, None], (*dfeats.shape[::-1], h, w_sp))
        else:
            dz = dout * (cache["outputs"].pop(lid) > 0)
            ds = dz.reshape(len(dz), -1).sum(axis=1)
            dw, dx = _conv_grads(c["x_pad"], dz, c["w"], l.stride, l.padding, bool(arch.producers[lid]))
            if "scale" in t:
                g["scale"][...] = (dw * t["w"]).sum(axis=(0, 2, 3)) + t.get("b", 0) * ds
                g["shift"][...] = ds
                dw, ds = dw * t["scale"][:, None, None], ds * t["scale"]
            if "b" in t:
                g["b"][...] = ds
            g["w"][...] = dw
        prods = arch.producers[lid]
        for p in prods:
            if p in douts:
                douts[p] = douts[p] + dx
            else:
                douts[p] = dx
    return loss, grads


def _conv_grads(
    xp: np.ndarray, dz: np.ndarray, w: np.ndarray, stride: int, padding: int, with_dx: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """(dW (c_in, c_out, k, k), dX (c_in, B, h, w) or None): GEMMs per kernel offset."""
    c_in, c_out, kernel = w.shape[:3]
    oh, ow = dz.shape[2:]
    if stride == 1:  # on a zeroed grid, the border and seam columns add nothing
        grid = np.zeros((c_out, *xp.shape[1:]), dtype=dz.dtype)
        grid[:, :, :oh, :ow] = dz
        dz = grid
    views = _views(xp, kernel, stride, oh, ow)
    dzf = dz.reshape(c_out, -1)[:, : views[0].size // c_in]
    dw = np.stack([v.reshape(c_in, -1) @ dzf.T for v in views])
    dw = dw.reshape(kernel, kernel, c_in, c_out).transpose(2, 3, 0, 1)
    if not with_dx:
        return dw, None
    dxp, buf = np.zeros(xp.shape, dtype=dz.dtype), None
    for tap, v in zip(_taps(w), _views(dxp, kernel, stride, oh, ow)):
        buf = np.matmul(tap, dzf, out=buf)
        v += buf.reshape(v.shape)
    return dw, dxp[:, :, padding : xp.shape[2] - padding, padding : xp.shape[3] - padding]


def evaluate(weights: NetworkWeights, arch: ArchitectureSpec, batch: Batch) -> float:
    """Top-1 accuracy over slices of `EVAL_ROWS` rows; argmax breaks ties toward the lower class index."""
    n = len(batch)
    if n == 0:
        raise ValidationError("cannot evaluate an empty batch")
    correct = 0
    for s in range(0, n, EVAL_ROWS):
        # only the logits are kept, so a slice's cache is freed before the next forward
        logits = forward(weights, arch, batch.inputs[s : s + EVAL_ROWS])[0]
        correct += int((logits.argmax(axis=1) == batch.labels[s : s + EVAL_ROWS]).sum())
    return correct / n
