import pickle

import numpy as np
import pytest

from prunespace import (
    Batch,
    ValidationError,
    builtin_arch,
    evaluate,
    forward,
    init_weights,
    load_arch,
    loss_and_grads,
    one_shot_prune,
    softmax_cross_entropy,
)

from .oracles import conv_layer_naive, finite_diff_grads


def _conv_chain(c_in, c_out, k, stride, pad, h, w, bias=True, affine=False):
    doc = {
        "name": "probe",
        "input": [c_in, h, w],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": c_in, "c_out": c_out, "k": k,
             "stride": stride, "pad": pad, "bias": bias, "affine": affine, "prunable": True},
            {"id": 1, "kind": "fc", "c_in": c_out, "c_out": 3, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1]],
        "classifier": 1,
    }
    return load_arch(doc)


def _draw_vectors(weights, rng):
    """Bias, scale and shift drawn so that no two roles can stand in for each
    other: bias and shift nonzero, scale away from 1 and of either sign."""
    for t in weights.tensors.values():
        for role, a in t.items():
            if role == "scale":
                a[:] = rng.uniform(0.5, 1.5, size=a.shape) * rng.choice([-2.0, 2.0], size=a.shape)
            elif role != "w":
                a[:] = rng.normal(0.0, 0.5, size=a.shape)


_CONV_GEOMETRIES = [(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 1, 0), (3, 2, 1), (3, 2, 0), (5, 1, 2)]
_CONV_ROLES = {"": (True, False), "-affine": (False, True), "-bias-affine": (True, True)}


@pytest.mark.parametrize(
    "k,stride,pad,bias,affine",
    [(*g, *roles) for roles in _CONV_ROLES.values() for g in _CONV_GEOMETRIES],
    ids=["-".join(map(str, g)) + name for name in _CONV_ROLES for g in _CONV_GEOMETRIES],
)
def test_conv_matches_naive(k, stride, pad, bias, affine):
    arch = _conv_chain(2, 4, k, stride, pad, h=9, w=7, bias=bias, affine=affine)
    weights = init_weights(arch, seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 2, 9, 7))
    _draw_vectors(weights, rng)
    _, cache = forward(weights, arch, x)
    want = conv_layer_naive(x, weights.tensors[0], stride, pad)
    got = cache["outputs"][0].transpose(1, 0, 2, 3)  # cache is channel-major
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _residual_arch():
    doc = {
        "name": "res",
        "input": [2, 6, 6],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": 2, "c_out": 3, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": True, "group": 0},
            {"id": 1, "kind": "conv", "c_in": 3, "c_out": 3, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": True, "group": 0},
            {"id": 2, "kind": "conv", "c_in": 3, "c_out": 4, "k": 3, "stride": 2,
             "pad": 1, "bias": True, "prunable": True},
            {"id": 3, "kind": "fc", "c_in": 4, "c_out": 3, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1], [0, 2], [1, 2], [2, 3]],
        "classifier": 3,
    }
    return load_arch(doc)


def _shortcut_arch():
    """3x3 conv feeding a 1x1 stride-2 pad-0 conv, resnet-tiny's projection
    shortcut, on an odd-sized input so the stride skips the last row."""
    doc = {
        "name": "shortcut",
        "input": [2, 7, 6],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": 2, "c_out": 3, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": True},
            {"id": 1, "kind": "conv", "c_in": 3, "c_out": 4, "k": 1, "stride": 2,
             "pad": 0, "bias": True, "prunable": True},
            {"id": 2, "kind": "fc", "c_in": 4, "c_out": 3, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1], [1, 2]],
        "classifier": 2,
    }
    return load_arch(doc)


def test_residual_sum_feeds_consumer():
    arch = _residual_arch()
    weights = init_weights(arch, seed=2, dtype=np.float64)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2, 6, 6))
    _, cache = forward(weights, arch, x)
    summed = (cache["outputs"][0] + cache["outputs"][1]).transpose(1, 0, 2, 3)
    want = conv_layer_naive(summed, weights.tensors[2], 2, 1)
    got = cache["outputs"][2].transpose(1, 0, 2, 3)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_classifier_pools_globally():
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=0, dtype=np.float64)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3, 8, 8))
    logits, cache = forward(weights, arch, x)
    feats = cache["outputs"][1].mean(axis=(2, 3)).T  # cache is channel-major
    t = weights.tensors[2]
    np.testing.assert_allclose(logits, feats @ t["w"] + t["b"], rtol=1e-12)
    assert logits.shape == (5, 10)


def test_init_weights_statistics():
    arch = builtin_arch("resnet50-shape")
    weights = init_weights(arch, seed=9)
    l = arch.layer(1)  # stage-1 first bottleneck 1x1, fan_in 64
    w = weights.tensors[1]["w"]
    assert w.dtype == np.float32
    fan_in = l.c_in * l.kernel * l.kernel
    assert float(w.std()) == pytest.approx((2.0 / fan_in) ** 0.5, rel=0.15)
    clf = weights.tensors[arch.classifier_id]
    assert float(clf["w"].std()) == pytest.approx((1.0 / 2048) ** 0.5, rel=0.1)
    assert not clf["b"].any()
    t0 = weights.tensors[0]
    assert np.all(t0["scale"] == 1.0) and not t0["shift"].any()


def test_init_weights_deterministic():
    arch = builtin_arch("chain3")
    a = init_weights(arch, seed=(1, 2))
    b = init_weights(arch, seed=(1, 2))
    for (lid, role, ta), (_, _, tb) in zip(a.items(), b.items()):
        assert np.array_equal(ta, tb), (lid, role)
    assert a.num_params() == 404


def test_softmax_cross_entropy_values():
    loss, grad = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)
    np.testing.assert_allclose(grad, [[-0.5, 0.5]], rtol=1e-12)
    # invariant to a constant logit shift
    shifted, _ = softmax_cross_entropy(np.array([[100.0, 100.0]]), np.array([0]))
    assert shifted == pytest.approx(loss, rel=1e-12)
    with pytest.raises(ValidationError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValidationError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))


def _loss_only(weights, arch, batch):
    from prunespace import forward as fwd

    logits, _ = fwd(weights, arch, batch)
    loss, _ = softmax_cross_entropy(logits, batch.labels)
    return loss


def _assert_grads_match_finite_differences(weights, arch, batch):
    loss, grads = loss_and_grads(weights, arch, batch)
    assert np.isfinite(loss)
    numeric = finite_diff_grads(weights, arch, batch, _loss_only, eps=1e-6)
    for lid in grads.tensors:
        for role, g in grads.tensors[lid].items():
            n = numeric[lid][role]
            rel = float(np.linalg.norm(g - n)) / max(float(np.linalg.norm(n)), 1e-12)
            assert rel < 1e-7, (lid, role, rel)


@pytest.mark.parametrize("arch_factory", [lambda: builtin_arch("chain3"), _residual_arch])
def test_gradients_match_finite_differences(arch_factory):
    arch = arch_factory()
    weights = init_weights(arch, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, *arch.input_shape))
    y = rng.integers(0, arch.num_classes, size=4)
    _assert_grads_match_finite_differences(weights, arch, Batch(x, y))


def test_shortcut_gradients_match_finite_differences():
    arch = _shortcut_arch()
    weights = init_weights(arch, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    # A 1x1 conv over 3 ReLU channels often reads all zeros, so with zero
    # biases its pre-activation sits exactly on the ReLU kink, where central
    # differences see half a slope; nonzero biases move it off the kink.
    for t in weights.tensors.values():
        t["b"][:] = rng.normal(size=t["b"].shape)
    batch = Batch(rng.normal(size=(4, *arch.input_shape)), rng.integers(0, 3, size=4))
    _assert_grads_match_finite_differences(weights, arch, batch)


def test_seam_gradients_match_finite_differences():
    """Two stride-1 3x3 convs, pad 1 then pad 0, on a 7x6 input with batch 3.
    Both run on the flat padded grid, which holds border and seam columns
    between batch items; a dz that is not zero there leaks into dW and dX."""
    doc = {
        "name": "seam",
        "input": [2, 7, 6],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": 2, "c_out": 3, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": True},
            {"id": 1, "kind": "conv", "c_in": 3, "c_out": 4, "k": 3, "stride": 1,
             "pad": 0, "bias": True, "prunable": True},
            {"id": 2, "kind": "fc", "c_in": 4, "c_out": 3, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1], [1, 2]],
        "classifier": 2,
    }
    arch = load_arch(doc)
    weights = init_weights(arch, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    batch = Batch(rng.normal(size=(3, *arch.input_shape)), rng.integers(0, 3, size=3))
    _assert_grads_match_finite_differences(weights, arch, batch)


@pytest.mark.parametrize("bias", [False, True], ids=["affine", "bias-affine"])
def test_affine_gradients_match_finite_differences(bias):
    """resnet-tiny's affine convs: a 3x3 stride-1 pair whose summed outputs
    feed both a 3x3 stride-2 conv and a 1x1 stride-2 pad-0 shortcut, which the
    classifier sums. Scale away from 1 and shift away from 0 tell the two
    gradients apart from each other and from the bias's."""
    def conv(i, c_in, c_out, k, stride, pad, **extra):
        return {"id": i, "kind": "conv", "c_in": c_in, "c_out": c_out, "k": k, "stride": stride,
                "pad": pad, "bias": bias, "affine": True, "prunable": True, **extra}

    doc = {
        "name": "affine",
        "input": [2, 7, 6],
        "layers": [
            conv(0, 2, 3, 3, 1, 1, group=0),
            conv(1, 3, 3, 3, 1, 1, group=0),
            conv(2, 3, 4, 3, 2, 1, group=1),
            conv(3, 3, 4, 1, 2, 0, group=1),
            {"id": 4, "kind": "fc", "c_in": 4, "c_out": 3, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 4], [3, 4]],
        "classifier": 4,
    }
    arch = load_arch(doc)
    weights = init_weights(arch, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    _draw_vectors(weights, rng)
    batch = Batch(rng.normal(size=(3, *arch.input_shape)), rng.integers(0, 3, size=3))
    _assert_grads_match_finite_differences(weights, arch, batch)


def test_gradients_cover_every_tensor():
    arch = _residual_arch()
    weights = init_weights(arch, seed=7, dtype=np.float64)
    rng = np.random.default_rng(8)
    batch = Batch(rng.normal(size=(3, 2, 6, 6)), rng.integers(0, 3, size=3))
    _, grads = loss_and_grads(weights, arch, batch)
    for lid, t in weights.tensors.items():
        assert set(grads.tensors[lid]) == set(t), lid


def test_evaluate_chunking_and_errors():
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=1)
    rng = np.random.default_rng(2)
    batch = Batch(
        rng.normal(size=(23, 3, 8, 8)).astype(np.float32),
        rng.integers(0, 10, size=23),
    )
    assert evaluate(weights, arch, batch, chunk=7) == evaluate(weights, arch, batch)
    with pytest.raises(ValidationError):
        evaluate(weights, arch, Batch(batch.inputs[:0], batch.labels[:0]))


@pytest.mark.parametrize("size", [1, 3])
def test_kernel_leaves_the_callers_batch_unchanged(size):
    """The conv epilogue writes in place. For a batch of one, the channel-major
    input is a view of the caller's array, and a pad-0 first conv keeps it as
    its padded input; evaluation chunks are views of the dataset."""
    arch = _conv_chain(2, 4, 3, 1, 0, h=7, w=6, bias=True, affine=True)
    weights = init_weights(arch, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    _draw_vectors(weights, rng)
    batch = Batch(rng.normal(size=(size, 2, 7, 6)), rng.integers(0, 3, size=size))
    before = batch.inputs.copy()
    forward(weights, arch, batch)
    loss_and_grads(weights, arch, batch)
    evaluate(weights, arch, batch, chunk=1)
    assert np.array_equal(batch.inputs, before)


def test_forward_validates_shapes():
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=0)
    with pytest.raises(ValidationError):
        forward(weights, arch, np.zeros((1, 3, 9, 8), dtype=np.float32))
    pruned = one_shot_prune(weights, arch, [0.5, 0.5]).arch
    with pytest.raises(ValidationError):
        forward(weights, pruned, np.zeros((1, 3, 8, 8), dtype=np.float32))


def test_tensors_are_read_only_views_of_the_buffer():
    weights = init_weights(builtin_arch("resnet-tiny"), seed=0)
    with pytest.raises(TypeError):
        weights.tensors[0] = {}
    with pytest.raises(TypeError):
        weights.tensors[0]["w"] = np.zeros_like(weights.tensors[0]["w"])
    weights.tensors[0]["w"][0, 0, 0, 0] = 7.0
    assert np.count_nonzero(weights.flat == 7.0) == 1
    assert all(np.shares_memory(a, weights.flat) for _, _, a in weights.items())


def test_weights_pickle_as_layout_and_buffer():
    weights = init_weights(builtin_arch("resnet-tiny"), seed=0)
    back = pickle.loads(pickle.dumps(weights))
    assert back.layout == weights.layout and back.dtype == weights.dtype
    assert back.flat.tobytes() == weights.flat.tobytes()
    assert all(np.shares_memory(a, back.flat) for _, _, a in back.items())
