import numpy as np
import pytest

from prunespace import (
    Batch,
    DatasetSpec,
    SchemaError,
    ValidationError,
    class_templates,
    dataset_from_json,
)

from .oracles import nearest_template_labels


def test_default_split_sizes():
    train, val = DatasetSpec().build()
    assert train.inputs.shape == (800, 3, 16, 16)
    assert val.inputs.shape == (200, 3, 16, 16)
    assert train.inputs.dtype == np.float32
    # 80/20 within every class
    for cls in range(10):
        assert int((train.labels == cls).sum()) == 80
        assert int((val.labels == cls).sum()) == 20


def test_split_scales_with_per_class():
    train, val = DatasetSpec(per_class=200).build()
    assert len(train) == 1600
    assert len(val) == 400


def test_build_is_deterministic():
    a_train, a_val = DatasetSpec(seed=5).build()
    b_train, b_val = DatasetSpec(seed=5).build()
    assert np.array_equal(a_train.inputs, b_train.inputs)
    assert np.array_equal(a_val.inputs, b_val.inputs)
    assert np.array_equal(a_train.labels, b_train.labels)
    c_train, _ = DatasetSpec(seed=6).build()
    assert not np.array_equal(a_train.inputs, c_train.inputs)


def test_zero_noise_reproduces_templates():
    spec = DatasetSpec(seed=3, noise_sigma=0.0, per_class=10)
    train, val = spec.build(dtype=np.float64)
    templates = class_templates(3, spec.num_classes, spec.shape)
    for batch in (train, val):
        assert np.array_equal(batch.inputs, templates[batch.labels])
        pred = nearest_template_labels(batch.inputs, templates)
        assert np.array_equal(pred, batch.labels)


def test_templates_are_blockwise_constant():
    t = class_templates(0, 4, (2, 16, 16))
    assert t.shape == (4, 2, 16, 16)
    blocks = t.reshape(4, 2, 4, 4, 4, 4)
    assert np.all(blocks == blocks[:, :, :, :1, :, :1])
    # ragged sizes crop the last block
    t2 = class_templates(0, 2, (1, 6, 7))
    assert t2.shape == (2, 1, 6, 7)


def test_moderate_noise_stays_separable():
    spec = DatasetSpec(seed=1, noise_sigma=0.3, per_class=20)
    _, val = spec.build()
    templates = class_templates(1, spec.num_classes, spec.shape)
    pred = nearest_template_labels(val.inputs, templates)
    assert (pred == val.labels).mean() == 1.0


def test_dataset_validation():
    with pytest.raises(ValidationError):
        DatasetSpec(num_classes=1)
    with pytest.raises(ValidationError):
        DatasetSpec(per_class=3)
    with pytest.raises(ValidationError):
        DatasetSpec(shape=(3, 16))
    with pytest.raises(ValidationError):
        DatasetSpec(shape=(3, 0, 16))
    with pytest.raises(ValidationError):
        DatasetSpec(noise_sigma=-0.1)
    with pytest.raises(SchemaError, match="samples per class"):
        dataset_from_json({"per_class": 3})


def test_dataset_spec_json():
    assert dataset_from_json({}) == DatasetSpec()
    with pytest.raises(SchemaError):
        dataset_from_json({"sigma": 0.5})
    with pytest.raises(SchemaError):
        dataset_from_json({"shape": [3, 16]})


def test_batch_validation_and_take():
    x = np.zeros((4, 3, 8, 8), dtype=np.float32)
    y = np.arange(4)
    b = Batch(x, y)
    sub = b.take(np.array([2, 0]))
    assert np.array_equal(sub.labels, [2, 0])
    with pytest.raises(ValidationError):
        Batch(x, np.arange(3))
    with pytest.raises(ValidationError):
        Batch(x[0], y)
