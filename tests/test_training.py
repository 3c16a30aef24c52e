import math

import numpy as np
import pytest

from prunespace import (
    DatasetSpec,
    ScheduleSpec,
    TrainingDiverged,
    ValidationError,
    builtin_arch,
    finetune_schedule,
    init_weights,
    lr_at,
    rewind_schedule,
    schedule_from_json,
    scratch_schedule,
    train,
)


def _chain3_data(dtype=np.float32):
    spec = DatasetSpec(seed=0, per_class=10, shape=(3, 8, 8))
    return spec.build(dtype)


def test_schedule_validation():
    with pytest.raises(ValidationError):
        ScheduleSpec("warmhold", 10, 0.1)
    with pytest.raises(ValidationError):
        ScheduleSpec("finetune", 0, 0.1)
    with pytest.raises(ValidationError):
        ScheduleSpec("finetune", 10, 0.0)
    with pytest.raises(ValidationError):
        ScheduleSpec("rewind", 5, 0.1, warmup_epochs=5)
    with pytest.raises(ValidationError):
        ScheduleSpec("finetune", 10, 0.1, momentum=1.0)
    with pytest.raises(ValidationError):
        ScheduleSpec("finetune", 10, 0.1, weight_decay=-1e-4)
    with pytest.raises(ValidationError):
        ScheduleSpec("finetune", 10, 0.1, batch_size=0)


def test_schedule_defaults_per_kind():
    assert finetune_schedule(10).lr0 == 0.01
    assert rewind_schedule(10).lr0 == 0.1
    assert scratch_schedule(10).lr0 == 0.1
    assert schedule_from_json({"kind": "finetune", "epochs": 4}).lr0 == 0.01
    assert schedule_from_json({"kind": "scratch", "epochs": 4}).lr0 == 0.1
    with pytest.raises(ValidationError):
        schedule_from_json({"kind": "finetune"})
    with pytest.raises(ValidationError):
        schedule_from_json({"kind": "finetune", "epochs": 4, "bogus": 1})


def test_lr_at_cosine_values():
    s = finetune_schedule(10)
    assert lr_at(s, 0) == pytest.approx(0.01)
    assert lr_at(s, 5) == pytest.approx(0.005)
    assert lr_at(s, 10) == pytest.approx(0.0, abs=1e-18)
    sc = scratch_schedule(8)
    assert lr_at(sc, 0) == pytest.approx(0.1)
    assert lr_at(sc, 4) == pytest.approx(0.05)
    with pytest.raises(ValidationError):
        lr_at(s, 11)
    with pytest.raises(ValidationError):
        lr_at(s, -1)


def test_lr_at_rewind_warmup():
    s = rewind_schedule(20, lr0=0.1, warmup_epochs=5)
    assert lr_at(s, 0) == 0.0
    assert lr_at(s, 2.5) == pytest.approx(0.05)
    assert lr_at(s, 5) == pytest.approx(0.1)  # warmup peak
    # cosine midpoint of the remaining 15 epochs
    assert lr_at(s, 5 + 7.5) == pytest.approx(0.05)
    assert lr_at(s, 20) == pytest.approx(0.0, abs=1e-18)


def test_train_is_deterministic():
    arch = builtin_arch("chain3")
    data = _chain3_data()
    weights = init_weights(arch, seed=1)
    sched = finetune_schedule(2)
    a = train(weights, arch, data, sched, seed=4)
    b = train(weights, arch, data, sched, seed=4)
    assert a.trace == b.trace
    assert a.final_loss == b.final_loss
    for (lid, role, ta), (_, _, tb) in zip(a.weights.items(), b.weights.items()):
        assert np.array_equal(ta, tb), (lid, role)
    c = train(weights, arch, data, sched, seed=5)
    assert any(
        not np.array_equal(ta, tc)
        for (_, _, ta), (_, _, tc) in zip(a.weights.items(), c.weights.items())
    )


def test_train_does_not_mutate_input_weights():
    arch = builtin_arch("chain3")
    data = _chain3_data()
    weights = init_weights(arch, seed=1)
    before = {(lid, role): a.copy() for lid, role, a in weights.items()}
    train(weights, arch, data, finetune_schedule(1), seed=0)
    for (lid, role, a) in weights.items():
        assert np.array_equal(a, before[(lid, role)])


def test_scratch_ignores_incoming_weights():
    arch = builtin_arch("chain3")
    data = _chain3_data()
    sched = scratch_schedule(1, lr0=0.01)
    a = train(init_weights(arch, seed=1), arch, data, sched, seed=9)
    b = train(init_weights(arch, seed=2), arch, data, sched, seed=9)
    for (lid, role, ta), (_, _, tb) in zip(a.weights.items(), b.weights.items()):
        assert np.array_equal(ta, tb), (lid, role)


def test_epsilon_lr_is_a_numerical_noop():
    # at lr ~ 1e-300 every float32 update underflows to zero
    arch = builtin_arch("chain3")
    data = _chain3_data()
    weights = init_weights(arch, seed=3)
    out = train(weights, arch, data, finetune_schedule(1, lr0=1e-300), seed=0)
    for (lid, role, a), (_, _, o) in zip(weights.items(), out.weights.items()):
        assert np.array_equal(a, o), (lid, role)


def test_chain3_trains_to_high_accuracy():
    arch = builtin_arch("chain3")
    data = DatasetSpec(seed=0, per_class=50, shape=(3, 8, 8)).build()
    result = train(init_weights(arch, seed=0), arch, data, scratch_schedule(10), seed=0)
    assert len(result.trace) == 10
    assert result.trace[-1] >= 0.9
    assert math.isfinite(result.final_loss)


def test_divergence_raises_with_partial_trace():
    arch = builtin_arch("resnet-tiny")
    data = DatasetSpec(seed=0, per_class=10).build()
    sched = scratch_schedule(3, lr0=5.0)
    with pytest.raises(TrainingDiverged) as err:
        train(init_weights(arch, seed=0), arch, data, sched, seed=0)
    assert isinstance(err.value.trace, tuple)
    assert len(err.value.trace) < 3
