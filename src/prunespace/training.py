"""Learning-rate schedules and the SGD training loop.

Three schedule kinds cover the retraining strategies under study:

  finetune  cosine from a small lr (default 0.01), weights kept as given
  rewind    linear warmup 0 -> lr0 over warmup epochs, then cosine; lr0
            matches the scratch rate (default 0.1)
  scratch   cosine from lr0 = 0.1 after re-initializing the weights

All kinds share SGD with momentum 0.9, weight decay 5e-4 applied uniformly to
every tensor, and batch size 32. Comparisons across strategies should pin the
epoch count; records downstream always carry it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arch import ArchitectureSpec
from .dataset import Batch
from .errors import TrainingDiverged, ValidationError
from .network import NetworkWeights, evaluate, init_weights, loss_and_grads
from .schema import spec_from_json, spec_to_json
from .seeds import derive_seed

_DEFAULT_LR0 = {"finetune": 0.01, "rewind": 0.1, "scratch": 0.1}
KINDS = tuple(_DEFAULT_LR0)


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str
    epochs: int
    lr0: float | None = None  # None takes the kind's default
    warmup_epochs: int = 5
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"schedule kind must be one of {KINDS}, got {self.kind!r}")
        if self.lr0 is None:
            object.__setattr__(self, "lr0", _DEFAULT_LR0[self.kind])
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.lr0 <= 0:
            raise ValidationError("lr0 must be positive")
        if self.kind == "rewind" and not (0 < self.warmup_epochs < self.epochs):
            raise ValidationError("rewind needs 0 < warmup_epochs < epochs")
        if not (0.0 <= self.momentum < 1.0):
            raise ValidationError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be non-negative")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")

    to_json = spec_to_json


schedule_from_json = functools.partial(spec_from_json, ScheduleSpec)
finetune_schedule = functools.partial(ScheduleSpec, "finetune")
rewind_schedule = functools.partial(ScheduleSpec, "rewind")
scratch_schedule = functools.partial(ScheduleSpec, "scratch")


def lr_at(schedule: ScheduleSpec, epoch: float) -> float:
    """Learning rate at an epoch index in [0, epochs] (endpoint included so the
    cosine's terminal zero is observable)."""
    t = schedule.epochs
    if not (0 <= epoch <= t):
        raise ValidationError(f"epoch {epoch} outside [0, {t}]")
    if schedule.kind in ("finetune", "scratch"):
        return 0.5 * schedule.lr0 * (1.0 + math.cos(math.pi * epoch / t))
    warm = schedule.warmup_epochs
    if epoch < warm:
        return schedule.lr0 * epoch / warm
    return 0.5 * schedule.lr0 * (1.0 + math.cos(math.pi * (epoch - warm) / (t - warm)))


@dataclass(frozen=True)
class TrainResult:
    """Trained weights, the loss of the last step, and the per-epoch trace.

    `trace` holds the validation accuracy after each epoch when `train` was
    asked for it (`per_epoch=True`), and is empty otherwise; a caller that
    needs only the final accuracy evaluates `weights` once itself.
    """

    weights: NetworkWeights
    trace: tuple[float, ...]
    final_loss: float


def train(
    weights: NetworkWeights,
    arch: ArchitectureSpec,
    data: tuple[Batch, Batch],
    schedule: ScheduleSpec,
    seed,
    *,
    per_epoch: bool = True,
) -> TrainResult:
    """SGD over the training split; with `per_epoch`, validation accuracy after each epoch.

    The momentum is one buffer on the weights' layout, as the gradients are,
    so a step updates every tensor at once.
    Deterministic in (weights, data, schedule, seed). A scratch schedule
    re-initializes from a seed-derived key and ignores the incoming values.
    Evaluation reads no RNG state and writes no weight, so `per_epoch=False`,
    which evaluates nothing and returns an empty trace, trains the same
    weights. Raises TrainingDiverged, with the epoch, the step and the partial
    trace, on a non-finite loss.
    """
    train_batch, val_batch = data
    if schedule.kind == "scratch":
        weights = init_weights(arch, derive_seed(seed, 1), dtype=weights.dtype)
    else:
        weights = weights.copy()
    rng = np.random.default_rng(derive_seed(seed, 0))
    w, v = weights.flat, np.zeros_like(weights.flat)
    mu = schedule.momentum
    wd = schedule.weight_decay
    n = len(train_batch)
    trace: list[float] = []
    loss = math.nan
    # divergence surfaces as a non-finite loss below; the interim overflow is expected
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(schedule.epochs):
            lr = lr_at(schedule, epoch)
            order = rng.permutation(n)
            for start in range(0, n, schedule.batch_size):
                idx = order[start : start + schedule.batch_size]
                loss, grads = loss_and_grads(weights, arch, train_batch.take(idx))
                if not math.isfinite(loss):
                    step = start // schedule.batch_size
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, step {step}",
                        trace=tuple(trace), epoch=epoch, step=step,
                    )
                v *= mu
                v += grads.flat + wd * w
                w -= lr * v
            if per_epoch:
                trace.append(evaluate(weights, arch, val_batch))
    return TrainResult(weights, tuple(trace), loss)
