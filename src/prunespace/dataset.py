"""Synthetic template-plus-noise image classification data.

Each class gets a fixed random spatial template (blockwise-constant noise, so
small conv kernels see both levels and edges); samples add iid pixel noise.
The generator is fully determined by its seed and splits 80/20 per class.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .schema import spec_from_json, spec_to_json
from .seeds import derive_seed

DEFAULT_NOISE_SIGMA = 0.5
_BLOCK = 4


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # (n, c, h, w)
    labels: np.ndarray  # (n,) integer class ids

    def __post_init__(self):
        if self.inputs.ndim != 4 or self.labels.ndim != 1:
            raise ValidationError("batch needs inputs (n, c, h, w) and labels (n,)")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValidationError("inputs and labels disagree on batch size")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "Batch":
        return Batch(self.inputs[idx], self.labels[idx])


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to regenerate a dataset deterministically."""

    seed: int = 0
    num_classes: int = 10
    per_class: int = 100
    shape: tuple[int, int, int] = (3, 16, 16)
    noise_sigma: float = DEFAULT_NOISE_SIGMA

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.per_class < 5:
            raise ValidationError("need at least 5 samples per class for an 80/20 split")
        if len(self.shape) != 3 or any(v < 1 for v in self.shape):
            raise ValidationError(f"bad sample shape {tuple(self.shape)}")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be non-negative")

    def build(self, dtype=np.float32) -> tuple[Batch, Batch]:
        """(train, validation) batches, split 80/20 within every class."""
        templates = class_templates(self.seed, self.num_classes, self.shape)
        rng = np.random.default_rng(derive_seed(self.seed, 1))
        n_train = round(0.8 * self.per_class)
        train_x, train_y, val_x, val_y = [], [], [], []
        for cls in range(self.num_classes):
            noise = rng.normal(0.0, 1.0, size=(self.per_class, *self.shape)) * self.noise_sigma
            samples = templates[cls][None] + noise
            train_x.append(samples[:n_train])
            val_x.append(samples[n_train:])
            train_y.append(np.full(n_train, cls, dtype=np.int64))
            val_y.append(np.full(self.per_class - n_train, cls, dtype=np.int64))
        train = Batch(np.concatenate(train_x).astype(dtype), np.concatenate(train_y))
        val = Batch(np.concatenate(val_x).astype(dtype), np.concatenate(val_y))
        return train, val

    to_json = spec_to_json


dataset_from_json = functools.partial(spec_from_json, DatasetSpec)


def class_templates(
    seed: int | Sequence[int], num_classes: int, shape: Sequence[int]
) -> np.ndarray:
    """The fixed per-class templates, exposed for oracle checks."""
    c, h, w = shape
    rng = np.random.default_rng(seed)
    hb = -(-h // _BLOCK)
    wb = -(-w // _BLOCK)
    coarse = rng.normal(0.0, 1.0, size=(num_classes, c, hb, wb))
    full = np.kron(coarse, np.ones((1, 1, _BLOCK, _BLOCK)))
    return full[:, :, :h, :w]
