"""Seed keys: every random stream is numpy's generator on an integer tuple.

A key is the run's seed followed by role tags and item indices, so item `i`
of any stream is reproducible without drawing items 0..i-1.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def derive_seed(seed: int | Sequence[int], index: int) -> tuple[int, ...]:
    """Per-item seed key: append the index to the base seed tuple."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed), int(index))
    return tuple(int(s) for s in seed) + (int(index),)
