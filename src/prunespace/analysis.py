"""Population statistics over retrained subnetworks.

The central object is the empirical distribution function over accuracy drops,

    F(e) = (1/n) * sum_i 1[drop_i < e]

with a strict inequality, so F is right-continuous from the left of each
sample and F(min drop) = 0. Comparisons read "higher EDF is better": mass on
smaller drops. Diverged trials carry an infinite drop and simply never enter
the strict count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .arch import ArchitectureSpec, prunable_units, resolve_plan
from .cost import CostReport, network_cost
from .errors import ValidationError
from .sampling import uniform_base_ratio
from .schema import spec_to_json


@dataclass(frozen=True, kw_only=True)
class TrialRecord:
    """One retrained subnetwork: recipe, exact costs, and the observed drop.

    Also the spec of a trial-log line, whose keys are its fields in order. The
    drop is in percentage points; a diverged trial's is +inf, written as null.
    """

    index: int
    recipe: tuple[float, ...]
    arch: str
    cost: CostReport
    recipe_std: float
    accuracy_drop: float | None
    diverged: bool
    schedule: str
    epochs: int
    seed: int

    def __post_init__(self):
        if self.diverged and self.accuracy_drop in (None, math.inf):
            object.__setattr__(self, "accuracy_drop", math.inf)
        elif self.diverged or self.accuracy_drop is None or not math.isfinite(self.accuracy_drop):
            raise ValidationError(
                f"accuracy_drop must be null or inf exactly when the trial diverged, "
                f"got {self.accuracy_drop} with diverged {self.diverged}"
            )

    def to_json(self) -> dict:
        return {**spec_to_json(self), "accuracy_drop": None} if self.diverged else spec_to_json(self)


def accuracy_drop(dense_acc: float, sub_acc: float) -> float:
    """Drop in percentage points; negative when the subnetwork wins."""
    return (dense_acc - sub_acc) * 100.0


def _drops(trials: Iterable) -> np.ndarray:
    values = []
    for t in trials:
        values.append(t.accuracy_drop if isinstance(t, TrialRecord) else float(t))
    if not values:
        raise ValidationError("no trials given")
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True)
class EDFCurve:
    drops: np.ndarray  # sorted
    n: int

    def fraction_below(self, e: float) -> float:
        return float(np.searchsorted(self.drops, e, side="left")) / self.n

    def fraction_at_or_below(self, e: float) -> float:
        return float(np.searchsorted(self.drops, e, side="right")) / self.n


def edf(trials: Sequence) -> EDFCurve:
    """Empirical distribution of accuracy drops (strict inequality)."""
    drops = np.sort(_drops(trials))
    return EDFCurve(drops, len(drops))


def edf_eval(curve: EDFCurve, e: float) -> float:
    """F(e) = fraction of drops strictly below e."""
    return curve.fraction_below(e)


_FIELDS = ("c_flops", "c_params", "mcb", "recipe_std", "accuracy_drop")


def _field_values(trials: Sequence[TrialRecord], field_name: str) -> np.ndarray:
    if field_name not in _FIELDS:
        raise ValidationError(f"field must be one of {_FIELDS}, got {field_name!r}")
    if field_name in ("c_flops", "c_params", "mcb"):
        vals = [getattr(t.cost, field_name) for t in trials]
    else:
        vals = [getattr(t, field_name) for t in trials]
    if not vals:
        raise ValidationError("no trials given")
    return np.asarray(vals, dtype=np.float64)


@dataclass(frozen=True)
class DistributionSummary:
    field: str
    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


def distribution_summary(
    trials: Sequence[TrialRecord], field_name: str, bins: int = 20
) -> DistributionSummary:
    """Histogram (fixed-width bins over [min, max]) plus quartiles of one field."""
    if bins < 1:
        raise ValidationError("bins must be >= 1")
    values = _field_values(trials, field_name)
    if not np.isfinite(values).all():
        values = values[np.isfinite(values)]
        if values.size == 0:
            raise ValidationError("no finite values to summarize")
    counts, edges = np.histogram(values, bins=bins)
    q0, q1, q2, q3, q4 = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    return DistributionSummary(
        field=field_name,
        n=int(values.size),
        minimum=float(q0),
        q1=float(q1),
        median=float(q2),
        q3=float(q3),
        maximum=float(q4),
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
    )


def top_k_winners(trials: Sequence[TrialRecord], k: int) -> list[TrialRecord]:
    """k best trials by smallest drop; ties by smaller c_flops, then lower seed."""
    trials = list(trials)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > len(trials):
        raise ValidationError(f"k = {k} exceeds population size {len(trials)}")
    return sorted(trials, key=lambda t: (t.accuracy_drop, t.cost.c_flops, t.seed))[:k]


@dataclass(frozen=True)
class RegimeRow:
    """One FLOPs regime's winners; `regimes_csv` writes the fields as columns, in order."""

    target_cflops: float
    flops_reduction: float
    winner_mcb_q1: float
    winner_mcb_median: float
    winner_mcb_q3: float
    best_drop: float
    uniform_mcb: float


def winner_mcb_by_regime(
    arch: ArchitectureSpec,
    trials_by_target: Mapping[float, Sequence[TrialRecord]],
    k: int,
) -> list[RegimeRow]:
    """Winner compute-to-parameter budgets per FLOPs regime, with the uniform
    recipe's mcb at each target as the reference point."""
    rows = []
    for target in sorted(trials_by_target, reverse=True):
        trials = trials_by_target[target]
        winners = top_k_winners(trials, k)
        mcbs = np.asarray([t.cost.mcb for t in winners], dtype=np.float64)
        q1, med, q3 = np.quantile(mcbs, [0.25, 0.5, 0.75])
        base = uniform_base_ratio(arch, target)
        plan = resolve_plan(arch, [base.ratio] * len(prunable_units(arch)))
        uniform = network_cost(arch, plan).mcb
        rows.append(
            RegimeRow(
                target_cflops=float(target),
                flops_reduction=float(1.0 - target),
                winner_mcb_q1=float(q1),
                winner_mcb_median=float(med),
                winner_mcb_q3=float(q3),
                best_drop=float(winners[0].accuracy_drop),
                uniform_mcb=float(uniform),
            )
        )
    return rows


@dataclass(frozen=True)
class PairComparison:
    space_a: str
    space_b: str
    quantile_levels: tuple[float, ...]
    drop_points: tuple[float, ...]
    edf_a: tuple[float, ...]
    edf_b: tuple[float, ...]
    diffs: tuple[float, ...]
    a_dominates_at_median: bool


@dataclass(frozen=True)
class SpaceComparison:
    pooled_quantiles: tuple[float, ...]
    pairs: tuple[PairComparison, ...]


def compare_spaces(
    trials_by_space: Mapping[str, Sequence[TrialRecord]],
    quantile_levels: Sequence[float] = (0.25, 0.5, 0.75),
) -> SpaceComparison:
    """EDF differences between spaces at the pooled drop quantiles.

    For each ordered pair (A, B): F_A(q) - F_B(q) at every pooled quantile,
    and a weak-dominance verdict F_A >= F_B at the pooled median.
    """
    if len(trials_by_space) < 2:
        raise ValidationError("need at least two spaces to compare")
    levels = tuple(float(q) for q in quantile_levels)
    if 0.5 not in levels:
        raise ValidationError("quantile levels must include the median 0.5")
    pooled = np.concatenate([_drops(t) for t in trials_by_space.values()])
    finite = pooled[np.isfinite(pooled)]
    if finite.size == 0:
        raise ValidationError("every pooled trial diverged; nothing to compare")
    points = tuple(float(v) for v in np.quantile(finite, levels))
    curves = {name: edf(trials) for name, trials in trials_by_space.items()}
    median_point = points[levels.index(0.5)]
    pairs = []
    names = sorted(trials_by_space)
    for a in names:
        for b in names:
            if a == b:
                continue
            fa = tuple(edf_eval(curves[a], p) for p in points)
            fb = tuple(edf_eval(curves[b], p) for p in points)
            pairs.append(
                PairComparison(
                    space_a=a,
                    space_b=b,
                    quantile_levels=levels,
                    drop_points=points,
                    edf_a=fa,
                    edf_b=fb,
                    diffs=tuple(x - y for x, y in zip(fa, fb)),
                    a_dominates_at_median=edf_eval(curves[a], median_point)
                    >= edf_eval(curves[b], median_point),
                )
            )
    return SpaceComparison(points, tuple(pairs))
