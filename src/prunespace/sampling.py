"""Constrained sampling of pruning recipes.

A pruning space is the set of recipes passing every active constraint:
a relative-FLOPs band, a relative-parameter band, an upper bound on the
recipe's population std, and a band on the compute-to-parameter ratio (mcb).

Sampling is rejection-based around a uniform anchor: bisection finds the
uniform ratio u whose cost hits the primary target, each attempt perturbs it
with iid Gaussian noise per unit, clamps to [0, R], and keeps the first draw
that passes every constraint. Attempts are drawn and costed in blocks on
the cost table; a block is the sequential Gaussian stream cut into rows, so
it accepts the draw a one-at-a-time loop would. Derived per-index seeds make
populations order-deterministic and safe to generate in parallel.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .arch import ArchitectureSpec, RATIO_MAX_DEFAULT, prunable_units, resolve_plan
from .cost import cost_table, fractional_uniform_metrics, network_cost
from .errors import FeasibilityError, SchemaError, ValidationError
from .seeds import derive_seed

DEFAULT_DELTA = 0.002
DEFAULT_SIGMA = 0.05
DEFAULT_MAX_ATTEMPTS = 100_000
# Attempts drawn and costed together; 16-64 rows run fastest on resnet50-shape.
ATTEMPT_BLOCK = 32

_SPACE_FIELDS = {
    "target_cflops", "delta", "target_cparams", "delta_params",
    "std_cap", "mcb_band", "ratio_max",
}


@dataclass(frozen=True)
class PruningRecipe:
    """Per-unit pruning ratios for one architecture."""

    arch: str
    ratios: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.ratios)

    def to_json(self) -> dict:
        return {"arch": self.arch, "ratios": list(self.ratios)}


def recipe_from_json(document: str | Mapping) -> PruningRecipe:
    doc = json.loads(document) if isinstance(document, (str, bytes)) else dict(document)
    if not isinstance(doc, dict) or set(doc) != {"arch", "ratios"}:
        raise SchemaError("recipe document must have exactly the fields 'arch' and 'ratios'")
    ratios = doc["ratios"]
    if not isinstance(ratios, list) or not all(isinstance(r, (int, float)) for r in ratios):
        raise SchemaError("'ratios' must be a list of numbers")
    return PruningRecipe(str(doc["arch"]), tuple(float(r) for r in ratios))


@dataclass(frozen=True)
class SpaceSpec:
    """Constraint set defining one pruning space. At least one cost target."""

    target_cflops: float | None = None
    delta: float = DEFAULT_DELTA
    target_cparams: float | None = None
    delta_params: float = DEFAULT_DELTA
    std_cap: float | None = None
    mcb_band: tuple[float, float] | None = None
    ratio_max: float = RATIO_MAX_DEFAULT

    def __post_init__(self):
        if self.target_cflops is None and self.target_cparams is None:
            raise ValidationError("space needs a c_flops or c_params target")
        for name, t in (("target_cflops", self.target_cflops), ("target_cparams", self.target_cparams)):
            if t is not None and not (0.0 < t <= 1.0):
                raise ValidationError(f"{name} must be in (0, 1], got {t}")
        if self.delta < 0 or self.delta_params < 0:
            raise ValidationError("band half-widths must be non-negative")
        if self.std_cap is not None and self.std_cap < 0:
            raise ValidationError("std_cap must be non-negative")
        if self.mcb_band is not None:
            center, half = self.mcb_band
            if center <= 0 or half < 0:
                raise ValidationError(f"bad mcb band {self.mcb_band}")
            object.__setattr__(self, "mcb_band", (float(center), float(half)))
        if not (0.0 < self.ratio_max < 1.0):
            raise ValidationError(f"ratio_max must be in (0, 1), got {self.ratio_max}")

    def to_json(self) -> dict:
        doc: dict = {}
        if self.target_cflops is not None:
            doc["target_cflops"] = self.target_cflops
            doc["delta"] = self.delta
        if self.target_cparams is not None:
            doc["target_cparams"] = self.target_cparams
            doc["delta_params"] = self.delta_params
        if self.std_cap is not None:
            doc["std_cap"] = self.std_cap
        if self.mcb_band is not None:
            doc["mcb_band"] = list(self.mcb_band)
        doc["ratio_max"] = self.ratio_max
        return doc


def space_from_json(document: str | Mapping) -> SpaceSpec:
    doc = json.loads(document) if isinstance(document, (str, bytes)) else dict(document)
    if not isinstance(doc, dict):
        raise SchemaError("space document must be a JSON object")
    unknown = doc.keys() - _SPACE_FIELDS
    if unknown:
        raise SchemaError(f"space has unknown fields: {sorted(unknown)}")
    kwargs: dict = {}
    for key in ("target_cflops", "delta", "target_cparams", "delta_params", "std_cap", "ratio_max"):
        if key in doc and doc[key] is not None:
            if not isinstance(doc[key], (int, float)):
                raise SchemaError(f"space field {key!r} must be a number")
            kwargs[key] = float(doc[key])
    band = doc.get("mcb_band")
    if band is not None:
        if not (isinstance(band, list) and len(band) == 2):
            raise SchemaError("'mcb_band' must be [center, half_width]")
        kwargs["mcb_band"] = (float(band[0]), float(band[1]))
    return SpaceSpec(**kwargs)


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    value: float
    lower: float
    upper: float
    passed: bool


@dataclass(frozen=True)
class MembershipReport:
    passed: bool
    checks: tuple[ConstraintCheck, ...]

    def failed_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


@dataclass(frozen=True)
class UniformBase:
    """Anchor ratio for a space: uniform recipe whose cost meets the target."""

    ratio: float
    in_band: bool
    achieved: float


def recipe_std(recipe: PruningRecipe | Sequence[float]) -> float:
    """Population standard deviation of the ratio vector (divide by N)."""
    ratios = recipe.ratios if isinstance(recipe, PruningRecipe) else tuple(recipe)
    if len(ratios) == 0:
        raise ValidationError("recipe is empty")
    return float(np.std(np.asarray(ratios, dtype=np.float64)))


def _checks(space: SpaceSpec, c_flops, c_params, ratios: np.ndarray) -> tuple[list, np.ndarray]:
    """Each active constraint as (name, values, lower, upper) over a block of
    recipe rows, and the mask of the rows that pass them all."""
    checks = []
    if space.target_cflops is not None:
        checks.append(("c_flops", c_flops, space.target_cflops - space.delta, space.target_cflops + space.delta))
    if space.target_cparams is not None:
        lo, hi = space.target_cparams - space.delta_params, space.target_cparams + space.delta_params
        checks.append(("c_params", c_params, lo, hi))
    if space.std_cap is not None:
        checks.append(("recipe_std", np.std(ratios, axis=1), 0.0, space.std_cap))
    if space.mcb_band is not None:
        center, half = space.mcb_band
        checks.append(("mcb", c_flops / c_params, center - half, center + half))
    return checks, np.logical_and.reduce([(lo <= v) & (v <= hi) for _, v, lo, hi in checks])


def is_member(
    arch: ArchitectureSpec, space: SpaceSpec, recipe: PruningRecipe | Sequence[float]
) -> MembershipReport:
    """Evaluate every active constraint; raises on malformed recipes."""
    report = network_cost(arch, resolve_plan(arch, recipe, space.ratio_max))
    ratios = np.array([getattr(recipe, "ratios", recipe)], dtype=np.float64)
    checks, passed = _checks(space, np.array([report.c_flops]), np.array([report.c_params]), ratios)
    return MembershipReport(bool(passed[0]), tuple(
        ConstraintCheck(name, float(v[0]), lo, hi, bool(lo <= v[0] <= hi)) for name, v, lo, hi in checks))


def uniform_base_ratio(
    arch: ArchitectureSpec,
    target: float,
    delta: float = DEFAULT_DELTA,
    metric: str = "flops",
    ratio_max: float = RATIO_MAX_DEFAULT,
) -> UniformBase:
    """Find the uniform ratio whose relative cost lands in [target - delta, target + delta].

    Bisects the continuous relaxation (fractional kept channels), then checks
    the banded target on the real rounded map at the root and, in one batch,
    at neighboring rounding plateaus. If the step map jumps clean over the
    band, the nearest plateau boundary comes back flagged (in_band=False).
    """
    if metric not in ("flops", "params"):
        raise ValidationError(f"metric must be 'flops' or 'params', got {metric!r}")
    if not prunable_units(arch):
        raise FeasibilityError(f"{arch.name}: no prunable units to sample")
    if not (0.0 < target <= 1.0):
        raise ValidationError(f"target must be in (0, 1], got {target}")
    if delta < 0:
        raise ValidationError("delta must be non-negative")

    idx = 0 if metric == "flops" else 1
    table = cost_table(arch)
    rounded = lambda us: table.relative(np.outer(us, np.ones(len(table.unit_c_out))))[idx]
    floor_cost = float(rounded([ratio_max])[0])
    if floor_cost > target + delta:
        raise FeasibilityError(
            f"target {metric} {target} +- {delta} unreachable: kept channels floor at 1, "
            f"minimum reachable is {floor_cost:.6g}"
        )
    if target - delta > 1.0:
        raise FeasibilityError(f"target {metric} {target} - {delta} exceeds the dense cost 1.0")

    frac = lambda u: fractional_uniform_metrics(arch, u)[idx]
    lo, hi = 0.0, ratio_max
    if frac(lo) <= target:
        root = lo
    elif frac(hi) >= target:
        root = hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if frac(mid) > target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13:
                break
        root = 0.5 * (lo + hi)

    achieved = float(rounded([root])[0])
    if abs(achieved - target) <= delta:
        return UniformBase(root, True, achieved)

    # The rounded map plateaus; probe the plateau edges around the root in one batch.
    points = np.array(sorted({1.0 - (j + 0.5) / u.c_out for u in prunable_units(arch) for j in range(u.c_out)}))
    points = points[(points > 0.0) & (points <= ratio_max)]
    left, right = points[points <= root][-2:], points[points > root][:2]
    probes = np.concatenate([np.column_stack([np.maximum(0.0, left - 1e-9), left]).ravel(),
                             np.column_stack([right, np.minimum(ratio_max, right + 1e-9)]).ravel()])
    costs = rounded(probes)
    hits = np.flatnonzero(np.abs(costs - target) <= delta)
    if hits.size:
        return UniformBase(float(probes[hits[0]]), True, float(costs[hits[0]]))
    nearest = float(points[np.argmin(np.abs(points - root))]) if points.size else root
    return UniformBase(nearest, False, float(rounded([nearest])[0]))


def _anchor(arch: ArchitectureSpec, space: SpaceSpec) -> UniformBase:
    """The space's uniform anchor, found on its primary cost target."""
    if space.target_cflops is not None:
        return uniform_base_ratio(arch, space.target_cflops, space.delta, "flops", space.ratio_max)
    return uniform_base_ratio(arch, space.target_cparams, space.delta_params, "params", space.ratio_max)


def sample_recipe(
    arch: ArchitectureSpec,
    space: SpaceSpec,
    seed: int | Sequence[int],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    _base: UniformBase | None = None,
) -> PruningRecipe:
    """First accepted draw of uniform-anchor + Gaussian-perturbation sampling.

    Deterministic given (arch, space, seed). Raises FeasibilityError when
    max_attempts draws all miss the space.
    """
    base = _base or _anchor(arch, space)
    sigma = space.std_cap if space.std_cap is not None else DEFAULT_SIGMA
    table = cost_table(arch)
    rng = np.random.default_rng(seed)
    n = len(table.unit_c_out)
    for start in range(0, max_attempts, ATTEMPT_BLOCK):
        rows = min(ATTEMPT_BLOCK, max_attempts - start)
        eps = rng.normal(0.0, sigma, size=(rows, n)) if sigma > 0 else np.zeros((rows, n))
        ratios = np.clip(base.ratio + eps, 0.0, space.ratio_max)
        _, passed = _checks(space, *table.relative(ratios), ratios)
        if passed.any():
            return PruningRecipe(arch.name, tuple(ratios[passed.argmax()].tolist()))
    raise FeasibilityError(
        f"no member of the space found in {max_attempts} attempts "
        f"(anchor u={base.ratio:.6g}, in_band={base.in_band})",
        attempts=max_attempts,
    )


def sample_population(
    arch: ArchitectureSpec,
    space: SpaceSpec,
    n: int,
    seed: int | Sequence[int],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> list[PruningRecipe]:
    """n recipes with derived seeds (seed, index); order-deterministic."""
    if n < 1:
        raise ValidationError(f"population size must be >= 1, got {n}")
    base = _anchor(arch, space)
    return [
        sample_recipe(arch, space, derive_seed(seed, i), max_attempts, _base=base)
        for i in range(n)
    ]
