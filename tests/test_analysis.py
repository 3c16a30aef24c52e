import math

import numpy as np
import pytest

from prunespace import (
    CostReport,
    FeasibilityError,
    SpaceSpec,
    TrialRecord,
    ValidationError,
    accuracy_drop,
    builtin_arch,
    compare_spaces,
    distribution_summary,
    edf,
    edf_eval,
    top_k_winners,
    winner_mcb_by_regime,
)

from .oracles import edf_value, quantile_sorted


def _trial(index, drop, c_flops=0.5, mcb=0.9, seed=0, std=0.05):
    c_params = c_flops / mcb
    cost = CostReport(1000, 500, c_flops, c_params, mcb)
    diverged = math.isinf(drop)
    return TrialRecord(
        index=index,
        recipe=(0.5, 0.5),
        arch="chain3",
        cost=cost,
        recipe_std=std,
        accuracy_drop=drop,
        schedule="finetune",
        epochs=2,
        seed=seed,
        diverged=diverged,
    )


def test_accuracy_drop_units():
    assert accuracy_drop(0.95, 0.90) == pytest.approx(5.0)
    assert accuracy_drop(0.90, 0.95) == pytest.approx(-5.0)
    assert accuracy_drop(1.0, 1.0) == 0.0


def test_trial_record_divergence_invariant():
    assert _trial(0, math.inf).diverged
    with pytest.raises(ValidationError):
        TrialRecord(
            index=0, recipe=(0.5,), arch="a", cost=CostReport(1, 1, 0.5, 0.5, 1.0),
            recipe_std=0.0, accuracy_drop=1.0, schedule="finetune", epochs=1,
            seed=0, diverged=True,
        )


def test_edf_strict_inequality():
    curve = edf([_trial(i, d) for i, d in enumerate([1.0, 2.0, 2.0, 3.0])])
    assert edf_eval(curve, 1.0) == 0.0  # strictly below the minimum: nothing
    assert edf_eval(curve, 2.0) == 0.25
    assert edf_eval(curve, 2.5) == 0.75
    assert edf_eval(curve, 100.0) == 1.0
    assert curve.fraction_at_or_below(2.0) == 0.75
    with pytest.raises(ValidationError):
        edf([])


def test_edf_accepts_raw_floats_and_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        drops = rng.normal(0.0, 3.0, size=rng.integers(1, 40)).tolist()
        curve = edf(drops)
        for e in rng.normal(0.0, 3.0, size=5):
            assert edf_eval(curve, float(e)) == edf_value(drops, float(e))


def test_edf_ignores_diverged_mass():
    drops = [1.0, 2.0, math.inf, math.inf]
    curve = edf([_trial(i, d) for i, d in enumerate(drops)])
    assert edf_eval(curve, 1e12) == 0.5  # diverged trials never enter the count
    assert edf_eval(curve, 2.5) == 0.5


def test_distribution_summary_quartiles_match_sorted_oracle():
    rng = np.random.default_rng(1)
    values = rng.normal(size=37).tolist()
    trials = [_trial(i, v) for i, v in enumerate(values)]
    s = distribution_summary(trials, "accuracy_drop", bins=8)
    assert s.n == 37
    assert s.minimum == pytest.approx(min(values))
    assert s.maximum == pytest.approx(max(values))
    assert s.q1 == pytest.approx(quantile_sorted(values, 0.25), rel=1e-12)
    assert s.median == pytest.approx(quantile_sorted(values, 0.5), rel=1e-12)
    assert s.q3 == pytest.approx(quantile_sorted(values, 0.75), rel=1e-12)
    assert sum(s.counts) == 37
    assert len(s.bin_edges) == 9


def test_distribution_summary_fields_and_validation():
    trials = [_trial(i, float(i), c_flops=0.4 + 0.01 * i, mcb=0.8 + 0.01 * i) for i in range(5)]
    s = distribution_summary(trials, "mcb", bins=2)
    assert s.minimum == pytest.approx(0.8)
    assert s.maximum == pytest.approx(0.84)
    with pytest.raises(ValidationError):
        distribution_summary(trials, "loss")
    with pytest.raises(ValidationError):
        distribution_summary(trials, "accuracy_drop", bins=0)
    with pytest.raises(ValidationError):
        distribution_summary([], "accuracy_drop")


def test_distribution_summary_drops_diverged():
    trials = [_trial(0, 1.0), _trial(1, math.inf), _trial(2, 3.0)]
    s = distribution_summary(trials, "accuracy_drop")
    assert s.n == 2 and s.maximum == 3.0
    with pytest.raises(ValidationError):
        distribution_summary([_trial(0, math.inf)], "accuracy_drop")


def test_top_k_winners_ordering():
    trials = [
        _trial(0, 2.0, c_flops=0.5, seed=7),
        _trial(1, 1.0, c_flops=0.6, seed=9),
        _trial(2, 1.0, c_flops=0.5, seed=5),
        _trial(3, 1.0, c_flops=0.5, seed=3),
        _trial(4, math.inf),
    ]
    winners = top_k_winners(trials, 3)
    # drop first, then c_flops, then seed
    assert [w.index for w in winners] == [3, 2, 1]
    assert top_k_winners(trials, 5)[-1].index == 4
    with pytest.raises(ValidationError):
        top_k_winners(trials, 0)
    with pytest.raises(ValidationError):
        top_k_winners(trials, 6)


def test_winner_mcb_by_regime():
    arch = builtin_arch("chain3")
    dense_trials = [_trial(i, 1.0 + i, c_flops=1.0, mcb=1.0, seed=i) for i in range(4)]
    half = 6942 / 20796
    half_trials = [
        _trial(i, 0.5 + i, c_flops=half, mcb=0.85 + 0.02 * i, seed=i) for i in range(4)
    ]
    rows = winner_mcb_by_regime(
        arch, {SpaceSpec(target_cflops=1.0): dense_trials, SpaceSpec(target_cflops=half): half_trials}, k=3
    )
    assert [r.target_cflops for r in rows] == [1.0, pytest.approx(half)]
    assert rows[0].flops_reduction == 0.0
    assert rows[0].uniform_mcb == 1.0
    assert rows[0].best_drop == 1.0
    assert rows[1].uniform_mcb == pytest.approx((6942 / 20796) / (153 / 404), rel=1e-9)
    assert rows[1].winner_mcb_median == pytest.approx(0.87)
    assert rows[1].best_drop == 0.5
    # the uniform recipe at half the FLOPs prunes half of each unit, beyond a space capped at 0.3
    with pytest.raises(FeasibilityError):
        winner_mcb_by_regime(arch, {SpaceSpec(target_cflops=half, ratio_max=0.3): half_trials}, k=3)
    with pytest.raises(ValidationError):
        winner_mcb_by_regime(arch, {SpaceSpec(target_cparams=0.5): half_trials}, k=3)


def test_compare_spaces_dominance():
    a = [_trial(i, 1.0, seed=i) for i in range(10)]
    b = [_trial(i, 2.0, seed=i) for i in range(10)]
    cmpres = compare_spaces({"tight": a, "loose": b})
    assert cmpres.pooled_quantiles == (pytest.approx(1.0), pytest.approx(1.5), pytest.approx(2.0))
    by_pair = {(p.space_a, p.space_b): p for p in cmpres.pairs}
    ab = by_pair[("tight", "loose")]
    assert ab.a_dominates_at_median
    assert ab.diffs[1] == pytest.approx(1.0)  # F_tight(1.5) - F_loose(1.5)
    ba = by_pair[("loose", "tight")]
    assert not ba.a_dominates_at_median
    assert ba.diffs[1] == pytest.approx(-1.0)
    with pytest.raises(ValidationError):
        compare_spaces({"only": a})
    with pytest.raises(ValidationError):
        compare_spaces({"a": a, "b": b}, quantile_levels=(0.25, 0.75))


def test_compare_spaces_all_diverged():
    bad = [_trial(i, math.inf) for i in range(3)]
    with pytest.raises(ValidationError):
        compare_spaces({"a": bad, "b": bad})
