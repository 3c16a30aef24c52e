"""Population statistics over a screened pruning space.

Screens a sampled population with a short schedule, then reads the results
the way the analysis tools do: the empirical distribution of accuracy drops,
its quartiles, the top candidates, and a head-to-head between a low-variance
space and a loose one at the same FLOPs budget.
"""

from pathlib import Path

import numpy as np

from prunespace import (
    DatasetSpec,
    SpaceSpec,
    builtin_arch,
    compare_spaces,
    distribution_summary,
    edf,
    edf_eval,
    finetune_schedule,
    save_checkpoint,
    scratch_schedule,
    top_k_winners,
    winner_mcb_by_regime,
)
from prunespace.pipeline import PipelineConfig, RunDir, dense_key, screen_candidates, train_dense_baseline

OUT = Path("runs") / "population"
N = 24


def config_for(std_cap):
    return PipelineConfig(
        arch="resnet-tiny",
        dataset=DatasetSpec(),
        space=SpaceSpec(target_cflops=0.25, std_cap=std_cap),
        n=N,
        top_k=3,
        short_schedule=finetune_schedule(2),
        full_schedule=finetune_schedule(10),
        dense_schedule=scratch_schedule(15, lr0=0.01),
        seed=7,
    )


def main():
    loose = config_for(std_cap=None)
    baseline = train_dense_baseline(loose)
    print(f"dense accuracy {baseline.accuracy:.1%}; screening {N} candidates per space\n")

    trials = {}
    for label, config in (("std-free", loose), ("std-0.02", config_for(std_cap=0.02))):
        run = RunDir(OUT / label, config)
        # both spaces prune the one dense network: a run reuses the dense.ckpt it holds
        # when the checkpoint's key matches its own (same arch, dataset, dense schedule, seed)
        meta = {"dense_key": dense_key(loose), "val_accuracy": baseline.accuracy, "dataset": loose.dataset.to_json()}
        save_checkpoint(run.path / "dense.ckpt", baseline.weights, baseline.arch, meta=meta)
        trials[label] = screen_candidates(run)
        print(f"{label}: screened to {run.trials.path}")
    print()

    population = trials["std-free"]
    curve = edf(population)
    print("EDF of accuracy drops (std-free space):")
    for e in (10.0, 50.0, 70.0, 85.0):
        print(f"  F({e:>4}) = {edf_eval(curve, e):.2f}")
    summary = distribution_summary(population, "accuracy_drop")
    print(f"quartiles: {summary.q1:.2f} / {summary.median:.2f} / {summary.q3:.2f} points\n")

    print("top 3 after short screening:")
    for t in top_k_winners(population, 3):
        ratios = tuple(round(r, 2) for r in t.recipe)
        print(f"  drop {t.accuracy_drop:>5.2f}  c_flops {t.cost.c_flops:.3f}  "
              f"mcb {t.cost.mcb:.3f}  ratios {ratios}")
    row = winner_mcb_by_regime(builtin_arch("resnet-tiny"), {0.25: population}, 3)[0]
    print(f"winner mcb median {row.winner_mcb_median:.3f} "
          f"(uniform recipe reference {row.uniform_mcb:.3f})\n")

    report = compare_spaces(trials)
    pair = next(p for p in report.pairs if p.space_a == "std-0.02")
    print(f"std-0.02 vs std-free at pooled drop quantiles {report.pooled_quantiles}:")
    print(f"  EDF differences {tuple(round(d, 2) for d in pair.diffs)}")
    verdict = "yes" if pair.a_dominates_at_median else "no"
    print(f"  low-variance space weakly dominates at the median: {verdict}")


if __name__ == "__main__":
    main()
