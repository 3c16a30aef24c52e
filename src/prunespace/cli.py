"""Command-line surface.

Subcommands: arch, cost, sample, prune, train, explore, report, pipeline.
Machine-readable results go to stdout (or --out files); logs go to stderr.
Exit codes: 0 success, 2 usage, 3 validation/schema, 4 sampler feasibility,
5 training divergence, 6 a pool worker died.
"""
from __future__ import annotations

import argparse
import functools
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import compare_spaces, distribution_summary, edf, top_k_winners
from .arch import arch_to_json, builtin_names, prunable_units, resolve_plan
from .cost import network_cost
from .dataset import DatasetSpec, dataset_from_json
from .errors import FeasibilityError, TrainingDiverged, ValidationError, WorkerLost
from .network import init_weights
from .pipeline import (
    desk_preset,
    explore_space,
    full_preset,
    pipeline_config_from_json,
    resolve_arch,
    run_pipeline,
)
from .pruning import METHODS, one_shot_prune
from .runlog import (
    canonical_json,
    compare_csv,
    edf_csv,
    histogram_csv,
    load_checkpoint,
    read_trials,
    save_checkpoint,
    summary_csv,
    winners_csv,
)
from .sampling import recipe_from_json, sample_population, space_from_json
from .training import KINDS, ScheduleSpec, schedule_from_json, train

log = logging.getLogger("prunespace")

_PRESETS = {"desk": desk_preset, "full": full_preset}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _read_text(path: str) -> str:
    """A document file's text; the spec parsers decode it and name a JSON error's position."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}") from None


# -- subcommands -----------------------------------------------------------


def _cmd_arch(args) -> int:
    arch = resolve_arch(args.arch)
    if args.dump:
        _emit(canonical_json(arch_to_json(arch)), args.out)
        return 0
    dense = network_cost(arch)
    units = [
        {
            "index": u.index,
            "layers": list(u.layer_ids),
            "c_out": u.c_out,
            "group": u.coupling_group,
        }
        for u in prunable_units(arch)
    ]
    doc = {
        "name": arch.name,
        "input": list(arch.input_shape),
        "layers": len(arch.layers),
        "prunable_units": units,
        "flops": dense.flops,
        "params": dense.params,
    }
    _emit(canonical_json(doc), args.out)
    return 0


def _cmd_cost(args) -> int:
    arch = resolve_arch(args.arch)
    if args.recipe is not None and args.uniform is not None:
        raise ValidationError("give either --recipe or --uniform, not both")
    plan = None
    if args.recipe is not None:
        plan = resolve_plan(arch, recipe_from_json(_read_text(args.recipe)))
    elif args.uniform is not None:
        plan = resolve_plan(arch, [args.uniform] * len(prunable_units(arch)))
    report = network_cost(arch, plan)
    _emit(canonical_json(report.to_json()), args.out)
    return 0


def _cmd_sample(args) -> int:
    arch = resolve_arch(args.arch)
    space = space_from_json(_read_text(args.space))
    recipes = sample_population(arch, space, args.n, args.seed, args.max_attempts)
    lines = [canonical_json(r.to_json()) for r in recipes]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_prune(args) -> int:
    weights, arch, meta = load_checkpoint(args.checkpoint)
    recipe = recipe_from_json(_read_text(args.recipe))
    seed = args.seed if args.method == "random" else None
    pruned = one_shot_prune(weights, arch, recipe, method=args.method, seed=seed)
    out_meta = {"recipe": recipe.to_json(), "method": args.method}
    if "dataset" in meta:
        out_meta["dataset"] = meta["dataset"]
    save_checkpoint(args.out_checkpoint, pruned.weights, pruned.arch, meta=out_meta)
    report = network_cost(arch, pruned.plan)
    _emit(canonical_json(report.to_json()), args.out)
    log.info("wrote pruned checkpoint to %s", args.out_checkpoint)
    return 0


def _cmd_train(args) -> int:
    schedule = (schedule_from_json(_read_text(args.schedule)) if args.schedule
                else ScheduleSpec(args.kind, args.epochs))
    dataset = dataset_from_json(_read_text(args.dataset)) if args.dataset else None
    np_dtype = np.float32 if args.dtype == "float32" else np.float64
    if (args.arch is None) == (args.checkpoint is None):
        raise ValidationError("give exactly one of --arch and --checkpoint")
    if args.checkpoint:
        weights, arch, meta = load_checkpoint(args.checkpoint)
        weights = weights.astype(np_dtype)
        if "dataset" in meta:
            trained_on = dataset_from_json(meta["dataset"])
            if dataset is not None and dataset != trained_on:
                raise ValidationError(
                    f"--dataset {canonical_json(dataset.to_json())} differs from the dataset "
                    f"{args.checkpoint} was trained on, {canonical_json(trained_on.to_json())}"
                )
            dataset = trained_on
    else:
        arch = resolve_arch(args.arch)
        weights = init_weights(arch, args.seed, dtype=np_dtype)
    dataset = dataset or DatasetSpec()
    data = dataset.build(dtype=np_dtype)
    result = train(weights, arch, data, schedule, args.seed)
    if args.out_checkpoint:
        meta = {"val_accuracy": result.trace[-1], "dataset": dataset.to_json()}
        save_checkpoint(args.out_checkpoint, result.weights, arch, meta=meta)
        log.info("wrote checkpoint to %s", args.out_checkpoint)
    doc = {"val_accuracy": result.trace[-1], "trace": list(result.trace)}
    _emit(canonical_json(doc), args.out)
    return 0


def _load_pipeline_config(args):
    if args.config is None and args.preset is None:
        raise ValidationError("give --config or --preset")
    if args.config is not None:
        config = pipeline_config_from_json(_read_text(args.config))
    else:
        config = _PRESETS[args.preset]()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_explore(args) -> int:
    config = _load_pipeline_config(args)
    trials = explore_space(config, args.out_dir)
    finite = [t.accuracy_drop for t in trials if not t.diverged]
    doc = {
        "trials": len(trials),
        "diverged": sum(1 for t in trials if t.diverged),
        "best_drop": min(finite) if finite else None,
        "out": str(args.out_dir),
    }
    _emit(canonical_json(doc), args.out)
    return 0


def _cmd_pipeline(args) -> int:
    config = _load_pipeline_config(args)
    result = run_pipeline(config, args.out_dir)
    doc = {
        "dense_accuracy": result.dense_accuracy,
        "winner": result.winner.to_json(),
        "out": str(args.out_dir),
    }
    _emit(canonical_json(doc), args.out)
    return 0


def _cmd_report(args) -> int:
    if args.kind == "compare":
        if len(args.trials) < 2:
            raise ValidationError("compare needs at least two --trials logs")
        by_space = {}
        for item in args.trials:
            label, _, path = item.rpartition("=")
            if not label:
                label = Path(path).stem
            if label in by_space:
                raise ValidationError(f"duplicate space label {label!r}")
            by_space[label] = read_trials(path)[1]
        _emit(compare_csv(compare_spaces(by_space)), args.out)
        return 0
    if len(args.trials) != 1:
        raise ValidationError(f"report {args.kind} takes exactly one --trials log")
    records = read_trials(args.trials[0])[1]
    if args.kind == "edf":
        text = edf_csv(edf(records))
    elif args.kind == "summary":
        text = summary_csv(distribution_summary(records, args.field))
    elif args.kind == "histogram":
        text = histogram_csv(distribution_summary(records, args.field, bins=args.bins))
    else:  # winners
        text = winners_csv(top_k_winners(records, min(args.k, len(records))))
    _emit(text, args.out)
    return 0


# -- parser ------------------------------------------------------------------


@functools.cache  # parsing does not change the parser, so calls of main share one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunespace",
        description="Explore pruning spaces: cost models, constrained sampling, "
        "pruning, retraining, and population analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def arch_arg(p):
        p.add_argument(
            "--arch",
            required=True,
            help=f"builtin name {builtin_names()} or path to an architecture JSON file",
        )

    p = sub.add_parser("arch", help="validate and describe an architecture")
    arch_arg(p)
    p.add_argument("--dump", action="store_true", help="print the normalized JSON document")
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=_cmd_arch)

    p = sub.add_parser("cost", help="FLOPs/parameter cost of a network or subnetwork")
    arch_arg(p)
    p.add_argument("--recipe", help="recipe JSON file")
    p.add_argument("--uniform", type=float, help="uniform pruning ratio instead of a recipe")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("sample", help="sample pruning recipes from a constrained space")
    arch_arg(p)
    p.add_argument("--space", required=True, help="space JSON file")
    p.add_argument("--n", type=int, required=True, help="number of recipes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-attempts", type=int, default=100_000)
    p.add_argument("--out", help="write recipes JSONL here instead of stdout")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("prune", help="one-shot prune a checkpoint with a recipe")
    p.add_argument("--checkpoint", required=True, help="trained weights checkpoint (holds its architecture)")
    p.add_argument("--recipe", required=True, help="recipe JSON file")
    p.add_argument("--method", choices=METHODS, default="l2")
    p.add_argument("--seed", type=int, default=0, help="ranking seed (random method only)")
    p.add_argument("--out-checkpoint", required=True, help="where to write pruned weights")
    p.add_argument("--out", help="write the cost report here instead of stdout")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("train", help="train weights on the synthetic dataset")
    p.add_argument("--arch", help="start from fresh weights: builtin name or architecture JSON file")
    p.add_argument("--checkpoint", help="start from these weights and their architecture")
    p.add_argument("--schedule", help="schedule JSON file")
    p.add_argument("--kind", choices=KINDS, default="scratch")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument(
        "--dataset", help="dataset spec JSON file (default: the checkpoint's dataset, else the spec defaults)"
    )
    p.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-checkpoint", help="where to write trained weights")
    p.add_argument("--out", help="write the result JSON here instead of stdout")
    p.set_defaults(func=_cmd_train)

    for name, handler, blurb in (
        ("explore", _cmd_explore, "screen a sampled population and write a trial log"),
        ("pipeline", _cmd_pipeline, "full search: baseline, screening, winner retraining"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="pipeline config JSON file")
        p.add_argument("--preset", choices=sorted(_PRESETS))
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", dest="out", default=None, help="write the summary JSON here")
        p.add_argument("--out-dir", dest="out_dir", required=True, help="artifact directory")
        p.set_defaults(func=handler)

    p = sub.add_parser("report", help="turn a trial log into CSV reports")
    p.add_argument("kind", choices=("edf", "summary", "histogram", "winners", "compare"))
    p.add_argument(
        "--trials",
        action="append",
        required=True,
        help="trial JSONL path; for compare, repeat as label=path",
    )
    p.add_argument("--field", default="accuracy_drop", help="field for summary/histogram")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--k", type=int, default=5, help="winner count")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except FeasibilityError as e:
        log.error("infeasible: %s", e)
        return 4
    except TrainingDiverged as e:
        log.error("training diverged: %s", e)
        return 5
    except WorkerLost as e:
        log.error("worker lost: %s", e)
        return 6
    except ValidationError as e:
        log.error("invalid: %s", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
