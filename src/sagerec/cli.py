"""Command-line operator surface.

Subcommands: ``run`` (train and evaluate per seed), ``ablate`` (four-variant
mechanism sweep with metrics normalized to the full adaptive model),
``boundary`` (export the gradient-coefficient curve), ``eval`` (offline
metrics from CSV logs). Exit codes: 0 success, 1 config or input error,
2 runtime numeric abort, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bounds import write_boundary_curve
from .config import ConfigError, ExperimentConfig, load_experiment_config
from .metrics import (
    evaluate_rankings,
    load_cold_set,
    load_ground_truth,
    load_rankings,
)
from .policy import save_checkpoint
from .simenv import build_world, item_vectors, load_catalog
from .trainer import NumericAbort, evaluate_policy, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

SUMMARY_METRICS = ("recall_at_k", "ndcg_at_k", "entropy_at_k", "ild", "cold_recall")
ABLATION_VARIANTS = (
    ("full", "sage"),
    ("no_boost", "sage-no-boost"),
    ("no_entropy", "sage-no-entropy"),
    ("no_decoupling", "sage-no-decoupling"),
)
BOUNDARY_GRID = tuple(k / 20 for k in range(1, 51))
ERROR_MANIFEST_SCHEMA_VERSION = 1


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _aggregate(per_seed: dict[int, dict], metric: str) -> tuple[float | None, float | None]:
    """Cross-seed mean and population std of a metric's non-null values."""
    values = np.asarray(
        [m[metric] for m in per_seed.values() if m[metric] is not None], dtype=float
    )
    if not values.size:
        return None, None
    return float(values.mean()), float(values.std())


def _sweep(
    config: ExperimentConfig,
    command: str,
    runs: list[tuple[str | None, str, Path]],
    quiet: bool,
) -> dict[str | None, dict[int, dict]] | None:
    """Train, evaluate and write every (variant, seed) pair, variant by variant.

    ``runs`` lists each variant's name, optimizer and output directory. Returns
    each variant's metrics per seed, or None after a numeric abort, which is
    reported on stderr and in ``error.json``.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Variants must see identical worlds, so worlds are built once per seed.
    worlds = {seed: build_world(config.world, seed=seed) for seed in config.seeds}
    results: dict[str | None, dict[int, dict]] = {}
    for variant, optimizer, variant_dir in runs:
        label = f" ({variant})" if variant else ""
        results[variant] = {}
        for seed in config.seeds:
            _say(quiet, f"seed {seed}{label}: {optimizer}, {config.train.total_steps} steps")
            try:
                result = train(
                    replace(config.train, optimizer=optimizer, seed=seed), worlds[seed]
                )
            except NumericAbort as abort:
                abort.seed, abort.variant = seed, variant
                manifest = {
                    "schema_version": ERROR_MANIFEST_SCHEMA_VERSION,
                    "kind": "error_manifest",
                    "command": command,
                    "seed": abort.seed,
                    "variant": abort.variant,
                    "step": abort.step,
                    "message": str(abort),
                }
                _write_json(out / "error.json", manifest)
                print(
                    f"numeric abort at seed {seed} step {abort.step}{label}: {abort}",
                    file=sys.stderr,
                )
                return None
            metrics = evaluate_policy(
                result.params,
                worlds[seed],
                config.metrics.k,
                entropy_base=config.metrics.entropy_base,
            )
            seed_dir = variant_dir / f"seed_{seed}"
            seed_dir.mkdir(parents=True, exist_ok=True)
            result.report.save_jsonl(seed_dir / "report.jsonl")
            _write_json(seed_dir / "metrics.json", metrics)
            save_checkpoint(result.params, seed_dir / "checkpoint.json")
            results[variant][seed] = metrics
    return results


def cmd_run(config: ExperimentConfig, quiet: bool) -> int:
    out = Path(config.out_dir)
    results = _sweep(config, "run", [(None, config.train.optimizer, out)], quiet)
    if results is None:
        return EXIT_NUMERIC
    per_seed = results[None]
    # One row per (metric, seed) plus an aggregate mean/std row per metric.
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("metric", "seed", "value", "std"))
        for metric in SUMMARY_METRICS:
            for seed, metrics in per_seed.items():
                writer.writerow((metric, seed, _fmt(metrics[metric]), ""))
            mean, std = _aggregate(per_seed, metric)
            writer.writerow((metric, "aggregate", _fmt(mean), _fmt(std)))
    _say(quiet, f"wrote {len(per_seed)} seed directories and summary.csv to {out}")
    return EXIT_OK


def cmd_ablate(config: ExperimentConfig, quiet: bool) -> int:
    out = Path(config.out_dir)
    runs = [
        (variant, optimizer, out / "ablation" / variant) for variant, optimizer in ABLATION_VARIANTS
    ]
    results = _sweep(config, "ablate", runs, quiet)
    if results is None:
        return EXIT_NUMERIC
    with open(out / "ablation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("variant", "metric", "value", "normalized"))
        for variant, per_seed in results.items():
            for metric in SUMMARY_METRICS:
                value, _ = _aggregate(per_seed, metric)
                base, _ = _aggregate(results["full"], metric)
                if value is None or base is None or base == 0.0:
                    normalized = None
                else:
                    normalized = value / base
                writer.writerow((variant, metric, _fmt(value), _fmt(normalized)))
    _say(quiet, f"wrote ablation artifacts and ablation.csv to {out}")
    return EXIT_OK


def cmd_boundary(config: ExperimentConfig, quiet: bool) -> int:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "boundary.csv"
    rows = write_boundary_curve(path, BOUNDARY_GRID, config.train.bounds)
    _say(quiet, f"wrote {len(rows)} boundary rows to {path}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    truth = load_ground_truth(args.truth)
    recs = load_rankings(args.recommendations, truth)
    cold = load_cold_set(args.cold, require_nonempty=False)
    if args.catalog is not None:
        catalog = load_catalog(args.catalog)
        categories = catalog.categories
        vectors = item_vectors(catalog)
    else:
        categories = None
        vectors = None
    metrics = evaluate_rankings(
        recs, categories, vectors, cold, args.k, entropy_base=None
    )
    text = json.dumps(metrics, sort_keys=True)
    print(text)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval_metrics.json").write_text(text + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed-override",
        type=int,
        default=None,
        metavar="SEED",
        help="replace the config's seed list with this one seed",
    )
    common.add_argument(
        "--out", default=None, metavar="DIR", help="override the output directory"
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    parser = argparse.ArgumentParser(
        prog="sagerec",
        description="Bounded policy optimization for slate recommendation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common], help="train and evaluate per seed")
    run_p.add_argument("config", help="experiment config (.yaml or .json)")

    ablate_p = sub.add_parser(
        "ablate", parents=[common], help="four-variant mechanism sweep"
    )
    ablate_p.add_argument("config", help="experiment config (.yaml or .json)")

    boundary_p = sub.add_parser(
        "boundary", parents=[common], help="export the gradient-coefficient curve"
    )
    boundary_p.add_argument("config", help="experiment config (.yaml or .json)")

    eval_p = sub.add_parser(
        "eval", parents=[common], help="offline metrics from CSV logs"
    )
    eval_p.add_argument("recommendations", help="rankings CSV (user_id,rank,item_id)")
    eval_p.add_argument("truth", help="ground-truth CSV (user_id,item_id)")
    eval_p.add_argument("cold", help="cold-item file, one id per line (may be empty)")
    eval_p.add_argument("-k", type=int, default=10, help="ranking depth (default 10)")
    eval_p.add_argument(
        "--catalog",
        default=None,
        help="catalog JSON enabling the entropy and diversity metrics",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        config = load_experiment_config(
            args.config, out_override=args.out, seed_override=args.seed_override
        )
        if args.command == "run":
            return cmd_run(config, args.quiet)
        if args.command == "ablate":
            return cmd_ablate(config, args.quiet)
        return cmd_boundary(config, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
