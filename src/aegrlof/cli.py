"""Benchmark command line: prepare datasets, run the variant matrix, and
export plot data.

Subcommands:
    prepare   Preprocess a CSV (encode, split, subsample, normalize) into a
              cached dataset and print a summary.
    run       Execute every configured (variant, seed), write report.json,
              report.md and per-variant score CSVs.
    plotdata  Export latent scatter and KDE curve CSVs from a finished run.

All experiment settings live in a single JSON config; see the README for
the schema. Flags: --config PATH, --out DIR, --jobs N, --seed-override N.
Exit code is 0 only when every requested variant completed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import platform
import sys
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from . import autoencoder as ae
from . import metrics
from .data import (
    SplitSpec,
    load_cache,
    load_csv,
    prepare,
    save_cache,
)
from .pipeline import (
    VARIANT_MATRIX,
    ScoredRun,
    TrainedNetwork,
    VariantSpec,
    run_variant,
    train_network,
)
from .plots import kde_curve
from .storage import atomic_write_text, file_sha256, write_npz, write_scores_csv

logger = logging.getLogger(__name__)

CACHE_FILENAME = "dataset_cache.npz"

# The seed comes from the run's seed list; batch_size None is resolved
# from the training-set size.
TRAIN_DEFAULTS = {
    **{f.name: f.default for f in fields(ae.TrainConfig) if f.name != "seed"},
    "batch_size": None,
}

SPLIT_DEFAULTS = {
    "train_fraction": 0.6,
    "val_fraction": 0.2,
    "test_fraction": 0.2,
    "seed": 0,
    "subsample_fraction": None,
}

CONFIG_KEYS = ("dataset", "split", "train", "lof", "variants", "seeds",
               "wilcoxon_pairs", "output_dir")
DATASET_KEYS = ("path", "has_header", "schema")
LOF_KEYS = ("min_pts",)
VARIANT_KEYS = ("detector", "modifier", "aug_factor", "aug_sigma")


@dataclass
class ExperimentConfig:
    """Resolved experiment settings with every default filled in."""

    dataset_path: str
    schema: dict[str | int, str]
    has_header: bool | None
    split: SplitSpec
    train: dict[str, Any]
    min_pts: int
    variants: list[dict[str, Any]]
    seeds: list[int]
    wilcoxon_pairs: list[list[str]]
    output_dir: str
    resolved: dict = field(default_factory=dict)


def _check_keys(path: Path, where: str, section: dict, known) -> None:
    unknown = set(section) - set(known)
    if unknown:
        raise ValueError(
            f"{path}: unknown {where} keys {sorted(unknown)} "
            f"(expected from {sorted(known)})"
        )


def _duplicates(values: list) -> list:
    return sorted({v for v in values if values.count(v) > 1})


def _parse_variant_entry(path: Path, entry: Any) -> dict[str, Any]:
    if isinstance(entry, str):
        detector, _, modifier = entry.partition("/")
        return {"detector": detector, "modifier": modifier or "none"}
    if isinstance(entry, dict):
        _check_keys(path, "variant", entry, VARIANT_KEYS)
        out = {"detector": entry["detector"], "modifier": entry.get("modifier", "none")}
        for key in ("aug_factor", "aug_sigma"):
            if key in entry:
                out[key] = float(entry[key])
        return out
    raise ValueError(f"cannot parse variant entry {entry!r}")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read, validate, and default-fill an experiment config JSON."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)

    _check_keys(path, "top-level", raw, CONFIG_KEYS)
    dataset = raw.get("dataset")
    if not isinstance(dataset, dict) or "path" not in dataset:
        raise ValueError(f"{path}: config needs dataset.path")
    _check_keys(path, "dataset", dataset, DATASET_KEYS)
    for section, known in (("split", SPLIT_DEFAULTS), ("train", TRAIN_DEFAULTS),
                           ("lof", LOF_KEYS)):
        _check_keys(path, section, raw.get(section, {}), known)
    has_header = dataset.get("has_header")
    schema_raw = dataset.get("schema", {})
    schema: dict[str | int, str] = {}
    for key, kind in schema_raw.items():
        if has_header is False and key.isdigit():
            schema[int(key)] = kind
        else:
            schema[key] = kind

    split_cfg = {**SPLIT_DEFAULTS, **raw.get("split", {})}
    split = SplitSpec(**split_cfg)
    train_cfg = {**TRAIN_DEFAULTS, **raw.get("train", {})}
    min_pts = int(raw.get("lof", {}).get("min_pts", 20))

    variants_raw = raw.get("variants", "matrix")
    if variants_raw == "matrix":
        variants = [{"detector": d, "modifier": m} for d, m in VARIANT_MATRIX]
    else:
        variants = [_parse_variant_entry(path, v) for v in variants_raw]
    if not variants:
        raise ValueError(f"{path}: at least one variant required")
    # report rows, score files and shared networks are keyed by
    # (detector/modifier, seed), so each may appear only once
    duplicate_variants = _duplicates([VariantSpec(**v).key for v in variants])
    if duplicate_variants:
        raise ValueError(f"{path}: duplicate variants {duplicate_variants}")

    seeds = [int(s) for s in raw.get("seeds", [0])]
    if not seeds:
        raise ValueError(f"{path}: seeds must be non-empty")
    duplicate_seeds = _duplicates(seeds)
    if duplicate_seeds:
        raise ValueError(f"{path}: duplicate seeds {duplicate_seeds}")

    resolved = {
        "dataset": {"path": dataset["path"], "schema": schema_raw,
                    "has_header": has_header},
        "split": split_cfg,
        "train": train_cfg,
        "lof": {"min_pts": min_pts},
        "variants": variants,
        "seeds": seeds,
        "wilcoxon_pairs": raw.get("wilcoxon_pairs", []),
    }
    return ExperimentConfig(
        dataset_path=dataset["path"],
        schema=schema,
        has_header=has_header,
        split=split,
        train=train_cfg,
        min_pts=min_pts,
        variants=variants,
        seeds=seeds,
        wilcoxon_pairs=[list(p) for p in raw.get("wilcoxon_pairs", [])],
        output_dir=raw.get("output_dir", "out"),
        resolved=resolved,
    )


def cmd_prepare(config: ExperimentConfig, out_dir: Path) -> int:
    """Preprocess the configured CSV into a byte-reproducible cache."""
    table = load_csv(config.dataset_path, config.schema, config.has_header)
    prepared = prepare(table, config.split)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = out_dir / CACHE_FILENAME
    save_cache(cache_path, prepared, source_sha256=file_sha256(config.dataset_path))

    summary = {
        "raw_columns": len(table.columns),
        "encoded_features": prepared.meta["n_features"],
        "rows": prepared.meta["n_rows"],
        "split_sizes": {
            "train": prepared.train.n_rows,
            "val": prepared.val.n_rows,
            "test": prepared.test.n_rows,
        },
        "has_labels": prepared.meta["has_labels"],
        "cache": str(cache_path),
        "cache_sha256": file_sha256(cache_path),
    }
    atomic_write_text(out_dir / "prepare_summary.json",
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"prepared {config.dataset_path}")
    print(f"  encoded features: {summary['encoded_features']}")
    print(
        "  split sizes: train={train} val={val} test={test}".format(
            **summary["split_sizes"]
        )
    )
    print(f"  cache: {cache_path}")
    return 0


def _variant_filename(spec: VariantSpec, seed: int, prefix: str, ext: str) -> str:
    return f"{prefix}_{spec.detector}_{spec.modifier}_{seed}.{ext}"


# One executed (variant, seed): its run, or the error that stopped it.
_Outcome = tuple[VariantSpec, ScoredRun | None, str | None]


def cmd_run(
    config: ExperimentConfig,
    out_dir: Path,
    jobs: int = 1,
    seed_override: int | None = None,
) -> int:
    """Run every (variant, seed), evaluate, and write reports.

    The unit of work is one trained network: per seed, the plain network
    serves ``ae_re`` and ``ae_lof/*`` and the reversal network serves
    ``aegr_lof/*``. ``lof_raw`` does not depend on the seed, so one fit
    fills every seed's row. ``jobs`` workers run these units in parallel.
    """
    cache_path = out_dir / CACHE_FILENAME
    if not cache_path.exists():
        raise FileNotFoundError(
            f"prepared dataset not found at {cache_path}; run `prepare` first"
        )
    prepared = load_cache(cache_path)
    if prepared.test.labels is None:
        raise ValueError(
            "test split has no labels; evaluation requires a label column"
        )

    seeds = [seed_override] if seed_override is not None else config.seeds
    train_cfg_fields = dict(config.train)
    if train_cfg_fields.get("batch_size") is None:
        train_cfg_fields["batch_size"] = ae.default_batch_size(prepared.train.n_rows)
    base_cfg = ae.TrainConfig(**train_cfg_fields)
    specs = [VariantSpec(**variant) for variant in config.variants]

    started = time.time()
    failures: list[dict[str, Any]] = []

    def _run_head(spec: VariantSpec,
                  network: TrainedNetwork | None = None) -> _Outcome:
        try:
            return spec, run_variant(spec, prepared.train, prepared.val,
                                     prepared.test, base_cfg,
                                     min_pts=config.min_pts,
                                     network=network), None
        except Exception as exc:  # recorded per-variant, run continues
            logger.exception("variant %s seed %d failed", spec.key, spec.seed)
            return spec, None, f"{type(exc).__name__}: {exc}"

    def _run_raw(spec: VariantSpec) -> list[_Outcome]:
        _, run, error = _run_head(replace(spec, seed=seeds[0]))
        return [(replace(spec, seed=seed),
                 None if run is None else replace(
                     run, variant=replace(spec, seed=seed),
                     metadata={**run.metadata, "seed": seed}),
                 error) for seed in seeds]

    def _run_network(seed: int, reversal: bool,
                     heads: list[VariantSpec]) -> list[_Outcome]:
        try:
            network = train_network(seed, reversal, prepared.train,
                                    prepared.val, prepared.test, base_cfg)
        except Exception as exc:  # every head of this network fails alike
            logger.exception("network seed %d reversal=%s failed", seed, reversal)
            error = f"{type(exc).__name__}: {exc}"
            return [(spec, None, error) for spec in heads]
        return [_run_head(spec, network) for spec in heads]

    units = [partial(_run_raw, spec) for spec in specs
             if spec.detector == "lof_raw"]
    for seed in seeds:
        for reversal in (False, True):
            heads = [replace(spec, seed=seed) for spec in specs
                     if spec.detector != "lof_raw"
                     and (spec.detector == "aegr_lof") == reversal]
            if heads:
                units.append(partial(_run_network, seed, reversal, heads))

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            per_unit = list(pool.map(lambda unit: unit(), units))
    else:
        per_unit = [unit() for unit in units]
    outcomes = [outcome for unit_outcomes in per_unit for outcome in unit_outcomes]

    rows: list[dict[str, Any]] = []
    for spec, run, error in outcomes:
        if run is None:
            failures.append({"variant": spec.key, "seed": spec.seed, "error": error})
            continue
        result = metrics.compute_metrics(run.scores, run.labels)
        rows.append(
            {
                "detector": spec.detector,
                "modifier": spec.modifier,
                "seed": spec.seed,
                "roc_auc": result.roc_auc,
                "pr_auc": result.pr_auc,
                "n_pos": result.n_pos,
                "n_neg": result.n_neg,
                "metadata": run.metadata,
            }
        )
        write_scores_csv(
            out_dir / _variant_filename(spec, spec.seed, "scores", "csv"),
            run.scores,
        )
        if run.train_latents is not None:
            arrays = {
                "latents": run.train_latents,
                "pruned_mask": run.pruned_mask.astype(np.int8),
            }
            if prepared.train.labels is not None:
                arrays["labels"] = prepared.train.labels
            write_npz(
                out_dir / _variant_filename(spec, spec.seed, "latents", "npz"),
                arrays,
            )

    rows.sort(key=lambda r: (r["detector"], r["modifier"], r["seed"]))
    wilcoxon_rows = _wilcoxon_comparisons(config.wilcoxon_pairs, rows, seeds)

    report = {
        "config": {**config.resolved, "seeds": seeds},
        "dataset_sha256": file_sha256(cache_path),
        "rows": rows,
        "wilcoxon": wilcoxon_rows,
        "failures": sorted(failures, key=lambda f: (f["variant"], f["seed"])),
    }
    environment = {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "started_unix": started,
        "duration_s": time.time() - started,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        out_dir / "report.json",
        json.dumps({"report": report, "environment": environment},
                   indent=2, sort_keys=True) + "\n",
    )
    atomic_write_text(out_dir / "report.md", _render_markdown(report, seeds))

    print(f"completed {len(rows)}/{len(outcomes)} runs -> {out_dir / 'report.json'}")
    for failure in failures:
        print(f"  FAILED {failure['variant']} seed {failure['seed']}: "
              f"{failure['error']}", file=sys.stderr)
    return 0 if not failures else 1


def _wilcoxon_comparisons(
    pairs: list[list[str]], rows: list[dict[str, Any]], seeds: list[int]
) -> list[dict[str, Any]]:
    by_key: dict[str, dict[int, float]] = {}
    for row in rows:
        key = f"{row['detector']}/{row['modifier']}"
        by_key.setdefault(key, {})[row["seed"]] = row["pr_auc"]
    out = []
    for pair in pairs:
        entry: dict[str, Any] = {"pair": list(pair), "metric": "pr_auc"}
        if len(pair) != 2:
            entry["error"] = "a comparison pair needs exactly 2 variant keys"
            out.append(entry)
            continue
        a_by_seed = by_key.get(pair[0], {})
        b_by_seed = by_key.get(pair[1], {})
        common = [s for s in seeds if s in a_by_seed and s in b_by_seed]
        if len(common) < 5:
            entry["error"] = (
                f"needs >= 5 completed seeds for both variants, got {len(common)}"
            )
        else:
            a = np.array([a_by_seed[s] for s in common])
            b = np.array([b_by_seed[s] for s in common])
            try:
                result = metrics.wilcoxon_signed_rank(a, b)
                entry.update(
                    w_statistic=result.w_statistic,
                    p_value=result.p_value,
                    n_effective=result.n_effective,
                )
            except ValueError as exc:
                entry["error"] = str(exc)
        out.append(entry)
    return out


_DETECTOR_TITLES = {
    "lof_raw": "Stand-alone LOF",
    "ae_re": "AE-RE",
    "ae_lof": "AE-LOF",
    "aegr_lof": "AEGR-LOF",
}
_MODIFIER_TITLES = {"none": "None", "prune": "Pruning", "prune_da": "Pruning+DA"}


def _render_markdown(report: dict[str, Any], seeds: list[int]) -> str:
    grouped: dict[tuple[str, str], list[dict[str, Any]]] = {}
    for row in report["rows"]:
        grouped.setdefault((row["detector"], row["modifier"]), []).append(row)

    lines = [
        "# Detection benchmark",
        "",
        f"Seeds: {seeds}",
        f"Dataset sha256: `{report['dataset_sha256']}`",
        "",
        "| Detection approach | Modification method | PR AUC | ROC AUC |",
        "|---|---|---|---|",
    ]
    ordered = [key for key in VARIANT_MATRIX if key in grouped]
    ordered += [key for key in grouped if key not in ordered]
    for key in ordered:
        entries = grouped[key]
        pr = np.array([e["pr_auc"] for e in entries])
        roc = np.array([e["roc_auc"] for e in entries])
        lines.append(
            "| {} | {} | {:.3f} ± {:.3f} | {:.3f} ± {:.3f} |".format(
                _DETECTOR_TITLES.get(key[0], key[0]),
                _MODIFIER_TITLES.get(key[1], key[1]),
                pr.mean(), pr.std(), roc.mean(), roc.std(),
            )
        )
    if report["wilcoxon"]:
        lines += ["", "## Wilcoxon signed-rank (PR AUC across seeds)", ""]
        for entry in report["wilcoxon"]:
            if "error" in entry:
                lines.append(f"- {entry['pair'][0]} vs {entry['pair'][1]}: "
                             f"not computed ({entry['error']})")
            else:
                lines.append(
                    f"- {entry['pair'][0]} vs {entry['pair'][1]}: "
                    f"W={entry['w_statistic']:.1f}, p={entry['p_value']:.4g}, "
                    f"n={entry['n_effective']}"
                )
    if report["failures"]:
        lines += ["", "## Failures", ""]
        for failure in report["failures"]:
            lines.append(f"- {failure['variant']} seed {failure['seed']}: "
                         f"{failure['error']}")
    return "\n".join(lines) + "\n"


def cmd_plotdata(
    out_dir: Path, variant: str | None = None, seed: int | None = None
) -> int:
    """Export latent scatter + per-axis KDE curves from stored latents."""
    candidates = sorted(out_dir.glob("latents_*.npz"))
    if variant is not None:
        # exact variant match: "aegr_lof/prune" must not also catch prune_da
        token = variant.replace("/", "_")
        candidates = [
            c for c in candidates
            if c.stem.rsplit("_", 1)[0] == f"latents_{token}"
        ]
    if seed is not None:
        candidates = [c for c in candidates if c.stem.rsplit("_", 1)[1] == str(seed)]
    if not candidates:
        raise FileNotFoundError(
            f"no stored latents matching the request under {out_dir}; "
            "run a latent-LOF variant first"
        )
    preferred = [c for c in candidates
                 if c.stem.rsplit("_", 1)[0] == "latents_aegr_lof_prune"]
    chosen = (preferred or candidates)[0]
    logger.info("plot data source: %s", chosen.name)

    with np.load(chosen, allow_pickle=False) as npz:
        latents = npz["latents"]
        pruned = npz["pruned_mask"].astype(bool)
        labels = npz["labels"] if "labels" in npz.files else None

    if latents.shape[1] < 2:
        raise ValueError(
            f"{chosen.name}: need at least 2 latent dimensions for a scatter"
        )
    label_col = labels if labels is not None else np.full(latents.shape[0], -1)
    lines = ["latent_dim_1,latent_dim_2,label,pruned_flag"]
    for i in range(latents.shape[0]):
        lines.append(
            f"{float(latents[i, 0])!r},{float(latents[i, 1])!r},"
            f"{int(label_col[i])},{int(pruned[i])}"
        )
    atomic_write_text(out_dir / "latent_scatter.csv", "\n".join(lines) + "\n")

    if labels is None:
        logger.warning("no labels stored; emitting a single unlabeled KDE class")
        classes = [(-1, np.ones(latents.shape[0], dtype=bool))]
    else:
        classes = [(int(c), labels == c) for c in (0, 1)]

    curve_lines = ["axis,class_label,x,density"]
    for axis in (0, 1):
        for class_label, mask in classes:
            if not mask.any():
                logger.warning("class %d empty; skipping its KDE", class_label)
                continue
            grid, density = kde_curve(latents[mask, axis])
            for x, d in zip(grid, density):
                curve_lines.append(
                    f"{axis + 1},{class_label},{float(x)!r},{float(d)!r}"
                )
    atomic_write_text(out_dir / "kde_curves.csv", "\n".join(curve_lines) + "\n")

    print(f"wrote {out_dir / 'latent_scatter.csv'} and {out_dir / 'kde_curves.csv'} "
          f"from {chosen.name}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aegrlof",
        description="Anomaly-detection benchmark: gradient-reversal "
        "autoencoder + latent LOF variants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prepare = sub.add_parser("prepare", help="preprocess a dataset into a cache")
    p_prepare.add_argument("--config", required=True, help="experiment config JSON")
    p_prepare.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", help="run the variant matrix and emit reports")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel workers, one trained network each "
                       "(default 1)")
    p_run.add_argument("--seed-override", type=int, default=None,
                       help="run only this seed instead of the configured list")

    p_plot = sub.add_parser("plotdata", help="export latent scatter/KDE CSVs")
    p_plot.add_argument("--out", default="out", help="run output directory")
    p_plot.add_argument("--variant", default=None,
                        help="variant key, e.g. aegr_lof/prune")
    p_plot.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plotdata":
            return cmd_plotdata(Path(args.out), args.variant, args.seed)
        config = load_experiment_config(args.config)
        out_dir = Path(args.out) if args.out else Path(config.output_dir)
        if args.command == "prepare":
            return cmd_prepare(config, out_dir)
        return cmd_run(config, out_dir, jobs=args.jobs,
                       seed_override=args.seed_override)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
