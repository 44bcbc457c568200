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
import math
import platform
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from . import __version__
from . import autoencoder as ae
from . import metrics
from .data import (
    COLUMN_KINDS,
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
    train_networks,
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

SPLIT_DEFAULTS = {f.name: f.default for f in fields(SplitSpec)}

LOF_DEFAULTS = {"min_pts": 20}

CONFIG_KEYS = ("dataset", "split", "train", "lof", "variants", "seeds",
               "wilcoxon_pairs", "output_dir")
DATASET_KEYS = ("path", "has_header", "schema")
VARIANT_KEYS = ("detector", "modifier", "aug_factor", "aug_sigma")


def _field_types(cls) -> dict[str, str]:
    # annotations are strings under `from __future__ import annotations`;
    # "float | None" -> "float"
    return {f.name: f.type.split(" | ")[0] for f in fields(cls)}


# Numeric config sections: (name, defaults, field type names). An int
# field takes a JSON integer, a float field any finite JSON number;
# booleans are rejected, and null is allowed only where the default is null.
NUMERIC_SECTIONS = (
    ("split", SPLIT_DEFAULTS, _field_types(SplitSpec)),
    ("train", TRAIN_DEFAULTS, _field_types(ae.TrainConfig)),
    ("lof", LOF_DEFAULTS, {"min_pts": "int"}),
)
_JSON_NUMBERS = {"int": (int,), "float": (int, float)}


@dataclass
class ExperimentConfig:
    """Resolved experiment settings with every default filled in."""

    dataset_path: str
    schema: dict[str | int, str]
    has_header: bool | None
    split: SplitSpec
    train: ae.TrainConfig
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


def _check_number(path: Path, name: str, value: Any, type_name: str) -> None:
    # json.load accepts NaN, Infinity and -Infinity (and 1e400 overflows
    # to inf); none of them is a usable setting
    if isinstance(value, bool) or not isinstance(value, _JSON_NUMBERS[type_name]):
        kind = "an integer" if type_name == "int" else "a number"
        raise ValueError(f"{path}: {name} must be {kind}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{path}: {name} must be finite, got {value!r}")


def _check_numeric_section(path: Path, where: str, section: Any,
                           defaults: dict, types: dict[str, str]) -> None:
    if not isinstance(section, dict):
        raise ValueError(f"{path}: {where} must be an object, got {section!r}")
    _check_keys(path, where, section, defaults)
    for key, value in section.items():
        if value is None and defaults[key] is None:
            continue
        _check_number(path, f"{where}.{key}", value, types[key])


def _duplicates(values: list) -> list:
    return sorted({v for v in values if values.count(v) > 1})


def _parse_variant_entry(path: Path, entry: Any) -> dict[str, Any]:
    if isinstance(entry, str):
        detector, _, modifier = entry.partition("/")
        return {"detector": detector, "modifier": modifier or "none"}
    if isinstance(entry, dict):
        _check_keys(path, "variant", entry, VARIANT_KEYS)
        if "detector" not in entry:
            raise ValueError(f"{path}: variant {entry!r} needs a detector")
        out = {"detector": entry["detector"], "modifier": entry.get("modifier", "none")}
        for key in ("aug_factor", "aug_sigma"):
            if key in entry:
                _check_number(path, f"variant {key}", entry[key], "float")
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

    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    _check_keys(path, "top-level", raw, CONFIG_KEYS)
    dataset = raw.get("dataset")
    if not isinstance(dataset, dict) or "path" not in dataset:
        raise ValueError(f"{path}: config needs dataset.path")
    _check_keys(path, "dataset", dataset, DATASET_KEYS)
    if not isinstance(dataset["path"], str):
        raise ValueError(
            f"{path}: dataset.path must be a string, got {dataset['path']!r}"
        )
    has_header = dataset.get("has_header")
    if has_header is not None and not isinstance(has_header, bool):
        raise ValueError(
            f"{path}: dataset.has_header must be true, false or null, "
            f"got {has_header!r}"
        )
    schema_raw = dataset.get("schema", {})
    if not (isinstance(schema_raw, dict)
            and all(kind in COLUMN_KINDS for kind in schema_raw.values())):
        raise ValueError(
            f"{path}: dataset.schema must be an object mapping columns to "
            f"one of {list(COLUMN_KINDS)}, got {schema_raw!r}"
        )
    n_labels = list(schema_raw.values()).count("label")
    if n_labels > 1:
        raise ValueError(
            f"{path}: dataset.schema names {n_labels} label columns; "
            f"at most one is allowed"
        )
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ValueError(f"{path}: output_dir must be a string, got {output_dir!r}")
    for section, defaults, types in NUMERIC_SECTIONS:
        _check_numeric_section(path, section, raw.get(section, {}), defaults, types)
    schema: dict[str | int, str] = {}
    for key, kind in schema_raw.items():
        if has_header is False and key.isdigit():
            schema[int(key)] = kind
        else:
            schema[key] = kind

    split_cfg = {**SPLIT_DEFAULTS, **raw.get("split", {})}
    split = SplitSpec(**split_cfg)
    train_cfg = {**TRAIN_DEFAULTS, **raw.get("train", {})}
    # a null batch_size keeps the TrainConfig default here and is resolved
    # from the training rows at run time
    train = ae.TrainConfig(**{k: v for k, v in train_cfg.items() if v is not None})
    lof_cfg = {**LOF_DEFAULTS, **raw.get("lof", {})}

    variants_raw = raw.get("variants", "matrix")
    if variants_raw == "matrix":
        variants = [{"detector": d, "modifier": m} for d, m in VARIANT_MATRIX]
    elif isinstance(variants_raw, list):
        variants = [_parse_variant_entry(path, v) for v in variants_raw]
    else:
        raise ValueError(
            f'{path}: variants must be "matrix" or a list, got {variants_raw!r}'
        )
    if not variants:
        raise ValueError(f"{path}: at least one variant required")
    # report rows, score files and shared networks are keyed by
    # (detector/modifier, seed), so each may appear only once
    keys = [VariantSpec(**v).key for v in variants]
    duplicate_variants = _duplicates(keys)
    if duplicate_variants:
        raise ValueError(f"{path}: duplicate variants {duplicate_variants}")
    pairs = raw.get("wilcoxon_pairs", [])
    if not isinstance(pairs, list):
        raise ValueError(f"{path}: wilcoxon_pairs must be a list, got {pairs!r}")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1]
                and all(key in keys for key in pair)):
            raise ValueError(
                f"{path}: wilcoxon pair {pair!r} must name two distinct "
                f"configured variants from {sorted(keys)}"
            )

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list):
        raise ValueError(f"{path}: seeds must be a list, got {seeds!r}")
    for i, seed in enumerate(seeds):
        _check_number(path, f"seeds[{i}]", seed, "int")
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
        "lof": lof_cfg,
        "variants": variants,
        "seeds": seeds,
        "wilcoxon_pairs": pairs,
    }
    return ExperimentConfig(
        dataset_path=dataset["path"],
        schema=schema,
        has_header=has_header,
        split=split,
        train=train,
        min_pts=lof_cfg["min_pts"],
        variants=variants,
        seeds=seeds,
        wilcoxon_pairs=pairs,
        output_dir=output_dir,
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


class _StageTimes:
    """Busy seconds per stage of a run, summed over worker threads."""

    STAGES = ("train", "score", "metrics_write")

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(self.STAGES, 0.0)
        self._lock = threading.Lock()

    def add(self, stage: str, seconds: float) -> None:
        with self._lock:
            self.seconds[stage] += seconds

    @contextmanager
    def timed(self, stage: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(stage, time.perf_counter() - start)


def cmd_run(
    config: ExperimentConfig,
    out_dir: Path,
    jobs: int = 1,
    seed_override: int | None = None,
) -> int:
    """Run every (variant, seed), evaluate, and write reports.

    Per seed, a plain network serves ``ae_re`` and ``ae_lof/*`` and a
    reversal network serves ``aegr_lof/*``. The networks are dealt
    round-robin into ``min(jobs, networks)`` stacks; the unit of work is
    one stack, trained in lockstep, then every head of its networks.
    ``lof_raw`` does not depend on the seed, so one fit, its own unit,
    fills every seed's row. ``jobs`` workers run the units in parallel.
    Each trained network's history goes to ``history_<ae|aegr>_<seed>.csv``.
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
    test_classes = np.unique(prepared.test.labels)
    if test_classes.size < 2:
        raise ValueError(
            f"test split holds only label {test_classes[0]}; evaluation needs "
            "both classes"
        )
    # lof_raw and the unmodified latent heads fit LOF on exactly the
    # training rows, so a min_pts they cannot hold fails before training
    n_train = prepared.train.n_rows
    if not 1 <= config.min_pts < n_train:
        raise ValueError(
            f"lof.min_pts must be at least 1 and below the {n_train} training "
            f"rows, got {config.min_pts}"
        )

    seeds = [seed_override] if seed_override is not None else config.seeds
    base_cfg = config.train
    if config.resolved["train"]["batch_size"] is None:
        base_cfg = replace(base_cfg, batch_size=ae.default_batch_size(n_train))
    specs = [VariantSpec(**variant) for variant in config.variants]

    started = time.time()
    stages = _StageTimes()
    failures: list[dict[str, Any]] = []

    def _run_head(spec: VariantSpec,
                  network: TrainedNetwork | None = None) -> _Outcome:
        try:
            with stages.timed("score"):
                return spec, run_variant(spec, prepared.train, prepared.test,
                                         config.min_pts, network), None
        except Exception as exc:  # recorded per-variant, run continues
            logger.exception("variant %s seed %d failed", spec.key, spec.seed)
            return spec, None, f"{type(exc).__name__}: {exc}"

    def _run_raw(spec: VariantSpec) -> list[_Outcome]:
        # lof_raw does not depend on the seed: one result fills every row
        _, run, error = _run_head(replace(spec, seed=seeds[0]))
        return [(replace(spec, seed=seed), run, error) for seed in seeds]

    # the heads each (seed, reversal) network serves
    network_heads: dict[tuple[int, bool], list[VariantSpec]] = {}
    for seed in seeds:
        for reversal in (False, True):
            heads = [replace(spec, seed=seed) for spec in specs
                     if spec.detector != "lof_raw"
                     and (spec.detector == "aegr_lof") == reversal]
            if heads:
                network_heads[(seed, reversal)] = heads

    def _run_stack(keys: list[tuple[int, bool]]) -> list[_Outcome]:
        start = time.perf_counter()
        try:
            networks = train_networks(keys, prepared.train, prepared.val,
                                      prepared.test, base_cfg)
        except Exception as exc:  # every head of this stack fails alike
            logger.exception("stack of networks %s failed", keys)
            networks = [exc] * len(keys)
        seconds = time.perf_counter() - start
        stages.add("train", seconds)
        logger.info("trained stack %s: epochs %s in %.2f s", keys,
                    [len(n.history) if isinstance(n, TrainedNetwork) else None
                     for n in networks], seconds)
        outcomes: list[_Outcome] = []
        for (seed, reversal), network in zip(keys, networks):
            heads = network_heads[(seed, reversal)]
            if not isinstance(network, TrainedNetwork):
                logger.error("network seed %d reversal=%s failed: %s",
                             seed, reversal, network)
                error = f"{type(network).__name__}: {network}"
                outcomes += [(spec, None, error) for spec in heads]
                continue
            with stages.timed("metrics_write"):
                ae.history_to_csv(network.history, out_dir / (
                    f"history_{'aegr' if reversal else 'ae'}_{seed}.csv"))
            outcomes += [_run_head(spec, network) for spec in heads]
        return outcomes

    keys = list(network_heads)
    n_stacks = min(jobs, len(keys))
    units = [partial(_run_raw, spec) for spec in specs
             if spec.detector == "lof_raw"]
    units += [partial(_run_stack, keys[k::n_stacks]) for k in range(n_stacks)]

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            per_unit = list(pool.map(lambda unit: unit(), units))
    else:
        per_unit = [unit() for unit in units]
    outcomes = [outcome for unit_outcomes in per_unit for outcome in unit_outcomes]

    write_start = time.perf_counter()
    rows: list[dict[str, Any]] = []
    for spec, run, error in outcomes:
        if run is None:
            failures.append({"variant": spec.key, "seed": spec.seed, "error": error})
            continue
        result = metrics.compute_metrics(run.scores, prepared.test.labels)
        rows.append(
            {
                "detector": spec.detector,
                "modifier": spec.modifier,
                "seed": spec.seed,
                "roc_auc": result.roc_auc,
                "pr_auc": result.pr_auc,
                "n_pos": result.n_pos,
                "n_neg": result.n_neg,
                "metadata": {**run.metadata, "detector": spec.detector,
                             "modifier": spec.modifier, "seed": spec.seed},
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
    stages.add("metrics_write", time.perf_counter() - write_start)

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
        "stage_s": stages.seconds,
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    p_run.add_argument("--jobs", type=_positive_int, default=1,
                       help="parallel workers; the networks are dealt into "
                       "one training stack per worker (default 1)")
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
