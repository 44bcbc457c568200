"""Benchmark command line: prepare datasets, run the variant matrix, and
export plot data.

Subcommands:
    prepare   Preprocess a CSV (encode, split, subsample, normalize) into a
              cached dataset and print a summary.
    run       Execute every configured (variant, seed), write report.json,
              report.md, timings.json, per-variant score CSVs, and each
              trained network's history_*.csv and latents_*.npz.
    plotdata  Export latent scatter and KDE curve CSVs from a finished run.

All experiment settings live in a single JSON config; see the README for
the schema. Flags: --config PATH, --out DIR, --jobs N, --seed-override N.
Exit code is 0 only when every requested variant completed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import json
import logging
import math
import platform
import sys
import threading
import time
import zipfile
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
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
    TrainedNetwork,
    VariantSpec,
    run_variant,
    train_networks,
)
from .plots import kde_curve
from .storage import atomic_write_text, file_sha256, write_npz, write_scores_csv

logger = logging.getLogger(__name__)

CACHE_FILENAME = "dataset_cache.npz"

# Each kind of config value: the JSON types it takes, and how an error
# names it. A float field takes any JSON number; booleans, which Python
# counts as integers, pass only where bool is listed.
_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "list": ((list,), "a list"),
    "object": ((dict,), "an object"),
    "bool-or-null": ((bool, type(None)), "true, false or null"),
}


def _table(cls) -> dict[str, tuple[str, Any]]:
    # annotations are strings under `from __future__ import annotations`;
    # "float | None" -> "float"
    return {f.name: (f.type.split(" | ")[0], f.default) for f in fields(cls)}


# Each config object's keys, as key -> (kind, default); a MISSING default
# makes the key required, and null passes only where the default is null.
# `variants` has no kind here: it is "matrix" or a list, parsed by hand.
CONFIG_TABLE = {
    "dataset": ("object", {}),
    "split": ("object", {}),
    "train": ("object", {}),
    "lof": ("object", {}),
    "variants": (None, "matrix"),
    "seeds": ("list", [0]),
    "wilcoxon_pairs": ("list", []),
    "output_dir": ("str", "out"),
}
SECTION_TABLES = {
    "dataset": {"path": ("str", MISSING), "has_header": ("bool-or-null", None),
                "schema": ("object", {})},
    "split": _table(SplitSpec),
    "train": _table(ae.TrainConfig),
    "lof": {"min_pts": ("int", 20)},
}
# The config objects `prepare` reads; the cache records them, and `run`
# reads only a cache prepared with the config's.
PREPARE_SECTIONS = ("dataset", "split")
VARIANT_KEYS = ("detector", "modifier", "aug_factor", "aug_sigma")


@dataclass
class ExperimentConfig:
    """Resolved experiment settings with every default filled in."""

    dataset_path: str
    schema: dict[str | int, str]
    has_header: bool | None
    split: SplitSpec
    train: ae.TrainConfig
    min_pts: int
    variants: list[VariantSpec]
    seeds: list[int]
    wilcoxon_pairs: list[list[str]]
    output_dir: str
    resolved: dict = field(default_factory=dict)


def _check_keys(where: str, section: dict, known) -> None:
    unknown = set(section) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {where} keys {sorted(unknown)} "
            f"(expected from {sorted(known)})"
        )


def _check_value(name: str, value: Any, kind: str) -> None:
    types, phrase = _KINDS[kind]
    if (isinstance(value, bool) and bool not in types) or not isinstance(value, types):
        raise ValueError(f"{name} must be {phrase}, got {value!r}")
    # json.load accepts NaN, Infinity and -Infinity (and 1e400 overflows
    # to inf); none of them is a usable setting
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _read_object(where: str, values: dict, table: dict) -> dict[str, Any]:
    """Check one config object's keys and kinds against its table, and
    return it with every default filled in."""
    _check_keys(where or "top-level", values, table)
    out = {}
    for key, (kind, default) in table.items():
        name = f"{where}.{key}" if where else key
        value = values.get(key, default)
        if value is MISSING:
            raise ValueError(f"config needs {name}")
        if kind is not None and (value is not None or default is not None):
            _check_value(name, value, kind)
        # each config owns its values; none shares a default list or object
        out[key] = copy.deepcopy(value)
    return out


def _duplicates(values: list) -> list:
    return sorted({v for v in values if values.count(v) > 1})


def _parse_variant_entry(entry: Any) -> dict[str, Any]:
    if isinstance(entry, str):
        detector, _, modifier = entry.partition("/")
        return {"detector": detector, "modifier": modifier or "none"}
    if isinstance(entry, dict):
        _check_keys("variant", entry, VARIANT_KEYS)
        if "detector" not in entry:
            raise ValueError(f"variant {entry!r} needs a detector")
        out = {"detector": entry["detector"], "modifier": entry.get("modifier", "none")}
        aug_keys = [key for key in ("aug_factor", "aug_sigma") if key in entry]
        for key in aug_keys:
            _check_value(f"variant {key}", entry[key], "float")
            out[key] = float(entry[key])
        if aug_keys and out["modifier"] != "prune_da":
            raise ValueError(
                f"variant {out['detector']}/{out['modifier']} sets "
                f"{aug_keys}, which only a prune_da variant reads"
            )
        return out
    raise ValueError(f"cannot parse variant entry {entry!r}")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read, validate, and default-fill an experiment config JSON; every
    error it raises names the file."""
    path = Path(path)
    try:
        return _resolve_config(json.loads(path.read_text(encoding="utf-8")))
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from exc


def _resolve_config(raw: Any) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    resolved = _read_object("", raw, CONFIG_TABLE)
    for section, table in SECTION_TABLES.items():
        resolved[section] = _read_object(section, resolved[section], table)
    output_dir = resolved.pop("output_dir")

    dataset = resolved["dataset"]
    if not all(kind in COLUMN_KINDS for kind in dataset["schema"].values()):
        raise ValueError(
            f"dataset.schema must be an object mapping columns to "
            f"one of {list(COLUMN_KINDS)}, got {dataset['schema']!r}"
        )
    n_labels = list(dataset["schema"].values()).count("label")
    if n_labels > 1:
        raise ValueError(
            f"dataset.schema names {n_labels} label columns; "
            f"at most one is allowed"
        )
    schema: dict[str | int, str] = {}
    for key, kind in dataset["schema"].items():
        if dataset["has_header"] is False and key.isdigit():
            schema[int(key)] = kind
        else:
            schema[key] = kind

    variants_raw = resolved["variants"]
    if variants_raw == "matrix":
        variants = [{"detector": d, "modifier": m} for d, m in VARIANT_MATRIX]
    elif isinstance(variants_raw, list):
        variants = [_parse_variant_entry(v) for v in variants_raw]
    else:
        raise ValueError(
            f'variants must be "matrix" or a list, got {variants_raw!r}'
        )
    if not variants:
        raise ValueError("at least one variant required")
    resolved["variants"] = variants
    specs = [VariantSpec(**v) for v in variants]
    # report rows, score files and shared networks are keyed by
    # (detector/modifier, seed), so each may appear only once
    keys = [spec.key for spec in specs]
    duplicate_variants = _duplicates(keys)
    if duplicate_variants:
        raise ValueError(f"duplicate variants {duplicate_variants}")
    for pair in resolved["wilcoxon_pairs"]:
        if not (isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1]
                and all(key in keys for key in pair)):
            raise ValueError(
                f"wilcoxon pair {pair!r} must name two distinct "
                f"configured variants from {sorted(keys)}"
            )

    min_pts = resolved["lof"]["min_pts"]
    if min_pts < 1:
        raise ValueError(f"lof.min_pts must be >= 1, got {min_pts}")

    seeds = resolved["seeds"]
    for i, seed in enumerate(seeds):
        _check_value(f"seeds[{i}]", seed, "int")
        if seed < 0:
            raise ValueError(f"seeds[{i}] must be >= 0, got {seed}")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    duplicate_seeds = _duplicates(seeds)
    if duplicate_seeds:
        raise ValueError(f"duplicate seeds {duplicate_seeds}")

    return ExperimentConfig(
        dataset_path=dataset["path"],
        schema=schema,
        has_header=dataset["has_header"],
        split=SplitSpec(**resolved["split"]),
        train=ae.TrainConfig(**resolved["train"]),
        min_pts=min_pts,
        variants=specs,
        seeds=seeds,
        wilcoxon_pairs=resolved["wilcoxon_pairs"],
        output_dir=output_dir,
        resolved=resolved,
    )


class _Timeline:
    """When each unit of a command ran, and on which thread, in seconds from
    the timeline's creation."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.units: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    @contextmanager
    def unit(self, kind: str, **keys: Any) -> Iterator[dict[str, Any]]:
        """Record one unit; the body may add keys to the yielded record."""
        record = {"kind": kind, **keys, "start_s": self.elapsed()}
        try:
            yield record
        finally:
            record.update(thread=threading.current_thread().name,
                          stop_s=self.elapsed())
            with self._lock:
                self.units.append(record)


def _stage_seconds(units: list[dict[str, Any]]) -> dict[str, float]:
    """Busy seconds per unit kind, summed over worker threads."""
    seconds: Counter[str] = Counter()
    for unit in units:
        seconds[unit["kind"]] += unit["stop_s"] - unit["start_s"]
    return seconds


def cmd_prepare(config: ExperimentConfig, out_dir: Path) -> int:
    """Preprocess the configured CSV into a byte-reproducible cache."""
    timeline = _Timeline()
    with timeline.unit("load_csv"):
        table = load_csv(config.dataset_path, config.schema, config.has_header)
    prepared = prepare(table, config.split, timed=timeline.unit)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = out_dir / CACHE_FILENAME
    with timeline.unit("write"):
        save_cache(cache_path, prepared,
                   source_sha256=file_sha256(config.dataset_path),
                   settings={section: config.resolved[section]
                             for section in PREPARE_SECTIONS})
        cache_sha256 = file_sha256(cache_path)
    stage_s = _stage_seconds(timeline.units)
    logger.info("prepare stages: %s; csv parser %s", ", ".join(
        f"{stage} {seconds:.3f} s" for stage, seconds in stage_s.items()),
        table.parser)

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
        "cache_sha256": cache_sha256,
        "csv_parser": table.parser,
        "stage_s": stage_s,
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


# One executed (variant, seed): its report row, or the error that stopped it.
_Outcome = tuple[VariantSpec, dict[str, Any] | None, str | None]

# Every file a run and its plotdata export write; a rerun deletes them
# before training, so no file of an earlier run's seeds or networks
# survives, even when the rerun stops early.
_RUN_FILES = ("scores_*.csv", "history_*.csv", "latents_*.npz",
              "latent_scatter.csv", "kde_curves.csv", "report.json",
              "report.md", "timings.json")


def _check_cache_source(config: ExperimentConfig, cache_path: Path,
                        meta: dict[str, Any]) -> None:
    """Fail unless the cache was prepared with the config's ``dataset`` and
    ``split`` objects and, when the CSV is still there, from its bytes."""
    differ = []
    for section in PREPARE_SECTIONS:
        cached = meta["settings"].get(section, {})
        for key, value in config.resolved[section].items():
            if cached.get(key) != value:
                differ.append(f"{section}.{key}: cache {cached.get(key)!r}, "
                              f"config {value!r}")
    if differ:
        raise ValueError(
            f"{cache_path} was prepared with other settings "
            f"({'; '.join(differ)}); run `prepare` again"
        )
    csv_path = Path(config.dataset_path)
    if csv_path.is_file() and file_sha256(csv_path) != meta["source_sha256"]:
        raise ValueError(
            f"{csv_path} changed after `prepare` wrote {cache_path}; "
            "run `prepare` again"
        )


def _done(value: Any) -> concurrent.futures.Future:
    future: concurrent.futures.Future = concurrent.futures.Future()
    future.set_result(value)
    return future


def _network_name(key: tuple[int, bool]) -> str:
    seed, reversal = key
    return f"{'aegr' if reversal else 'ae'}_{seed}"


def cmd_run(
    config: ExperimentConfig,
    out_dir: Path,
    jobs: int = 1,
    seed_override: int | None = None,
) -> int:
    """Run every (variant, seed), evaluate, and write reports.

    Per seed, a plain network serves ``ae_re`` and ``ae_lof/*`` and a
    reversal network serves ``aegr_lof/*``. Every network of the run
    trains in one lockstep stack on the calling thread. Each head (its
    LOF fit and score, metrics and score file) is then one unit of work.
    ``lof_raw`` does not depend on the seed, so one unit, started before
    training, fills every seed's row. With ``jobs`` above 1 the units,
    and each epoch's validation passes if their blocks are large enough
    to pay (see :func:`autoencoder.train_stack`), run on a pool of
    ``jobs`` threads; with 1, everything runs in order on the calling
    thread. Each trained network writes ``history_<ae|aegr>_<seed>.csv``
    and ``latents_<ae|aegr>_<seed>.npz``, and ``timings.json`` records when
    and on which thread each unit ran. A cache prepared with other
    ``dataset`` or ``split`` settings, or from a CSV that has changed
    since, fails before anything runs.
    """
    cache_path = out_dir / CACHE_FILENAME
    if not cache_path.exists():
        raise FileNotFoundError(
            f"prepared dataset not found at {cache_path}; run `prepare` first"
        )
    prepared = load_cache(cache_path)
    _check_cache_source(config, cache_path, prepared.meta)
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
    if config.min_pts >= n_train:
        raise ValueError(
            f"lof.min_pts must be below the {n_train} training rows, "
            f"got {config.min_pts}"
        )
    for pattern in _RUN_FILES:
        for path in out_dir.glob(pattern):
            path.unlink()

    seeds = [seed_override] if seed_override is not None else config.seeds

    started = time.time()
    timeline = _Timeline()

    def _evaluate(kind: str, tags: dict[str, Any], heads: list[VariantSpec],
                  network: TrainedNetwork | None = None) -> list[_Outcome]:
        # one unit: one run of the first head fills the row and the score
        # file of every head given
        with timeline.unit(kind, **tags) as record:
            try:
                run = run_variant(heads[0], prepared.train, prepared.test,
                                  config.min_pts, network)
                record.update(run.timings)
            except Exception as exc:  # recorded per-variant, run continues
                logger.exception("variant %s seed %d failed", heads[0].key,
                                 heads[0].seed)
                return [(spec, None, f"{type(exc).__name__}: {exc}")
                        for spec in heads]
            result = metrics.compute_metrics(run.scores, prepared.test.labels)
            for spec in heads:
                write_scores_csv(out_dir / f"scores_{spec.detector}_"
                                 f"{spec.modifier}_{spec.seed}.csv", run.scores)
            return [(spec, {
                "detector": spec.detector,
                "modifier": spec.modifier,
                "seed": spec.seed,
                "roc_auc": result.roc_auc,
                "pr_auc": result.pr_auc,
                "n_pos": result.n_pos,
                "n_neg": result.n_neg,
                "metadata": {**run.metadata, "detector": spec.detector,
                             "modifier": spec.modifier, "seed": spec.seed},
            }, None) for spec in heads]

    # the heads each (seed, reversal) network serves
    network_heads: dict[tuple[int, bool], list[VariantSpec]] = {}
    for seed in seeds:
        for reversal in (False, True):
            heads = [replace(spec, seed=seed) for spec in config.variants
                     if spec.reversal == reversal]
            if heads:
                network_heads[(seed, reversal)] = heads
    keys = list(network_heads)

    # each unit's outcomes, in submission order: lof_raw, then every
    # network's heads in key order
    pending: list[concurrent.futures.Future] = []
    with ExitStack() as cleanup:
        if jobs > 1:
            pool = cleanup.enter_context(concurrent.futures.ThreadPoolExecutor(
                max_workers=jobs, thread_name_prefix="aegrlof"))
            submit, pool_map = pool.submit, pool.map
        else:
            submit, pool_map = (lambda fn, *args: _done(fn(*args))), map

        pending += [submit(_evaluate, "lof_raw", {"variant": spec.key, "seeds": seeds},
                           [replace(spec, seed=seed) for seed in seeds])
                    for spec in config.variants if spec.detector == "lof_raw"]

        networks: list = []
        if keys:
            names = [_network_name(k) for k in keys]
            with timeline.unit("train", networks=names) as record:
                try:
                    networks = train_networks(keys, prepared.train, prepared.val,
                                              prepared.test, config.train,
                                              map=pool_map)
                except Exception as exc:  # every head fails alike
                    logger.exception("training networks %s failed", keys)
                    networks = [exc] * len(keys)
                # epochs run per network, null for a failed one
                record["epochs"] = {
                    name: len(n.history) if isinstance(n, TrainedNetwork) else None
                    for name, n in zip(names, networks)}
            logger.info("trained stack: epochs %s", record["epochs"])

        for key, network in zip(keys, networks):
            heads = network_heads[key]
            if not isinstance(network, TrainedNetwork):
                logger.error("network seed %d reversal=%s failed: %s",
                             *key, network)
                error = f"{type(network).__name__}: {network}"
                pending.append(_done([(spec, None, error) for spec in heads]))
                continue
            name = _network_name(key)
            with timeline.unit("write", network=name):
                ae.history_to_csv(network.history, out_dir / f"history_{name}.csv")
                latents = {"latents": network.train_latents,
                           "pruned_mask": (~network.kept).astype(np.int8)}
                if prepared.train.labels is not None:
                    latents["labels"] = prepared.train.labels
                write_npz(out_dir / f"latents_{name}.npz", latents)
            pending += [submit(_evaluate, "head", {"variant": spec.key, "seed": spec.seed},
                               [spec], network) for spec in heads]
        outcomes = [outcome for future in pending for outcome in future.result()]

    with timeline.unit("report"):
        rows = sorted((row for _, row, _ in outcomes if row is not None),
                      key=lambda r: (r["detector"], r["modifier"], r["seed"]))
        failures = [{"variant": spec.key, "seed": spec.seed, "error": error}
                    for spec, row, error in outcomes if row is None]
        report = {
            "config": {**config.resolved, "seeds": seeds},
            "dataset_sha256": file_sha256(cache_path),
            "rows": rows,
            "wilcoxon": _wilcoxon_comparisons(config.wilcoxon_pairs, rows, seeds),
            "failures": sorted(failures, key=lambda f: (f["variant"], f["seed"])),
        }
    duration_s = timeline.elapsed()
    units = sorted(timeline.units, key=lambda unit: unit["start_s"])
    environment = {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "started_unix": started,
        "duration_s": duration_s,
        "stage_s": _stage_seconds(units),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        out_dir / "report.json",
        json.dumps({"report": report, "environment": environment},
                   indent=2, sort_keys=True) + "\n",
    )
    atomic_write_text(out_dir / "report.md", _render_markdown(report, seeds))
    atomic_write_text(
        out_dir / "timings.json",
        json.dumps({"jobs": jobs, "duration_s": duration_s, "units": units},
                   indent=2, sort_keys=True) + "\n",
    )

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
    out_dir: Path, network: str | None = None, seed: int | None = None
) -> int:
    """Export latent scatter + per-axis KDE curves from the stored latents
    of one trained network, preferring the reversal network.

    A latents file that cannot be read (cut short, overwritten, missing
    an array, or holding arrays whose shapes disagree) raises
    ``ValueError`` naming the file."""
    # latents_<ae|aegr>_<seed>.npz, one per trained network
    candidates = sorted(out_dir.glob("latents_*.npz"))
    if network is not None:
        candidates = [c for c in candidates if c.stem.split("_")[1] == network]
    if seed is not None:
        candidates = [c for c in candidates if c.stem.rsplit("_", 1)[1] == str(seed)]
    if not candidates:
        raise FileNotFoundError(
            f"no stored latents matching the request under {out_dir}; "
            "run a variant that trains a network first"
        )
    preferred = [c for c in candidates if c.stem.split("_")[1] == "aegr"]
    chosen = (preferred or candidates)[0]
    logger.info("plot data source: %s", chosen.name)

    try:
        with open(chosen, "rb") as file, np.load(file, allow_pickle=False) as npz:
            latents = npz["latents"]
            pruned = npz["pruned_mask"].astype(bool)
            labels = npz["labels"] if "labels" in npz.files else None
        per_row = [a.shape for a in (pruned, labels) if a is not None]
        if latents.ndim != 2 or per_row != [latents.shape[:1]] * len(per_row):
            raise ValueError(f"latents of shape {latents.shape} with per-row "
                             f"arrays of shapes {per_row}")
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(
            f"{chosen}: damaged latents file ({type(exc).__name__}: {exc}); "
            "run the experiment again"
        ) from exc

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


def _int_at_least(least: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
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
    p_run.add_argument("--jobs", type=partial(_int_at_least, 1), default=1,
                       help="worker threads for the LOF heads and for "
                       "validation passes of large blocks; every network "
                       "trains in one stack on the main thread (default 1)")
    p_run.add_argument("--seed-override", type=partial(_int_at_least, 0),
                       default=None,
                       help="run only this seed instead of the configured list")

    p_plot = sub.add_parser("plotdata", help="export latent scatter/KDE CSVs")
    p_plot.add_argument("--out", default="out", help="run output directory")
    p_plot.add_argument("--network", choices=("ae", "aegr"), default=None,
                        help="plain (ae) or reversal (aegr) network whose "
                        "latents to export (default: aegr when stored)")
    p_plot.add_argument("--seed", type=partial(_int_at_least, 0), default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plotdata":
            return cmd_plotdata(Path(args.out), args.network, args.seed)
        config = load_experiment_config(args.config)
        out_dir = Path(args.out) if args.out else Path(config.output_dir)
        if args.command == "prepare":
            return cmd_prepare(config, out_dir)
        return cmd_run(config, out_dir, jobs=args.jobs,
                       seed_override=args.seed_override)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
