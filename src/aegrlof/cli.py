"""Benchmark command line: prepare datasets, run the variant matrix, and
export plot data.

Subcommands:
    prepare   Preprocess a CSV (encode, split, subsample, normalize) into a
              cached dataset and print a summary.
    run       Execute every configured (variant, seed), write report.json
              and report.md (as :mod:`report` builds them), timings.json,
              score CSVs, and each network's history_*.csv and latents_*.npz.
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
import os
import platform
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from . import __version__
from . import autoencoder as ae
from . import metrics, report
from .data import (
    PreparedData,
    SplitSpec,
    check_column_kinds,
    load_cache,
    load_csv,
    prepare,
    save_cache,
)
from .pipeline import (
    NETWORKS,
    VARIANT_MATRIX,
    TrainedNetwork,
    VariantSpec,
    run_variant,
    train_networks,
)
from .plots import kde_curve
from .report import FAILURE_LINE, Outcome
from .storage import (atomic_write_text, file_sha256, read_npz, write_csv,
                      write_npz, write_scores_csv)

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
# `variants` has no kind here: it is "matrix" or a list, each entry of
# which is read through VARIANT_TABLE.
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
# A variant object's keys: VariantSpec's fields but the seed, which `seeds`
# gives; only a prune_da variant reads the augmentation keys.
VARIANT_TABLE = {key: entry for key, entry in _table(VariantSpec).items()
                 if key != "seed"}
_AUG_KEYS = ("aug_factor", "aug_sigma")


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


def _check_value(name: str, value: Any, kind: str) -> None:
    types, phrase = _KINDS[kind]
    if (isinstance(value, bool) and bool not in types) or not isinstance(value, types):
        raise ValueError(f"{name} must be {phrase}, got {value!r}")
    # json.load accepts NaN, Infinity and -Infinity (and 1e400 overflows
    # to inf); none of them is a usable setting
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _read_object(where: str, values: dict, table: dict,
                 sep: str = ".") -> dict[str, Any]:
    """Check one config object's keys and kinds against its table, and
    return it with every default filled in. Errors name a key as
    ``where``, ``sep`` and the key."""
    unknown = set(values) - set(table)
    if unknown:
        raise ValueError(f"unknown {where or 'top-level'} keys {sorted(unknown)} "
                         f"(expected from {sorted(table)})")
    out = {}
    for key, (kind, default) in table.items():
        name = f"{where}{sep}{key}" if where else key
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


def _read_variant(entry: Any) -> dict[str, Any]:
    """Read one variant entry, a "detector/modifier" string or an object,
    through VARIANT_TABLE. The result echoes an augmentation key only
    where the entry sets it."""
    if isinstance(entry, str):
        entry = dict(zip(("detector", "modifier"), entry.split("/", 1)))
    if not isinstance(entry, dict):
        raise ValueError(f"cannot parse variant entry {entry!r}")
    variant = _read_object("variant", entry, VARIANT_TABLE, sep=" ")
    aug_keys = [key for key in _AUG_KEYS if key in entry]
    if aug_keys and variant["modifier"] != "prune_da":
        raise ValueError(f"variant {VariantSpec(**variant).key} sets "
                         f"{aug_keys}, which only a prune_da variant reads")
    return {key: value for key, value in variant.items()
            if key in entry or key not in _AUG_KEYS}


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read, validate, and default-fill an experiment config JSON; every
    error it raises names the file."""
    path = Path(path)
    try:
        return _resolve_config(json.loads(path.read_text(encoding="utf-8-sig")))
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
    schema: dict[str | int, str] = dict(dataset["schema"])
    try:
        check_column_kinds(schema.items())
    except ValueError as exc:
        raise ValueError(f"dataset.schema: {exc}") from exc
    if dataset["has_header"] is False:
        for key in schema:
            if not key.isdecimal():
                raise ValueError(f"dataset.schema key {key!r} is not a column "
                                 "index, which a has_header false schema needs")
        schema = {int(key): kind for key, kind in schema.items()}

    variants = resolved["variants"]
    if variants == "matrix":
        variants = [VariantSpec(*pair).key for pair in VARIANT_MATRIX]
    elif not isinstance(variants, list):
        raise ValueError(f'variants must be "matrix" or a list, got {variants!r}')
    if not variants:
        raise ValueError("at least one variant required")
    resolved["variants"] = [_read_variant(v) for v in variants]
    specs = [VariantSpec(**v) for v in resolved["variants"]]
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
    """When each unit of a command ran, and in which process (0 for the
    calling one, k for worker k), in seconds from ``start``, a
    ``time.perf_counter`` reading that defaults to the timeline's
    creation. A worker's timeline takes the calling process's ``start``:
    on Linux ``perf_counter`` reads ``CLOCK_MONOTONIC``, which every
    process shares."""

    def __init__(self, start: float | None = None, process: int = 0) -> None:
        self.started_unix = time.time()
        self.start = time.perf_counter() if start is None else start
        self.process = process
        self.units: list[dict[str, Any]] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    @contextmanager
    def unit(self, kind: str, **keys: Any) -> Iterator[dict[str, Any]]:
        """Record one unit; the body may add keys to the yielded record."""
        record = {"kind": kind, **keys, "start_s": self.elapsed()}
        try:
            yield record
        finally:
            record.update(process=self.process, stop_s=self.elapsed())
            self.units.append(record)


def _stage_seconds(units: list[dict[str, Any]]) -> dict[str, float]:
    """Busy seconds per unit kind, summed over processes."""
    seconds: Counter[str] = Counter()
    for unit in units:
        seconds[unit["kind"]] += unit["stop_s"] - unit["start_s"]
    return seconds


def _write_json(path: Path, value: Any) -> None:
    atomic_write_text(path, json.dumps(value, indent=2, sort_keys=True) + "\n")


def cmd_prepare(config: ExperimentConfig, out_dir: Path) -> int:
    """Preprocess the configured CSV into a byte-reproducible cache."""
    timeline = _Timeline()
    with timeline.unit("load_csv"):
        table = load_csv(config.dataset_path, config.schema, config.has_header)
    prepared = prepare(table, config.split, timed=timeline.unit)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = out_dir / CACHE_FILENAME
    with timeline.unit("write"):
        cache_sha256 = save_cache(cache_path, prepared,
                                  source_sha256=file_sha256(config.dataset_path),
                                  settings=_prepare_settings(config))
    stage_s = _stage_seconds(timeline.units)
    logger.info("prepare stages: %s; csv parser %s", ", ".join(
        f"{stage} {seconds:.3f} s" for stage, seconds in stage_s.items()),
        table.parser)

    summary = {
        "raw_columns": len(table.columns),
        "encoded_features": prepared.train.n_features,
        "rows": table.n_rows,
        "split_sizes": {
            "train": prepared.train.n_rows,
            "val": prepared.val.n_rows,
            "test": prepared.test.n_rows,
        },
        "has_labels": prepared.train.labels is not None,
        "cache": str(cache_path),
        "cache_sha256": cache_sha256,
        "csv_parser": table.parser,
        "stage_s": stage_s,
    }
    _write_json(out_dir / "prepare_summary.json", summary)
    print(f"prepared {config.dataset_path}")
    print(f"  encoded features: {summary['encoded_features']}")
    print(
        "  split sizes: train={train} val={val} test={test}".format(
            **summary["split_sizes"]
        )
    )
    print(f"  cache: {cache_path}")
    return 0


# Every file a run and its plotdata export write; a rerun deletes them
# before training, so no file of an earlier run's seeds or networks
# survives, even when the rerun stops early.
_RUN_FILES = ("scores_*.csv", "history_*.csv", "latents_*.npz",
              "latent_scatter.csv", "kde_curves.csv", "report.json",
              "report.md", "timings.json")


def _prepare_settings(config: ExperimentConfig) -> dict[str, Any]:
    return {section: config.resolved[section] for section in PREPARE_SECTIONS}


def _load_run_data(config: ExperimentConfig, out_dir: Path) -> tuple[PreparedData, str]:
    """Load the run's cache, which :func:`data.load_cache` refuses when
    stale, and hash its bytes. Fail unless its splits can be evaluated."""
    cache_path = out_dir / CACHE_FILENAME
    prepared = load_cache(cache_path, _prepare_settings(config),
                          config.dataset_path)
    digest = file_sha256(cache_path)
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
    return prepared, digest


def _failed(heads: list[VariantSpec], exc: BaseException) -> list[Outcome]:
    """Each head with the error that stopped them all."""
    return [(spec, f"{type(exc).__name__}: {exc}") for spec in heads]


def _evaluate(timeline: _Timeline, prepared: PreparedData, min_pts: int,
              out_dir: Path, kind: str, tags: dict[str, Any],
              heads: list[VariantSpec],
              network: TrainedNetwork | None = None) -> list[Outcome]:
    """One unit: one run of the first head gives each head given its
    outcome and its score file."""
    with timeline.unit(kind, **tags) as record:
        try:
            run = run_variant(heads[0], prepared.train, prepared.test, min_pts,
                              network)
            record.update(run.timings)
        except Exception as exc:  # recorded per variant, the run continues
            logger.exception("variant %s seed %d failed", heads[0].key,
                             heads[0].seed)
            return _failed(heads, exc)
        outcome = {**asdict(metrics.compute_metrics(run.scores, prepared.test.labels)),
                   "metadata": run.metadata}
        for spec in heads:
            write_scores_csv(out_dir / f"scores_{spec.detector}_"
                             f"{spec.modifier}_{spec.seed}.csv", run.scores)
        return [(spec, outcome) for spec in heads]


def _write_network(timeline: _Timeline, out_dir: Path, labels: np.ndarray | None,
                   name: str, network: TrainedNetwork) -> None:
    """One unit: a trained network's history and latents files."""
    with timeline.unit("write", network=name):
        # a column per EpochStats field, reversal_applied as 0 or 1
        write_csv(out_dir / f"history_{name}.csv",
                  [f.name for f in fields(ae.EpochStats)],
                  ([int(v) if isinstance(v, bool) else v for v in astuple(s)]
                   for s in network.history))
        latents = {"latents": network.train_latents,
                   "pruned_mask": (~network.kept).astype(np.int8)}
        if labels is not None:
            latents["labels"] = labels
        write_npz(out_dir / f"latents_{name}.npz", latents)


def _run_group(timeline: _Timeline, prepared: PreparedData, cfg: ae.TrainConfig,
               min_pts: int, out_dir: Path,
               network_heads: dict[tuple[int, bool], list[VariantSpec]],
               ) -> list[Outcome]:
    """Train one seed group's networks in one stack (one ``train`` unit),
    then, network by network in key order, write its history and latents
    files and run each of its heads. A failed network's heads are
    failures without a unit."""
    keys = list(network_heads)
    names = [f"{NETWORKS[reversal]}_{seed}" for seed, reversal in keys]
    epoch_batches = len(ae.batch_starts(cfg, prepared.train.n_rows))
    with timeline.unit("train", seeds=list(dict.fromkeys(seed for seed, _ in keys)),
                       networks=names) as record:
        shared: dict[int, int] = {}
        try:
            networks = train_networks(keys, prepared.train, prepared.val,
                                      prepared.test, cfg, shared_epochs=shared)
        except Exception as exc:  # every head fails alike
            logger.exception("training networks %s failed", keys)
            networks = [exc] * len(keys)
        # epochs and batch steps per network, null for a failed one, and
        # the epochs each seed's networks trained as one
        epochs = {name: len(n.history) if isinstance(n, TrainedNetwork) else None
                  for name, n in zip(names, networks)}
        record.update(
            epochs=epochs,
            batches={name: None if e is None else e * epoch_batches
                     for name, e in epochs.items()},
            shared_epochs={keys[i][0]: n for i, n in shared.items()})
    logger.info("trained stack: epochs %s", epochs)

    outcomes: list[Outcome] = []
    for key, name, network in zip(keys, names, networks):
        heads = network_heads[key]
        if not isinstance(network, TrainedNetwork):
            logger.error("network %s failed: %s", name, network)
            outcomes += _failed(heads, network)
            continue
        _write_network(timeline, out_dir, prepared.train.labels, name, network)
        for spec in heads:
            outcomes += _evaluate(timeline, prepared, min_pts, out_dir, "head",
                                  {"variant": spec.key, "seed": spec.seed},
                                  [spec], network)
    return outcomes


# A worker process's run data and index, which the pool's initializer sets
# once; every group the worker runs reads them.
_worker: dict[str, Any] = {}


def _start_worker(prepared: PreparedData, counter: Any) -> None:
    with counter.get_lock():
        counter.value += 1
        _worker.update(prepared=prepared, process=counter.value)


def _run_worker_group(origin: float, *args: Any) -> tuple[list[Outcome],
                                                          list[dict[str, Any]]]:
    """:func:`_run_group` in a worker: its outcomes and its units, timed
    from the calling process's ``origin``."""
    timeline = _Timeline(origin, _worker["process"])
    return _run_group(timeline, _worker["prepared"], *args), timeline.units


def _single_thread() -> bool:
    """Whether this process runs one OS thread (Linux; False elsewhere)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


# The environment variables that set the BLAS libraries' thread counts.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _workers(prepared: PreparedData, origin: float, group_args: tuple,
             groups: list[dict[tuple[int, bool], list[VariantSpec]]],
             ) -> Iterator[list[concurrent.futures.Future]]:
    """Run each group in a pool of as many worker processes, each given
    ``prepared`` once, and yield the groups' futures; the pool shuts down,
    its workers ended, when the block exits.

    Workers fork, which takes milliseconds, only when this process runs a
    single thread: a fork-context pool forks every worker before it starts
    its manager thread, so no fork copies a live thread's state. Otherwise
    (a BLAS thread pool, say) they spawn, importing numpy afresh, with
    BLAS pinned to one thread: a spawned worker's own BLAS threads beside
    this process's made kdd-tall ``--jobs 2`` runs 2-5x slower.
    """
    if not groups:
        yield []
        return
    # imported here, so that prepare and one-group runs start without it
    import multiprocessing

    method = "fork" if _single_thread() else "spawn"
    logger.info("%d worker processes by %s", len(groups), method)
    context = multiprocessing.get_context(method)
    with concurrent.futures.ProcessPoolExecutor(
            len(groups), mp_context=context, initializer=_start_worker,
            initargs=(prepared, context.Value("i", 0))) as pool:
        # workers start in submit, with the environment of that moment
        saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            futures = [pool.submit(_run_worker_group, origin, *group_args, group)
                       for group in groups]
        finally:
            for var, value in saved.items():
                if value is None:
                    del os.environ[var]
                else:
                    os.environ[var] = value
        yield futures


def cmd_run(
    config: ExperimentConfig,
    out_dir: Path,
    jobs: int = 1,
    seed_override: int | None = None,
) -> int:
    """Run every (variant, seed), evaluate, and write reports.

    Per seed, a plain network serves ``ae_re`` and ``ae_lof/*`` and a
    reversal network serves ``aegr_lof/*``. The seeds are dealt round
    robin into min(``jobs``, seeds) groups, and each group's networks
    train in one lockstep stack, where a seed's twins train as one until
    the first reversal; then each network's history and latents files
    and each of its heads (LOF fit and score, metrics and score file)
    run in key order (see :func:`_run_group`). A pool of worker processes
    runs every group but the first; meanwhile the calling process runs
    group 0, then ``lof_raw``, which does not depend on the seed, so one
    unit fills every seed's row. At ``jobs`` 1 there is one group and no
    pool. A group whose worker died (a ``BrokenProcessPool``) has its
    heads recorded as failures naming the error. ``timings.json`` records
    when and in which process each unit ran, from the ``load`` unit on. A
    stale cache (see :func:`data.load_cache`) fails before any deletion.
    """
    timeline = _Timeline()
    with timeline.unit("load"):
        prepared, digest = _load_run_data(config, out_dir)
    for pattern in _RUN_FILES:
        for path in out_dir.glob(pattern):
            path.unlink()
    seeds = [seed_override] if seed_override is not None else config.seeds

    # the heads each (seed, reversal) network serves, by seed group
    n_groups = min(jobs, len(seeds))
    groups: list[dict[tuple[int, bool], list[VariantSpec]]] = [
        {} for _ in range(n_groups)]
    for g, seed in enumerate(seeds):
        for reversal in NETWORKS:
            heads = [replace(spec, seed=seed) for spec in config.variants
                     if spec.reversal == reversal]
            if heads:
                groups[g % n_groups][(seed, reversal)] = heads
    groups = [group for group in groups if group]
    group_args = (config.train, config.min_pts, out_dir)

    outcomes: list[Outcome] = []
    with _workers(prepared, timeline.start, group_args, groups[1:]) as futures:
        if groups:
            outcomes += _run_group(timeline, prepared, *group_args, groups[0])
        for spec in config.variants:
            if spec.reversal is None:
                outcomes += _evaluate(timeline, prepared, config.min_pts, out_dir,
                                      "lof_raw", {"variant": spec.key, "seeds": seeds},
                                      [replace(spec, seed=seed) for seed in seeds])
        for group, future in zip(groups[1:], futures):
            try:
                group_outcomes, units = future.result()
            except concurrent.futures.BrokenExecutor as exc:
                # a dead worker (BrokenProcessPool) fails its group's heads,
                # and the run goes on
                logger.error("worker for networks %s failed: %s", list(group), exc)
                outcomes += _failed([spec for heads in group.values()
                                     for spec in heads], exc)
                continue
            outcomes += group_outcomes
            timeline.units += units

    failures = _write_report(config, seeds, digest, outcomes, timeline, jobs, out_dir)
    print(f"completed {len(outcomes) - len(failures)}/{len(outcomes)} runs -> "
          f"{out_dir / 'report.json'}")
    for failure in failures:
        print(f"  FAILED {FAILURE_LINE.format(**failure)}", file=sys.stderr)
    return 0 if not failures else 1


def _write_report(config: ExperimentConfig, seeds: list[int], dataset_sha256: str,
                  outcomes: list[Outcome], timeline: _Timeline, jobs: int,
                  out_dir: Path) -> list[dict[str, Any]]:
    """Write report.json, with the :func:`report.build` block and the run's
    versions and stage seconds in its ``environment`` block, report.md and
    timings.json; return the report's failures."""
    with timeline.unit("report"):
        block = report.build(config.resolved, seeds, dataset_sha256,
                             config.wilcoxon_pairs, outcomes)
    duration_s = timeline.elapsed()
    units = sorted(timeline.units, key=lambda unit: unit["start_s"])
    environment = {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "started_unix": timeline.started_unix,
        "duration_s": duration_s,
        "stage_s": _stage_seconds(units),
    }
    _write_json(out_dir / "report.json", {"report": block, "environment": environment})
    atomic_write_text(out_dir / "report.md", report.markdown(block))
    _write_json(out_dir / "timings.json",
                {"jobs": jobs, "duration_s": duration_s, "units": units})
    return block["failures"]


def cmd_plotdata(
    out_dir: Path, network: str | None = None, seed: int | None = None
) -> int:
    """Export latent scatter + per-axis KDE curves from the stored latents
    of one trained network, preferring the reversal network.

    A latents file that cannot be read (cut short, overwritten, missing
    an array, or holding arrays whose shapes disagree) raises
    ``ValueError`` naming the file."""
    # latents_<network>_<seed>.npz, one per trained network
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
    preferred = [c for c in candidates if c.stem.split("_")[1] == NETWORKS[True]]
    chosen = (preferred or candidates)[0]
    logger.info("plot data source: %s", chosen.name)

    with read_npz(chosen, "latents file", "run the experiment again") as npz:
        latents = npz["latents"]
        pruned = npz["pruned_mask"].astype(bool)
        labels = npz["labels"] if "labels" in npz.files else None
        per_row = [a.shape for a in (pruned, labels) if a is not None]
        if latents.ndim != 2 or per_row != [latents.shape[:1]] * len(per_row):
            raise ValueError(f"latents of shape {latents.shape} with per-row "
                             f"arrays of shapes {per_row}")

    if latents.shape[1] < 2:
        raise ValueError(
            f"{chosen.name}: need at least 2 latent dimensions for a scatter"
        )
    label_col = labels if labels is not None else np.full(latents.shape[0], -1)
    x, y = latents[:, :2].astype(float).T.tolist()
    write_csv(out_dir / "latent_scatter.csv",
              ("latent_dim_1", "latent_dim_2", "label", "pruned_flag"),
              zip(x, y, label_col.astype(int).tolist(), pruned.astype(int).tolist()))

    if labels is None:
        logger.warning("no labels stored; emitting a single unlabeled KDE class")
        classes = [(-1, np.ones(latents.shape[0], dtype=bool))]
    else:
        classes = [(int(c), labels == c) for c in (0, 1)]

    curves: list[tuple[int, int, float, float]] = []
    for axis in (0, 1):
        for class_label, mask in classes:
            if not mask.any():
                logger.warning("class %d empty; skipping its KDE", class_label)
                continue
            grid, density = kde_curve(latents[mask, axis])
            curves += ((axis + 1, class_label, x, d)
                       for x, d in zip(grid.tolist(), density.tolist()))
    write_csv(out_dir / "kde_curves.csv", ("axis", "class_label", "x", "density"),
              curves)

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
                       help="processes to run on: the seeds are dealt into "
                       "min(N, seeds) groups, each training its networks in "
                       "one stack and running their heads, one group in this "
                       "process and each other in a worker (default 1)")
    p_run.add_argument("--seed-override", type=partial(_int_at_least, 0),
                       default=None,
                       help="run only this seed instead of the configured list")

    p_plot = sub.add_parser("plotdata", help="export latent scatter/KDE CSVs")
    p_plot.add_argument("--out", default="out", help="run output directory")
    p_plot.add_argument("--network", choices=NETWORKS.values(), default=None,
                        help="plain or reversal network whose latents to "
                        "export (default: the reversal one when stored)")
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
