"""Span tracer for the aegrlof CLI, built from the benchmark's own code.

The traced run wraps module attributes at each layer boundary (the
functions ``cli`` calls into ``data``, ``pipeline``, ``metrics`` and
``storage``, and the ones ``pipeline`` calls into ``autoencoder`` and
``lof``), records one span per call and keeps the spans in memory until
the run ends. Nothing inside the package is changed.

Run as a script it executes one CLI command under the tracer and writes
the spans as JSON:

    python perfbench/tracing.py --spans spans.json -- run --config X --jobs 2
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One traced call: ``name`` is ``<layer>.<function>``; ``run`` is the
    ``variant/seed`` the call belongs to, inherited from the parent span."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str | None
    thread: int
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread.

    Each thread keeps its own stack of open spans. A span opened on a
    thread with an empty stack (a worker of the ``--jobs`` thread pool)
    takes as parent the innermost span open on the thread that created the
    tracer, which is blocked waiting for the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = self._stack()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, run: str | None = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, time.perf_counter(), math.nan,
                    parent.id if parent else None,
                    run if run is not None else (parent.run if parent else None),
                    threading.get_ident())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = -math.inf
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if start > cur_end:
            total += max(0.0, cur_end - cur_start)
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + max(0.0, cur_end - cur_start)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children running concurrently on several threads are merged as a union
    of intervals, so two overlapping children are not subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = union_length([
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        ])
        out[span.id] = span.duration - covered
    return out


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**s) for s in json.load(fh)]


def _total(spans: list[Span], *names: str, attr: str | None = None) -> float:
    return sum((s.attrs.get(attr, 0.0) if attr else s.duration)
               for s in spans if s.name in names)


def _count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    # 0 when the layer did no work, so the result stays valid JSON
    return scale * num / den if den else 0.0


def layer_metrics(prepare: list[Span], run: list[Span], run_j2: list[Span],
                  reference_rows: int, traced_run_s: float,
                  span_cost_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    ``prepare`` holds the spans of a traced ``prepare``; ``run`` those of a
    traced ``run --jobs 1`` and ``run_j2`` of ``run --jobs 2``.
    ``reference_rows`` is the report's sum of LOF reference rows and
    ``span_cost_s`` the tracer's cost per call (see ``span_cost_s``). The
    ``*_s`` of a leaf call is its total duration; ``self_s`` is duration
    minus traced children.
    """
    own_prepare, own = self_times(prepare), self_times(run)
    data_self = sum(own_prepare[s.id] for s in prepare if s.layer == "data")
    train_s = _total(run, "autoencoder.train")
    batches = _total(run, "autoencoder.train", attr="batches")
    fit_s, score_s = _total(run, "lof.fit"), _total(run, "lof.score")
    j2_cmd = [s for s in run_j2 if s.name == "cli.cmd_run"]
    storage = {s.name for s in run if s.layer == "storage"}
    out = {
        "data.load_csv_s": (_total(prepare, "data.load_csv"), "s"),
        "data.one_hot_encode_s": (_total(prepare, "data.one_hot_encode"), "s"),
        "data.split_s": (_total(prepare, "data.split", "data.subsample"), "s"),
        "data.normalize_s": (_total(prepare, "data.normalize_fit",
                                    "data.normalize_apply"), "s"),
        "data.save_cache_s": (_total(prepare, "data.save_cache"), "s"),
        "data.load_cache_s": (_total(run, "data.load_cache"), "s"),
        "data.rows_per_s": (_ratio(_total(prepare, "data.load_csv", attr="rows"),
                                   data_self), "1/s"),
        "autoencoder.train_calls": (_count(run, "autoencoder.train"), "count"),
        "autoencoder.epochs": (_total(run, "autoencoder.train", attr="epochs"),
                               "count"),
        "autoencoder.batches": (batches, "count"),
        "autoencoder.train_s": (train_s, "s"),
        "autoencoder.step_us": (_ratio(train_s, batches, 1e6), "us"),
        "autoencoder.encode_s": (_total(run, "autoencoder.encode"), "s"),
        "autoencoder.reconstruction_error_s": (
            _total(run, "autoencoder.reconstruction_error"), "s"),
        "lof.fit_calls": (_count(run, "lof.fit"), "count"),
        "lof.fit_rows": (_total(run, "lof.fit", attr="rows"), "count"),
        "lof.score_calls": (_count(run, "lof.score"), "count"),
        "lof.score_queries": (_total(run, "lof.score", attr="queries"), "count"),
        "lof.fit_s": (fit_s, "s"),
        "lof.score_s": (score_s, "s"),
        "lof.fit_ns_per_pair": (
            _ratio(fit_s, _total(run, "lof.fit", attr="pairs"), 1e9), "ns"),
        "lof.score_ns_per_pair": (
            _ratio(score_s, _total(run, "lof.score", attr="pairs"), 1e9), "ns"),
        "pipeline.run_variant_calls": (_count(run, "pipeline.run_variant"),
                                       "count"),
        "pipeline.reference_rows": (reference_rows, "count"),
        "pipeline.prune_s": (_total(run, "pipeline.prune"), "s"),
        "pipeline.augment_s": (_total(run, "pipeline.augment"), "s"),
        "pipeline.self_s": (sum(own[s.id] for s in run
                                if s.name == "pipeline.run_variant"), "s"),
        "metrics.compute_metrics_s": (_total(run, "metrics.compute_metrics"), "s"),
        "metrics.wilcoxon_s": (_total(run, "metrics.wilcoxon"), "s"),
        "storage.write_s": (_total(run, *storage), "s"),
        "storage.bytes_written": (_total(run, *storage, attr="bytes"), "B"),
        "cli.self_s": (sum(own[s.id] for s in run if s.layer == "cli"), "s"),
        "cli.parallel_efficiency": (
            _ratio(_total(run_j2, "pipeline.run_variant"),
                   2 * sum(s.duration for s in j2_cmd)), "ratio"),
        "trace.overhead_s": (span_cost_s * len(run), "s"),
        "trace.accounted_share": (
            _ratio(sum(own[s.id] for s in run), traced_run_s), "ratio"),
    }
    return {name: (float(value), unit) for name, (value, unit) in out.items()}


# ---------------------------------------------------------------------------
# instrumentation of the package


def _wrap(tracer: Tracer, name: str, func: Callable,
          annotate: Callable[[Span, tuple, dict, Any], None] | None = None,
          run_of: Callable[[tuple, dict], str] | None = None) -> Callable:
    def wrapper(*args, **kwargs):
        run = run_of(args, kwargs) if run_of else None
        with tracer.span(name, run) as span:
            result = func(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

    return wrapper


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """What tracing adds to one call: the median, over ``repeats`` loops of
    ``calls`` calls, of a no-op wrapped by ``_wrap`` less the bare no-op."""
    def noop() -> None:
        return None

    tracer = Tracer()
    wrapped = _wrap(tracer, "trace.noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _file_size(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["bytes"] = os.path.getsize(args[0])


def _text_size(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["bytes"] = len(args[1].encode("utf-8"))


def _table_rows(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["rows"] = len(result.rows)


def _train_work(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # train(net, train_data, val_data, cfg) -> (net, history)
    train_data, cfg = args[1], args[3]
    epochs = len(result[1])
    span.attrs["epochs"] = epochs
    span.attrs["batches"] = epochs * -(-train_data.n_rows // cfg.batch_size)


def _fit_work(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["rows"] = result.n_reference
    span.attrs["pairs"] = result.n_reference ** 2


def _score_work(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    model, queries = args[0], args[1]
    n_queries = 1 if queries.ndim == 1 else queries.shape[0]
    span.attrs["queries"] = n_queries
    span.attrs["pairs"] = n_queries * model.n_reference


def _variant_run(args: tuple, kwargs: dict) -> str:
    spec = args[0]
    return f"{spec.key}/{spec.seed}"


def instrumentation_points(modules: dict[str, Any]) -> list[tuple]:
    """(module, attribute, span name, annotate, run_of) for every boundary.

    Attributes are patched where they are looked up: ``cli`` imported its
    ``data``, ``pipeline`` and ``storage`` functions by name, so those are
    patched on ``cli``; ``data.prepare`` and ``pipeline.run_variant`` call
    their helpers as module globals; ``pipeline`` reaches ``autoencoder``,
    ``lof`` and ``cli`` reaches ``metrics`` through the module objects.
    """
    cli, data, ae, lof, pipeline, metrics = (
        modules[k] for k in ("cli", "data", "autoencoder", "lof", "pipeline",
                             "metrics"))
    return [
        (cli, "cmd_prepare", "cli.cmd_prepare", None, None),
        (cli, "cmd_run", "cli.cmd_run", None, None),
        (cli, "load_csv", "data.load_csv", _table_rows, None),
        (cli, "prepare", "data.prepare", None, None),
        (data, "one_hot_encode", "data.one_hot_encode", None, None),
        (data, "split", "data.split", None, None),
        (data, "subsample", "data.subsample", None, None),
        (data, "normalize_fit", "data.normalize_fit", None, None),
        (data, "normalize_apply", "data.normalize_apply", None, None),
        (cli, "save_cache", "data.save_cache", None, None),
        (cli, "load_cache", "data.load_cache", None, None),
        (cli, "run_variant", "pipeline.run_variant", None, _variant_run),
        (pipeline, "prune", "pipeline.prune", None, None),
        (pipeline, "augment", "pipeline.augment", None, None),
        (ae, "train", "autoencoder.train", _train_work, None),
        (ae, "encode", "autoencoder.encode", None, None),
        (ae, "reconstruction_error", "autoencoder.reconstruction_error",
         None, None),
        (lof, "fit", "lof.fit", _fit_work, None),
        (lof, "score", "lof.score", _score_work, None),
        (metrics, "compute_metrics", "metrics.compute_metrics", None, None),
        (metrics, "wilcoxon_signed_rank", "metrics.wilcoxon", None, None),
        (cli, "write_scores_csv", "storage.write_scores_csv", _file_size, None),
        (cli, "write_npz", "storage.write_npz", _file_size, None),
        (cli, "atomic_write_text", "storage.atomic_write_text", _text_size, None),
        (cli, "file_sha256", "storage.file_sha256", None, None),
    ]


@contextmanager
def instrumented(tracer: Tracer, modules: dict[str, Any]) -> Iterator[None]:
    """Patch every boundary for the duration of the block, then restore."""
    originals = []
    try:
        for module, attr, name, annotate, run_of in instrumentation_points(modules):
            func = getattr(module, attr)
            originals.append((module, attr, func))
            setattr(module, attr, _wrap(tracer, name, func, annotate, run_of))
        yield
    finally:
        for module, attr, func in reversed(originals):
            setattr(module, attr, func)


def traced_main(argv: list[str], tracer: Tracer) -> int:
    """Run ``aegrlof.cli.main(argv)`` under the tracer.

    The root span ``cli.main`` also covers importing the package, which a
    user pays on every invocation.
    """
    with tracer.span("cli.main"):
        from aegrlof import autoencoder, cli, data, lof, metrics, pipeline

        modules = {"cli": cli, "data": data, "autoencoder": autoencoder,
                   "lof": lof, "pipeline": pipeline, "metrics": metrics}
        with instrumented(tracer, modules):
            return cli.main(argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span JSON to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for aegrlof.cli after --")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    code = traced_main(cli_args, tracer)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump([asdict(s) for s in sorted(tracer.spans, key=lambda s: s.id)], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
