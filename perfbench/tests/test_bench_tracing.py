"""Span bookkeeping: self-time arithmetic, thread-pool parenting, the
per-layer reduction, and the instrumentation of a small real CLI run."""

import concurrent.futures
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

import tracing  # noqa: E402
from tracing import (Span, Tracer, layer_metrics, self_times,  # noqa: E402
                     span_cost_s, union_length)


def _span(id, name, start, end, parent=None, thread=1, **attrs):
    return Span(id, name, float(start), float(end), parent, None, thread,
                {k: float(v) for k, v in attrs.items()})


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0
    assert union_length([(3, 3), (4, 2)]) == 0.0


def test_self_time_of_nested_tree():
    spans = [
        _span(0, "cli.main", 0, 10),
        _span(1, "cli.cmd_run", 1, 9, parent=0),
        _span(2, "pipeline.run_variant", 2, 6, parent=1),
        _span(3, "autoencoder.train", 2.5, 4.5, parent=2),
        _span(4, "lof.fit", 4.5, 5.5, parent=2),
        _span(5, "metrics.compute_metrics", 7, 8, parent=1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 3.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.0})
    # self times partition the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_with_two_overlapping_threads():
    # two pool threads run variants concurrently under one cmd_run
    spans = [
        _span(0, "cli.cmd_run", 0, 10),
        _span(1, "pipeline.run_variant", 1, 6, parent=0, thread=2),
        _span(2, "pipeline.run_variant", 4, 8, parent=0, thread=3),
        _span(3, "lof.fit", 2, 3, parent=1, thread=2),
        _span(4, "lof.fit", 5, 7, parent=2, thread=3),
    ]
    own = self_times(spans)
    # covered by children: [1, 8] = 7 s, not 5 + 4 = 9 s
    assert own[0] == pytest.approx(3.0)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(2.0)


def test_child_outside_parent_is_clipped():
    spans = [_span(0, "cli.main", 0, 2), _span(1, "data.load_csv", 1, 5, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_pool_threads_attach_to_the_waiting_span():
    tracer = Tracer()
    with tracer.span("cli.cmd_run") as parent:
        def work(i):
            with tracer.span("pipeline.run_variant", run=f"v/{i}"):
                with tracer.span("lof.fit"):
                    return threading.get_ident()

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    variants = [s for s in tracer.spans if s.name == "pipeline.run_variant"]
    fits = [s for s in tracer.spans if s.name == "lof.fit"]
    assert len(variants) == 4 and len(fits) == 4
    assert all(s.parent == parent.id for s in variants)
    by_id = {s.id: s for s in variants}
    assert all(by_id[f.parent].run == f.run for f in fits)
    assert {s.run for s in variants} == {f"v/{i}" for i in range(4)}


def test_layer_metrics_ratios():
    prepare = [
        _span(0, "cli.main", 0, 4),
        _span(1, "data.load_csv", 0, 2, parent=0, rows=1000),
        _span(2, "data.prepare", 2, 3, parent=0),
        _span(3, "data.one_hot_encode", 2, 2.5, parent=2),
    ]
    run = [
        _span(0, "cli.main", 0, 10),
        _span(1, "cli.cmd_run", 0.5, 10, parent=0),
        _span(2, "pipeline.run_variant", 1, 8, parent=1),
        _span(3, "autoencoder.train", 1, 5, parent=2, epochs=4, batches=400),
        _span(4, "lof.fit", 5, 6, parent=2, rows=100, pairs=10000),
        _span(5, "lof.score", 6, 7, parent=2, queries=50, pairs=5000),
        _span(6, "storage.write_scores_csv", 8, 9, parent=1, bytes=300),
    ]
    run_j2 = [
        _span(0, "cli.cmd_run", 0, 4),
        _span(1, "pipeline.run_variant", 0, 3, parent=0, thread=2),
        _span(2, "pipeline.run_variant", 0, 3, parent=0, thread=3),
    ]
    metrics = layer_metrics(prepare, run, run_j2, 77, 10.5, 2e-6)
    m = {name: value for name, (value, _) in metrics.items()}
    assert m["data.rows_per_s"] == pytest.approx(1000 / 3.0)
    assert m["autoencoder.step_us"] == pytest.approx(4.0 / 400 * 1e6)
    assert m["lof.fit_ns_per_pair"] == pytest.approx(1.0 / 10000 * 1e9)
    assert m["lof.score_ns_per_pair"] == pytest.approx(1.0 / 5000 * 1e9)
    assert m["pipeline.self_s"] == pytest.approx(1.0)
    assert m["pipeline.reference_rows"] == 77
    assert m["storage.bytes_written"] == 300
    assert m["cli.self_s"] == pytest.approx(0.5 + 1.5)
    assert m["cli.parallel_efficiency"] == pytest.approx(6.0 / 8.0)
    assert m["trace.overhead_s"] == pytest.approx(7 * 2e-6)
    assert m["trace.accounted_share"] == pytest.approx(10.0 / 10.5)


def test_layer_metrics_without_work_are_finite():
    metrics = layer_metrics([], [], [], 0, 1.0, 1e-6)
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_span_cost_is_small_and_positive():
    assert 0.0 < span_cost_s(calls=2000, repeats=3) < 1e-3


def test_instrumented_cli_run_counts_calls(tmp_path):
    from aegrlof import autoencoder, cli, data, lof, metrics, pipeline

    rng = np.random.default_rng(0)
    x = rng.normal(size=(150, 4))
    labels = (rng.random(150) < 0.1).astype(int)
    labels[:2] = 1
    with open(tmp_path / "d.csv", "w") as fh:
        fh.write("a,b,c,d,label\n")
        for row, y in zip(x, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{y}\n")
    config = {
        "dataset": {"path": str(tmp_path / "d.csv"), "has_header": True,
                    "schema": {"label": "label"}},
        "train": {"max_epochs": 2},
        "lof": {"min_pts": 5},
        "variants": ["lof_raw/none", "aegr_lof/prune"],
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    (tmp_path / "exp.json").write_text(json.dumps(config))
    modules = {"cli": cli, "data": data, "autoencoder": autoencoder, "lof": lof,
               "pipeline": pipeline, "metrics": metrics}
    before = {id(getattr(m, a)) for m, a, *_ in tracing.instrumentation_points(modules)}

    tracer = Tracer()
    assert tracing.traced_main(["prepare", "--config", str(tmp_path / "exp.json")],
                               tracer) == 0
    names = [s.name for s in tracer.spans]
    assert names.count("data.load_csv") == 1 and names.count("data.split") == 1

    tracer = Tracer()
    assert tracing.traced_main(["run", "--config", str(tmp_path / "exp.json")],
                               tracer) == 0
    names = [s.name for s in tracer.spans]
    assert names.count("pipeline.run_variant") == 2
    assert names.count("autoencoder.train") == 1
    assert names.count("lof.fit") == 2 and names.count("lof.score") == 2
    assert names.count("pipeline.prune") == 1
    assert names.count("metrics.compute_metrics") == 2
    train = next(s for s in tracer.spans if s.name == "autoencoder.train")
    assert train.run == "aegr_lof/prune/0" and train.attrs["epochs"] == 2
    own = self_times(tracer.spans)
    root = next(s for s in tracer.spans if s.name == "cli.main")
    assert sum(own.values()) == pytest.approx(root.duration)
    # every patched attribute is restored
    after = {id(getattr(m, a)) for m, a, *_ in tracing.instrumentation_points(modules)}
    assert after == before
