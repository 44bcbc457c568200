"""The benchmark's tracer (``perfbench/tracing.py``) wraps library
functions by module and attribute name; a rename would break its traced
run, so every name it patches must resolve here, and a traced `prepare`
and `run` must still complete."""

import importlib.util
import sys
from pathlib import Path

from aegrlof import autoencoder, cli, data, lof, metrics, pipeline

from conftest import write_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_patch_point_resolves_to_a_callable(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    modules = {"cli": cli, "data": data, "autoencoder": autoencoder,
               "lof": lof, "pipeline": pipeline, "metrics": metrics}
    points = tracing.instrumentation_points(modules)
    assert len(points) == 25
    for module, attr, name, _, _ in points:
        assert callable(getattr(module, attr, None)), (
            f"{module.__name__}.{attr}, traced as {name}, does not resolve")


def test_traced_prepare_and_run_complete(monkeypatch, tmp_path):
    # the wrappers pass every argument and return value through, so a
    # signature change in src/ shows here as a failed traced run
    tracing = _load_tracing(monkeypatch)
    config_path = str(write_experiment(tmp_path)[0])
    names = []
    for argv in (["prepare", "--config", config_path],
                 ["run", "--config", config_path, "--jobs", "2"]):
        tracer = tracing.Tracer()
        assert tracing.traced_main(argv, tracer) == 0
        names += [span.name for span in tracer.spans]
    for name in ("data.save_cache", "data.load_cache", "lof.fit", "lof.score"):
        assert name in names
