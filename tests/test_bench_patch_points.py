"""The benchmark's tracer (``perfbench/tracing.py``) wraps library
functions by module and attribute name; a rename would break its traced
run, so every name it patches must resolve here."""

import importlib.util
import sys
from pathlib import Path

from aegrlof import autoencoder, cli, data, lof, metrics, pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patch_point_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    modules = {"cli": cli, "data": data, "autoencoder": autoencoder,
               "lof": lof, "pipeline": pipeline, "metrics": metrics}
    points = tracing.instrumentation_points(modules)
    assert len(points) == 25
    for module, attr, name, _, _ in points:
        assert callable(getattr(module, attr, None)), (
            f"{module.__name__}.{attr}, traced as {name}, does not resolve")
