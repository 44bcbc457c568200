"""The workload generators are deterministic per seed, and the workloads
write the same input on every call."""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

import workloads  # noqa: E402
from aegrlof import cli, data  # noqa: E402


def _small(writer, path, seed):
    writer(path, seed, n_rows=300)
    return path.read_bytes()


@pytest.mark.parametrize("writer", [workloads.write_kdd_csv,
                                    workloads.write_ads_csv])
def test_generators_deterministic_per_seed(tmp_path, writer):
    first = _small(writer, tmp_path / "a.csv", 3)
    assert _small(writer, tmp_path / "b.csv", 3) == first
    assert _small(writer, tmp_path / "c.csv", 4) != first


def test_pendigits_workload_repeats(tmp_path):
    a = workloads.make_workload("pendigits-matrix", tmp_path / "a")
    b = workloads.make_workload("pendigits-matrix", tmp_path / "b")
    assert (a.parent / "data.csv").read_bytes() == (b.parent / "data.csv").read_bytes()


def test_kdd_encodes_to_122_features(tmp_path):
    path = tmp_path / "kdd.csv"
    workloads.write_kdd_csv(path, 0, n_rows=300)
    table = data.load_csv(path, {"protocol_type": "categorical",
                                 "service": "categorical",
                                 "flag": "categorical", "label": "label"})
    encoded = data.one_hot_encode(table)
    assert encoded.n_features == 122
    assert 0 < encoded.labels.sum() < 300


def test_ads_has_1558_features(tmp_path):
    path = tmp_path / "ads.csv"
    workloads.write_ads_csv(path, 0, n_rows=300)
    encoded = data.one_hot_encode(data.load_csv(path, {"label": "label"}))
    assert encoded.n_features == 1558
    assert 0 < encoded.labels.sum() < 300


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_configs_validate(tmp_path, name, monkeypatch):
    # avoid writing the full-size CSV: the config is all that is checked
    monkeypatch.setattr(workloads, "write_pendigits_csv", lambda path: None)
    monkeypatch.setattr(workloads, "write_kdd_csv", lambda path, seed: None)
    monkeypatch.setattr(workloads, "write_ads_csv", lambda path, seed: None)
    config_path = workloads.make_workload(name, tmp_path)
    config = cli.load_experiment_config(config_path)
    raw = json.loads(config_path.read_text())
    expected = workloads.EXPECTED_ROWS[name]
    assert len(config.variants) * len(config.seeds) == expected
    assert Path(raw["dataset"]["path"]).is_absolute()
