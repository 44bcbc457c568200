import json
from collections import Counter

import numpy as np
import pytest

from aegrlof import autoencoder, cli, lof

from conftest import make_embedded_blob, write_dataset_csv


@pytest.fixture()
def experiment(tmp_path):
    """Small labeled dataset plus a 2-variant config, ready to prepare."""
    ds = make_embedded_blob(seed=0, n_normal=280, n_anom=20, ambient_dim=8)
    csv_path = tmp_path / "blob.csv"
    write_dataset_csv(csv_path, ds)
    config = {
        "dataset": {"path": str(csv_path), "has_header": True,
                    "schema": {"label": "label"}},
        "split": {"seed": 0},
        "train": {"max_epochs": 8, "learning_rate": 0.05, "gr_start_epoch": 3,
                  "patience": 4},
        "lof": {"min_pts": 10},
        "variants": ["lof_raw", "aegr_lof/prune"],
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config))
    return config_path, tmp_path / "out", config


class TestConfig:
    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cli.load_experiment_config(tmp_path / "none.json")

    def test_missing_dataset_path(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"variants": ["lof_raw"]}))
        with pytest.raises(ValueError, match="dataset.path"):
            cli.load_experiment_config(path)

    def test_empty_seeds_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": {"path": "x.csv"}, "seeds": []}))
        with pytest.raises(ValueError, match="seeds"):
            cli.load_experiment_config(path)

    def test_matrix_shorthand_expands_to_eight_variants(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": {"path": "x.csv"},
                                    "variants": "matrix"}))
        config = cli.load_experiment_config(path)
        assert len(config.variants) == 8

    @pytest.mark.parametrize("change,offender", [
        ({"seedz": [0, 1]}, "seedz"),
        ({"dataset": {"path": "x.csv", "delimiter": ","}}, "delimiter"),
        ({"lof": {"min_ptz": 5}}, "min_ptz"),
        ({"variants": [{"detector": "ae_lof", "modifer": "prune"}]}, "modifer"),
        ({"seeds": [0, 0, 0, 1, 2]}, "duplicate seeds [0]"),
        ({"variants": ["lof_raw", "lof_raw/none", "ae_re"]},
         "duplicate variants ['lof_raw/none']"),
    ], ids=["top_level_key", "dataset_key", "lof_key", "variant_key",
            "duplicate_seeds", "duplicate_variants"])
    def test_invalid_config_fails_before_loading_data(self, experiment, tmp_path,
                                                      capsys, change, offender):
        _, out_dir, config = experiment
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**config, **change}))
        for command in ("prepare", "run"):
            assert cli.main([command, "--config", str(path)]) == 1
            assert offender in capsys.readouterr().err
        assert not out_dir.exists()

    def test_defaults_echoed(self, experiment):
        config_path, _, _ = experiment
        config = cli.load_experiment_config(config_path)
        assert config.resolved["train"]["min_improvement"] == 1e-4
        assert config.resolved["split"]["train_fraction"] == 0.6


class TestPrepare:
    def test_summary_and_cache(self, experiment, capsys):
        config_path, out_dir, _ = experiment
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        captured = capsys.readouterr().out
        assert "train=180 val=60 test=60" in captured
        summary = json.loads((out_dir / "prepare_summary.json").read_text())
        assert summary["encoded_features"] == 8
        assert summary["has_labels"] is True
        assert (out_dir / "dataset_cache.npz").exists()

    def test_idempotent_cache_bytes(self, experiment):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        first = (out_dir / "dataset_cache.npz").read_bytes()
        cli.main(["prepare", "--config", str(config_path)])
        assert (out_dir / "dataset_cache.npz").read_bytes() == first

    def test_missing_dataset_file(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(
            {"dataset": {"path": str(tmp_path / "ghost.csv"),
                         "schema": {"label": "label"}}}
        ))
        assert cli.main(["prepare", "--config", str(config_path)]) == 1
        assert "ghost.csv" in capsys.readouterr().err


class TestRun:
    def test_requires_prepared_cache(self, experiment, capsys):
        config_path, _, _ = experiment
        assert cli.main(["run", "--config", str(config_path)]) == 1
        assert "prepare" in capsys.readouterr().err

    def test_full_run_report(self, experiment):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["run", "--config", str(config_path)]) == 0
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert len(report["rows"]) == 4  # 2 variants x 2 seeds
        for row in report["rows"]:
            assert 0.0 <= row["pr_auc"] <= 1.0
            assert 0.0 <= row["roc_auc"] <= 1.0
        assert report["failures"] == []
        assert (out_dir / "report.md").exists()
        assert (out_dir / "scores_lof_raw_none_0.csv").exists()
        assert (out_dir / "scores_aegr_lof_prune_1.csv").exists()
        assert (out_dir / "latents_aegr_lof_prune_0.npz").exists()
        scores = np.loadtxt(out_dir / "scores_lof_raw_none_0.csv",
                            delimiter=",", skiprows=1)
        assert scores.shape == (60, 2)

    def test_report_block_deterministic(self, experiment, tmp_path):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["run", "--config", str(config_path)])
        first = json.loads((out_dir / "report.json").read_text())["report"]
        cli.main(["run", "--config", str(config_path)])
        second = json.loads((out_dir / "report.json").read_text())["report"]
        assert first == second

    def test_jobs_parallel_matches_serial(self, experiment):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["run", "--config", str(config_path)])
        serial = json.loads((out_dir / "report.json").read_text())["report"]
        cli.main(["run", "--config", str(config_path), "--jobs", "4"])
        parallel = json.loads((out_dir / "report.json").read_text())["report"]
        assert serial == parallel

    def test_seed_override(self, experiment):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["run", "--config", str(config_path), "--seed-override", "9"])
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert sorted({row["seed"] for row in report["rows"]}) == [9]

    def test_failed_variant_recorded_and_exit_nonzero(self, experiment, tmp_path):
        config_path, out_dir, config = experiment
        config["lof"] = {"min_pts": 10_000}  # larger than the reference set
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(config))
        cli.main(["prepare", "--config", str(bad_path)])
        assert cli.main(["run", "--config", str(bad_path)]) == 1
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert report["failures"]
        assert all("min_pts" in f["error"] for f in report["failures"])

    def test_matrix_trains_each_network_once(self, experiment, tmp_path,
                                             monkeypatch):
        _, out_dir, config = experiment
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({**config, "variants": "matrix"}))
        cli.main(["prepare", "--config", str(path)])
        calls = Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(autoencoder, "train",
                            counted("train", autoencoder.train))
        monkeypatch.setattr(lof, "fit", counted("fit", lof.fit))
        assert cli.main(["run", "--config", str(path)]) == 0
        # 2 seeds x (plain + reversal) networks; lof_raw once plus
        # 2 seeds x 6 latent-LOF heads
        assert calls == {"train": 4, "fit": 13}
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert len(report["rows"]) == 16

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failed_network_fails_each_of_its_heads(self, experiment, tmp_path):
        _, out_dir, config = experiment
        config = {**config, "variants": "matrix",
                  "train": {**config["train"], "learning_rate": 1e307}}
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(config))
        cli.main(["prepare", "--config", str(path)])
        assert cli.main(["run", "--config", str(path)]) == 1
        report = json.loads((out_dir / "report.json").read_text())["report"]
        heads = [f"{d}/{m}" for d, m in cli.VARIANT_MATRIX if d != "lof_raw"]
        assert [(f["variant"], f["seed"]) for f in report["failures"]] == sorted(
            (head, seed) for head in heads for seed in (0, 1))
        assert all("training diverged" in f["error"] for f in report["failures"])
        for seed in (0, 1):
            for reversal in (False, True):
                errors = {f["error"] for f in report["failures"] if f["seed"] == seed
                          and f["variant"].startswith("aegr_lof") == reversal}
                assert len(errors) == 1
        assert {(r["detector"], r["seed"]) for r in report["rows"]} == {
            ("lof_raw", 0), ("lof_raw", 1)}

    def test_wilcoxon_needs_five_seeds(self, experiment, tmp_path):
        config_path, out_dir, config = experiment
        config["wilcoxon_pairs"] = [["aegr_lof/prune", "lof_raw/none"]]
        path = tmp_path / "wilcoxon.json"
        path.write_text(json.dumps(config))
        cli.main(["prepare", "--config", str(path)])
        cli.main(["run", "--config", str(path)])
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert "error" in report["wilcoxon"][0]  # only 2 seeds configured


class TestPlotdata:
    def test_missing_latents_errors(self, tmp_path, capsys):
        assert cli.main(["plotdata", "--out", str(tmp_path)]) == 1
        assert "latent" in capsys.readouterr().err

    def test_scatter_and_kde_outputs(self, experiment):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["run", "--config", str(config_path)])
        assert cli.main(["plotdata", "--out", str(out_dir)]) == 0

        scatter = np.loadtxt(out_dir / "latent_scatter.csv", delimiter=",",
                             skiprows=1)
        assert scatter.shape == (180, 4)  # train rows
        assert set(np.unique(scatter[:, 2])) <= {0.0, 1.0}
        assert set(np.unique(scatter[:, 3])) <= {0.0, 1.0}

        curves = np.loadtxt(out_dir / "kde_curves.csv", delimiter=",",
                            skiprows=1)
        for axis in (1, 2):
            for cls in (0, 1):
                sel = curves[(curves[:, 0] == axis) & (curves[:, 1] == cls)]
                if sel.size == 0:
                    continue
                integral = np.trapezoid(sel[:, 3], sel[:, 2])
                assert integral == pytest.approx(1.0, abs=0.01)

    def test_variant_filter(self, experiment):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["run", "--config", str(config_path)])
        assert cli.main(["plotdata", "--out", str(out_dir), "--variant",
                         "aegr_lof/prune", "--seed", "1"]) == 0

    def test_empty_anomaly_class_emits_normal_only(self, tmp_path, caplog):
        from aegrlof.storage import write_npz

        rng = np.random.default_rng(0)
        write_npz(tmp_path / "latents_ae_lof_none_0.npz", {
            "latents": rng.normal(size=(50, 3)),
            "pruned_mask": np.zeros(50, dtype=np.int8),
            "labels": np.zeros(50, dtype=np.int64),
        })
        assert cli.main(["plotdata", "--out", str(tmp_path)]) == 0
        curves = np.loadtxt(tmp_path / "kde_curves.csv", delimiter=",",
                            skiprows=1)
        assert set(np.unique(curves[:, 1])) == {0.0}
        assert any("empty" in r.message for r in caplog.records)

    def test_unlabeled_latents_emit_single_class(self, tmp_path):
        from aegrlof.storage import write_npz

        rng = np.random.default_rng(1)
        write_npz(tmp_path / "latents_ae_lof_none_0.npz", {
            "latents": rng.normal(size=(30, 2)),
            "pruned_mask": np.zeros(30, dtype=np.int8),
        })
        assert cli.main(["plotdata", "--out", str(tmp_path)]) == 0
        curves = np.loadtxt(tmp_path / "kde_curves.csv", delimiter=",",
                            skiprows=1)
        assert set(np.unique(curves[:, 1])) == {-1.0}
        scatter = np.loadtxt(tmp_path / "latent_scatter.csv", delimiter=",",
                             skiprows=1)
        assert set(np.unique(scatter[:, 2])) == {-1.0}
