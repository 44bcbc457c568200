import concurrent.futures
import json
import logging
import math
import multiprocessing
import os
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from aegrlof import autoencoder, cli, data, lof, pipeline, plots
from aegrlof.storage import write_npz

from conftest import make_embedded_blob, write_dataset_csv, write_experiment


@pytest.fixture()
def experiment(tmp_path):
    return write_experiment(tmp_path)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_config() -> dict:
    """The README's example `experiment.json`."""
    readme = README.read_text(encoding="utf-8")
    return json.loads(readme.split("`experiment.json`:\n\n```json\n", 1)[1]
                      .split("```", 1)[0])


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
        ({"variants": [{"modifier": "prune"}]}, "config needs variant detector"),
        ({"seeds": 3}, "seeds must be a list"),
        ({"wilcoxon_pairs": [["lof_raw"]]}, "wilcoxon pair ['lof_raw']"),
        ({"wilcoxon_pairs": [["aegr_lof/prune", "ae_lof/none"]]},
         "wilcoxon pair ['aegr_lof/prune', 'ae_lof/none']"),
        ({"wilcoxon_pairs": [["lof_raw/none", "lof_raw/none"]]},
         "must name two distinct configured variants"),
        ({"wilcoxon_pairs": 3}, "wilcoxon_pairs must be a list"),
        ({"split": {"train_fraction": "0.6"}},
         "split.train_fraction must be a number, got '0.6'"),
        ({"train": {"max_epochs": "5"}}, "train.max_epochs must be an integer"),
        ({"train": {"patience": True}}, "train.patience must be an integer"),
        ({"train": {"learning_rate": None}}, "train.learning_rate must be a number"),
        ({"train": {"max_epochs": 0}}, "max_epochs must be >= 1"),
        ({"lof": {"min_pts": 2.7}}, "lof.min_pts must be an integer, got 2.7"),
        ({"lof": {"min_pts": 0}}, "lof.min_pts must be >= 1, got 0"),
        ({"split": [0.6]}, "split must be an object"),
        ({"train": {"min_improvement": float("nan")}},
         "train.min_improvement must be finite, got nan"),
        ({"split": {"train_fraction": float("nan")}},
         "split.train_fraction must be finite, got nan"),
        ({"train": {"learning_rate": float("inf")}},
         "train.learning_rate must be finite, got inf"),
        ({"seeds": [2.7, True]}, "seeds[0] must be an integer, got 2.7"),
        ({"seeds": [0, True]}, "seeds[1] must be an integer, got True"),
        ({"variants": [{"detector": "ae_lof", "aug_factor": True}]},
         "variant aug_factor must be a number, got True"),
        ({"variants": [{"detector": "ae_lof", "aug_sigma": float("nan")}]},
         "variant aug_sigma must be finite, got nan"),
        ({"dataset": {"path": "x.csv", "schema": []}},
         "dataset.schema must be an object"),
        ({"dataset": {"path": "x.csv", "schema": {"proto": "text"}}},
         "dataset.schema: column 'proto': unknown kind 'text', expected one of "
         "['numeric', 'categorical', 'label']"),
        ({"dataset": {"path": 5}}, "dataset.path must be a string, got 5"),
        ({"output_dir": 7}, "output_dir must be a string, got 7"),
        ({"dataset": {"path": "x.csv", "has_header": "no"}},
         "dataset.has_header must be true, false or null, got 'no'"),
        ({"variants": 5}, 'variants must be "matrix" or a list, got 5'),
        ({"dataset": {"path": "x.csv", "schema": {"label": "label",
                                                  "f0": "label"}}},
         "dataset.schema: at most one label column allowed, got 2"),
        ({"seeds": [0, -1]}, "seeds[1] must be >= 0, got -1"),
        ({"split": {"seed": -2}}, "split seed must be >= 0, got -2"),
        ({"variants": [{"detector": "aegr_lof", "modifier": "prune",
                        "aug_factor": 5}]},
         "variant aegr_lof/prune sets ['aug_factor'], which only a prune_da "
         "variant reads"),
        ({"variants": [5]}, "bad.json: cannot parse variant entry 5"),
        ({"variants": ["lof_rawx"]}, "bad.json: unknown detector 'lof_rawx'"),
        ({"train": {"min_improvement": -1.0}},
         "min_improvement must be >= 0, got -1.0"),
        ({"variants": []}, "at least one variant required"),
        ({"train": {"batch_size": 0}}, "batch_size must be >= 1, got 0"),
        ({"train": {"gr_start_epoch": -1}}, "gr_start_epoch must be >= 0, got -1"),
        ({"variants": [{"detector": ["ae_lof"]}]},
         "variant detector must be a string, got ['ae_lof']"),
        ({"dataset": {"path": "x.csv", "has_header": False,
                      "schema": {"²": "label"}}},
         "dataset.schema key '²' is not a column index"),
        ({"dataset": {"path": "x.csv", "has_header": False,
                      "schema": {"label": "label"}}},
         "dataset.schema key 'label' is not a column index"),
    ], ids=["top_level_key", "dataset_key", "lof_key", "variant_key",
            "duplicate_seeds", "duplicate_variants", "variant_without_detector",
            "seeds_not_list", "wilcoxon_pair_of_one", "wilcoxon_unconfigured",
            "wilcoxon_same_twice", "wilcoxon_not_list", "split_string", "train_string", "train_bool",
            "train_null", "train_out_of_range", "lof_float", "lof_zero",
            "split_not_object",
            "train_nan", "split_nan", "train_infinity", "seed_float",
            "seed_bool", "aug_factor_bool", "aug_sigma_nan", "schema_list",
            "schema_unknown_kind", "path_number", "output_dir_number",
            "has_header_string", "variants_number", "two_labels",
            "seed_negative", "split_seed_negative", "aug_without_prune_da",
            "variant_number", "variant_unknown_detector",
            "train_negative_min_improvement", "variants_empty",
            "batch_size_zero", "gr_start_epoch_negative", "detector_list",
            "headerless_superscript_key", "headerless_name_key"])
    def test_invalid_config_fails_before_loading_data(self, experiment, tmp_path,
                                                      capsys, change, offender):
        _, out_dir, config = experiment
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**config, **change}))
        for command in ("prepare", "run"):
            assert cli.main([command, "--config", str(path)]) == 1
            assert offender in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("content,offender", [
        (b'{"dataset": {"path": "x.csv"},\n', "Expecting property name"),
        (b'{"output_dir": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["truncated", "not_utf8"])
    def test_unparsable_config_names_the_file(self, tmp_path, capsys, content,
                                              offender):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert cli.main(["prepare", "--config", str(path)]) == 1
        assert f"error: {path}: {offender}" in capsys.readouterr().err

    def test_config_may_start_with_a_byte_order_mark(self, experiment, tmp_path):
        # editors on Windows save JSON with a UTF-8 byte-order mark
        config_path, _, _ = experiment
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + config_path.read_bytes())
        assert (cli.load_experiment_config(path).resolved
                == cli.load_experiment_config(config_path).resolved)

    def test_directory_in_place_of_a_file_fails_without_traceback(
            self, experiment, tmp_path, capsys):
        _, _, config = experiment
        assert cli.main(["prepare", "--config", str(tmp_path)]) == 1
        assert "error: " in capsys.readouterr().err
        path = tmp_path / "dir.json"
        path.write_text(json.dumps({**config, "dataset": {"path": str(tmp_path)}}))
        assert cli.main(["prepare", "--config", str(path)]) == 1
        assert "error: " in capsys.readouterr().err

    def test_readme_example_names_every_key(self, tmp_path):
        raw = _readme_config()
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(raw))
        cli.load_experiment_config(path)
        assert raw.keys() == cli.CONFIG_TABLE.keys()
        for section, table in cli.SECTION_TABLES.items():
            assert raw[section].keys() == table.keys(), section
        # the config notes list a variant object's keys
        notes = README.read_text(encoding="utf-8").split(
            "A variant\n  object's keys are ", 1)[1].split("`.\n", 1)[0]
        assert re.findall(r'"(\w+)": \.\.\.', notes) == list(cli.VARIANT_TABLE)

    @pytest.mark.parametrize("source", ["readme", "experiment"])
    def test_resolved_config_loads_to_itself(self, experiment, tmp_path, source):
        raw = _readme_config() if source == "readme" else experiment[2]
        path = tmp_path / "first.json"
        path.write_text(json.dumps(raw))
        first = cli.load_experiment_config(path)
        path = tmp_path / "again.json"
        path.write_text(json.dumps({**first.resolved,
                                    "output_dir": first.output_dir}))
        again = cli.load_experiment_config(path)
        assert again.resolved == first.resolved
        assert (again.split, again.train) == (first.split, first.train)

    def test_non_object_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert cli.main(["prepare", "--config", str(path)]) == 1
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_defaults_echoed(self, experiment):
        config_path, _, _ = experiment
        config = cli.load_experiment_config(config_path)
        assert config.resolved["train"]["min_improvement"] == 1e-4
        assert config.resolved["split"]["train_fraction"] == 0.6

    def test_numeric_types_accepted(self, experiment, tmp_path):
        # integers are numbers, and null stays allowed where it is the default
        _, _, config = experiment
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            **config,
            "split": {"train_fraction": 1, "val_fraction": 0, "test_fraction": 0,
                      "subsample_fraction": None},
            "train": {"learning_rate": 1, "batch_size": None},
        }))
        config = cli.load_experiment_config(path)
        assert config.split.train_fraction == 1
        assert config.train.learning_rate == 1
        assert config.resolved["train"]["batch_size"] is None


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

    def test_cache_digest_comes_from_the_bytes_written(self, experiment,
                                                       monkeypatch):
        # prepare hashes the CSV and takes the cache's digest from the
        # bytes it wrote, without reading the cache back
        config_path, out_dir, config = experiment
        hashed = []

        def counting_sha256(path):
            hashed.append(Path(path))
            return file_sha256(path)

        file_sha256 = cli.file_sha256
        monkeypatch.setattr(cli, "file_sha256", counting_sha256)
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        assert hashed == [Path(config["dataset"]["path"])]
        summary = json.loads((out_dir / "prepare_summary.json").read_text())
        assert summary["cache_sha256"] == file_sha256(out_dir / cli.CACHE_FILENAME)

    def test_summary_times_each_stage(self, experiment, caplog):
        config_path, out_dir, _ = experiment
        with caplog.at_level(logging.INFO, logger="aegrlof.cli"):
            assert cli.main(["prepare", "--config", str(config_path)]) == 0
        summary = json.loads((out_dir / "prepare_summary.json").read_text())
        stage_s = summary["stage_s"]
        assert set(stage_s) == {"load_csv", "encode", "split", "normalize", "write"}
        assert all(seconds >= 0.0 for seconds in stage_s.values())
        assert any(record.getMessage().startswith("prepare stages: load_csv ")
                   for record in caplog.records)

    @pytest.mark.parametrize("cell,parser", [("1000", "numpy"), ("1_000", "csv")])
    def test_summary_names_the_csv_parser(self, tmp_path, caplog, cell, parser):
        # float() reads 1_000, numpy's loadtxt does not
        csv_path = tmp_path / "flows.csv"
        csv_path.write_text("bytes,label\n" + f"{cell},0\n" * 9 + "7,1\n")
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(
            {"dataset": {"path": str(csv_path), "schema": {"label": "label"}},
             "output_dir": str(tmp_path / "out")}))
        with caplog.at_level(logging.INFO, logger="aegrlof.cli"):
            assert cli.main(["prepare", "--config", str(config_path)]) == 0
        summary = json.loads((tmp_path / "out" / "prepare_summary.json").read_text())
        assert summary["csv_parser"] == parser
        [line] = [record.getMessage() for record in caplog.records
                  if record.getMessage().startswith("prepare stages: ")]
        assert line.endswith(f"; csv parser {parser}")
        cache = tmp_path / "out" / cli.CACHE_FILENAME
        norm = data.load_cache(cache, {}, csv_path).norm
        assert norm.maximum.tolist() == [1000.0]

    def test_feature_name_the_cache_cannot_hold_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "nul.csv"
        csv_path.write_text("c,v,label\n" + "x,1,0\nx\x00,2,1\n" * 10)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(
            {"dataset": {"path": str(csv_path), "has_header": True,
                         "schema": {"c": "categorical", "label": "label"}},
             "output_dir": str(tmp_path / "out")}
        ))
        assert cli.main(["prepare", "--config", str(config_path)]) == 1
        assert ("error: feature name 'c=x\\x00' cannot be stored in the dataset "
                "cache" in capsys.readouterr().err)
        assert not (tmp_path / "out" / cli.CACHE_FILENAME).exists()

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

    @pytest.mark.parametrize("damage", ["truncated", "text", "no_version"])
    def test_damaged_cache_is_an_input_error(self, experiment, capsys, damage):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        cache = out_dir / cli.CACHE_FILENAME
        if damage == "truncated":
            cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2])
        elif damage == "text":
            cache.write_text("train,val,test\n1,2,3\n")
        else:
            with np.load(cache) as npz:
                arrays = {name: npz[name] for name in npz.files
                          if name != "cache_version"}
            write_npz(cache, arrays)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if line.startswith("error:")]
        assert line.startswith(f"error: {cache}: damaged dataset cache (")
        assert line.endswith("); run `prepare` again")
        assert "Traceback" not in err
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("section,change,keys", [
        ("split", {"seed": 7}, ["split.seed"]),
        ("split", {"subsample_fraction": 0.5}, ["split.subsample_fraction"]),
        ("split", {"train_fraction": 0.5, "val_fraction": 0.3},
         ["split.train_fraction", "split.val_fraction"]),
        ("split", {"val_fraction": 0.1, "test_fraction": 0.3},
         ["split.val_fraction", "split.test_fraction"]),
        ("dataset", {"has_header": None}, ["dataset.has_header"]),
        ("dataset", {"schema": {"label": "label", "f0": "numeric"}},
         ["dataset.schema"]),
        ("dataset", {"path": "copy"}, ["dataset.path"]),
    ], ids=["seed", "subsample_fraction", "train_fraction", "test_fraction",
            "has_header", "schema", "path"])
    def test_cache_prepared_with_other_settings_is_refused(
            self, experiment, tmp_path, capsys, section, change, keys):
        config_path, out_dir, config = experiment
        cli.main(["prepare", "--config", str(config_path)])
        if change.get("path") == "copy":
            copy = tmp_path / "copy.csv"
            copy.write_bytes(Path(config["dataset"]["path"]).read_bytes())
            change = {"path": str(copy)}
        config[section] = {**config[section], **change}
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config_path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        cache = out_dir / cli.CACHE_FILENAME
        assert line.startswith(f"error: {cache} was prepared with other settings (")
        assert line.endswith("); run `prepare` again")
        assert re.findall(r"(\w+\.\w+): cache ", line) == keys
        assert not (out_dir / "report.json").exists()

    def test_cache_of_a_changed_csv_is_refused(self, experiment, capsys):
        config_path, out_dir, config = experiment
        cli.main(["prepare", "--config", str(config_path)])
        csv_path = Path(config["dataset"]["path"])
        csv_path.write_text(csv_path.read_text() + "0,0,0,0,0,0,0,0,1\n")
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {csv_path} changed after `prepare` wrote "
            f"{out_dir / cli.CACHE_FILENAME}; run `prepare` again\n")
        assert not (out_dir / "report.json").exists()

    def test_report_names_the_digest_of_the_cache_it_loaded(self, experiment,
                                                             monkeypatch):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        cache = out_dir / cli.CACHE_FILENAME
        loaded = cli.file_sha256(cache)

        def rewrite_cache_then_train(*args, **kwargs):
            # as a concurrent `prepare` into the same directory would
            cache.write_bytes(cache.read_bytes() + b"\0")
            return train_networks(*args, **kwargs)

        train_networks = cli.train_networks
        monkeypatch.setattr(cli, "train_networks", rewrite_cache_then_train)
        assert cli.main(["run", "--config", str(config_path)]) == 0
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert report["dataset_sha256"] == loaded != cli.file_sha256(cache)
        assert f"Dataset sha256: `{loaded}`" in (out_dir / "report.md").read_text()

    def test_cache_whose_csv_is_gone_is_used(self, experiment):
        config_path, out_dir, config = experiment
        cli.main(["prepare", "--config", str(config_path)])
        Path(config["dataset"]["path"]).unlink()
        assert cli.main(["run", "--config", str(config_path)]) == 0

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
        assert (out_dir / "latents_aegr_0.npz").exists()
        scores = np.loadtxt(out_dir / "scores_lof_raw_none_0.csv",
                            delimiter=",", skiprows=1)
        assert scores.shape == (60, 2)

    def test_writes_network_histories_and_stage_times(self, experiment):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["run", "--config", str(config_path)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        # aegr_lof/prune is the only network head: one reversal network a seed
        assert sorted(path.name for path in out_dir.glob("history_*")) == [
            "history_aegr_0.csv", "history_aegr_1.csv"]
        rows = {row["seed"]: row["metadata"] for row in report["report"]["rows"]
                if row["detector"] == "aegr_lof"}
        for seed in (0, 1):
            lines = (out_dir / f"history_aegr_{seed}.csv").read_text().splitlines()
            assert lines[0].endswith(",reversal_applied,reversed_batch")
            epochs = [line.split(",") for line in lines[1:]]
            assert len(epochs) == rows[seed]["epochs_run"]
            # reversal starts after epoch 3; 180 rows make 12 batches of 16
            for epoch, *_, applied, batch in epochs:
                if int(epoch) <= 3:
                    assert (applied, batch) == ("0", "-1")
                else:
                    assert applied == "1" and 0 <= int(batch) < 12
        stage_s = report["environment"]["stage_s"]
        assert set(stage_s) == {"load", "lof_raw", "train", "write", "head",
                                "report"}
        assert all(seconds > 0 for seconds in stage_s.values())

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

        def run_files():
            return [path for path in sorted(out_dir.iterdir())
                    if path.name in ("report.json", "report.md")
                    or path.name.startswith(("scores_", "latents_", "history_"))]

        def run_outputs(*flags):
            # delete the previous run's files so each run must write its own
            for path in run_files():
                path.unlink()
            assert cli.main(["run", "--config", str(config_path), *flags]) == 0
            outputs = {path.name: path.read_bytes() for path in run_files()}
            # report.json also holds the run's timings; compare its report
            # block as the CLI serializes it
            report = json.loads(outputs.pop("report.json"))["report"]
            outputs["report"] = json.dumps(report, indent=2, sort_keys=True)
            return outputs

        serial = run_outputs()
        assert {"report.md", "scores_aegr_lof_prune_1.csv",
                "latents_aegr_1.npz",
                "history_aegr_1.csv"} <= serial.keys()
        # at 2 and 3 jobs each seed trains and runs its heads in its own
        # process, in another order than the serial run's
        for jobs in ("2", "3"):
            assert run_outputs("--jobs", jobs) == serial

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_jobs_write_the_same_files_by_either_start_method(
            self, experiment, tmp_path, monkeypatch, start_method):
        _, out_dir, config = experiment
        path = tmp_path / "three_seeds.json"
        path.write_text(json.dumps({**config, "variants": "matrix",
                                    "seeds": [0, 1, 2]}))
        cli.main(["prepare", "--config", str(path)])
        # workers fork only from a single-threaded process
        monkeypatch.setattr(cli, "_single_thread", lambda: start_method == "fork")
        methods = []

        def get_context(method):
            methods.append(method)
            return real_get_context(method)

        real_get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        # workers start in submit, and inherit its environment
        blas_threads = []

        def submit(pool, *args):
            blas_threads.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            return real_submit(pool, *args)

        real_submit = concurrent.futures.ProcessPoolExecutor.submit
        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", submit)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")

        def run_outputs(jobs):
            assert cli.main(["run", "--config", str(path), "--jobs", str(jobs)]) == 0
            assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
            # a worker left running would outlive the run
            assert multiprocessing.active_children() == []
            # a worker may run more than one group
            processes = {u["process"] for u in json.loads(
                (out_dir / "timings.json").read_text())["units"]}
            assert 0 in processes and processes <= set(range(jobs))
            outputs = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                       if p.name != "timings.json"}
            # report.json also holds the run's timings; compare its report
            # block
            outputs["report.json"] = json.loads(outputs["report.json"])["report"]
            return outputs

        serial = run_outputs(1)
        assert len([name for name in serial if name.startswith("scores_")]) == 24
        for jobs in (2, 3):
            assert run_outputs(jobs) == serial
        assert methods == [start_method] * 2
        # workers run one BLAS thread each: 1 at --jobs 2, 2 at --jobs 3
        assert blas_threads == ["1"] * 3

    def test_dead_worker_fails_its_heads_and_the_run_reports(self, experiment,
                                                            monkeypatch, capsys):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        calling = os.getpid()

        def train_networks(*args, **kwargs):
            if os.getpid() != calling:
                os._exit(3)  # as a worker killed for memory would end
            return real_train_networks(*args, **kwargs)

        real_train_networks = cli.train_networks
        monkeypatch.setattr(cli, "train_networks", train_networks)
        # a forked worker runs the patched function
        monkeypatch.setattr(cli, "_single_thread", lambda: True)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config_path), "--jobs", "2"]) == 1
        assert multiprocessing.active_children() == []
        # seed 1's group ran in the worker that died
        report = json.loads((out_dir / "report.json").read_text())["report"]
        [failure] = report["failures"]
        assert (failure["variant"], failure["seed"]) == ("aegr_lof/prune", 1)
        assert failure["error"].startswith("BrokenProcessPool: ")
        assert f"  FAILED aegr_lof/prune seed 1: {failure['error']}" in (
            capsys.readouterr().err)
        assert "\n## Failures\n" in (out_dir / "report.md").read_text()
        assert sorted((r["detector"], r["seed"]) for r in report["rows"]) == [
            ("aegr_lof", 0), ("lof_raw", 0), ("lof_raw", 1)]
        units = json.loads((out_dir / "timings.json").read_text())["units"]
        assert {u["process"] for u in units} == {0}
        # the dead group wrote no network file; lof_raw filled seed 1's row
        assert sorted(p.name for p in out_dir.glob("*_1.*")) == [
            "scores_lof_raw_none_1.csv"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_timings_record_each_unit(self, experiment, tmp_path, jobs):
        _, out_dir, config = experiment
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({**config, "variants": "matrix"}))
        cli.main(["prepare", "--config", str(path)])
        assert cli.main(["run", "--config", str(path), "--jobs", jobs]) == 0
        timings = json.loads((out_dir / "timings.json").read_text())
        assert timings["jobs"] == int(jobs)
        units = timings["units"]
        by_kind = Counter(unit["kind"] for unit in units)
        # one cache load, 2 seeds x 7 network heads, one write per
        # network, one lof_raw, one stack per seed group
        assert by_kind == {"load": 1, "lof_raw": 1, "train": int(jobs), "write": 4,
                           "head": 14, "report": 1}
        trains = [unit for unit in units if unit["kind"] == "train"]
        # at --jobs 2 the 2 seeds make 2 groups: seed 0 in the calling
        # process, seed 1 in worker 1
        groups = [[0, 1]] if jobs == "1" else [[0], [1]]
        assert sorted((t["process"], t["seeds"]) for t in trains) == list(
            enumerate(groups))
        for train in trains:
            assert train["networks"] == [f"{network}_{seed}" for seed in train["seeds"]
                                         for network in ("ae", "aegr")]
            # each network's epochs, one history row apiece, of 12 batches
            # of 16 of the 180 training rows
            assert train["epochs"] == {
                name: len((out_dir / f"history_{name}.csv").read_text()
                          .splitlines()) - 1
                for name in train["networks"]}
            assert train["batches"] == {name: 12 * epochs
                                        for name, epochs in train["epochs"].items()}
            # a seed's twins train as one through gr_start_epoch 3
            assert train["shared_epochs"] == {str(seed): 3 for seed in train["seeds"]}
            # each network's seconds encoding both splits and pruning
            for key in ("encode_s", "prune_s"):
                assert train[key].keys() == set(train["networks"])
                assert all(0 <= seconds for seconds in train[key].values())
            assert train.keys() == {
                "kind", "process", "start_s", "stop_s", "seeds", "networks",
                "epochs", "batches", "shared_epochs", "encode_s", "prune_s"}
        # each process runs its units in order, none overlapping: its
        # group's stack first, after the cache load in the calling
        # process; lof_raw runs in the calling process
        [lof_raw] = [u for u in units if u["kind"] == "lof_raw"]
        assert lof_raw["process"] == 0
        for process in range(int(jobs)):
            own = [u for u in units if u["process"] == process]
            first = ["load", "train"] if process == 0 else ["train"]
            assert [u["kind"] for u in own[:len(first)]] == first
            for before, after in zip(own, own[1:]):
                assert before["stop_s"] <= after["start_s"]
        assert sorted((u["variant"], u["seed"]) for u in units
                      if u["kind"] == "head") == sorted(
            (f"{d}/{m}", seed) for d, m in cli.VARIANT_MATRIX if d != "lof_raw"
            for seed in (0, 1))
        assert [(u["variant"], u["seeds"]) for u in units
                if u["kind"] == "lof_raw"] == [("lof_raw/none", [0, 1])]
        assert sorted(u["network"] for u in units if u["kind"] == "write") == [
            "ae_0", "ae_1", "aegr_0", "aegr_1"]
        report_rows = {(f"{row['detector']}/{row['modifier']}", row["seed"]): row
                       for row in json.loads((out_dir / "report.json").read_text())[
                           "report"]["rows"]}
        for unit in units:
            assert 0 <= unit["start_s"] <= unit["stop_s"] <= timings["duration_s"]
            if unit["kind"] not in ("head", "lof_raw"):
                assert "lof_fit_s" not in unit and "queries" not in unit
                continue
            # each head and lof_raw unit gives the test rows it scored, the
            # seconds of its metrics and score file writes, and the bytes
            # of its score files (lof_raw writes one per seed); every unit
            # that fits and scores LOF gives its reference rows and how
            # long each took (ae_re fits none), and prune_da how long
            # augmenting took
            seeds = unit["seeds"] if unit["kind"] == "lof_raw" else [unit["seed"]]
            variant = unit["variant"]
            files = [out_dir / f"scores_{variant.replace('/', '_')}_{seed}.csv"
                     for seed in seeds]
            assert unit["queries"] == len(files[0].read_text().splitlines()) - 1 == 60
            assert unit["bytes_written"] == sum(f.stat().st_size for f in files)
            fits = variant != "ae_re/none"
            assert unit.keys() == (
                {"kind", "variant", "process", "start_s", "stop_s", "queries",
                 "metrics_s", "write_s", "bytes_written",
                 "seeds" if unit["kind"] == "lof_raw" else "seed"}
                | ({"reference_rows", "lof_fit_s", "lof_score_s"} if fits else set())
                | ({"augment_s"} if variant.endswith("prune_da") else set()))
            seconds = [unit[key] for key in ("lof_fit_s", "lof_score_s", "augment_s",
                                             "metrics_s", "write_s") if key in unit]
            assert all(0 <= s for s in seconds)
            assert sum(seconds) <= unit["stop_s"] - unit["start_s"]
            if fits:
                assert unit["reference_rows"] == report_rows[variant, seeds[0]][
                    "metadata"]["reference_rows"]
        environment = json.loads((out_dir / "report.json").read_text())[
            "environment"]
        assert environment["duration_s"] == timings["duration_s"]
        # stage_s is each kind's busy seconds, summed in the file's order
        stage_s: dict[str, float] = {}
        for unit in units:
            stage_s[unit["kind"]] = (stage_s.get(unit["kind"], 0.0)
                                     + (unit["stop_s"] - unit["start_s"]))
        assert environment["stage_s"] == stage_s

    def test_rerun_deletes_the_earlier_runs_files(self, experiment, capsys):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["run", "--config", str(config_path)]) == 0
        assert cli.main(["plotdata", "--out", str(out_dir)]) == 0
        assert cli.main(["run", "--config", str(config_path),
                         "--seed-override", "9"]) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == [
            cli.CACHE_FILENAME, "history_aegr_9.csv", "latents_aegr_9.npz",
            "prepare_summary.json", "report.json", "report.md",
            "scores_aegr_lof_prune_9.csv", "scores_lof_raw_none_9.csv",
            "timings.json"]
        capsys.readouterr()
        assert cli.main(["plotdata", "--out", str(out_dir)]) == 0
        assert "from latents_aegr_9.npz" in capsys.readouterr().out

    # a negative --seed-override is rejected the same way
    @pytest.mark.parametrize("flag,value,least", [
        ("--jobs", "0", 1), ("--jobs", "-2", 1), ("--seed-override", "-1", 0),
    ], ids=["0", "-2", "seed_override_-1"])
    def test_jobs_below_one_rejected_at_parsing(self, experiment, capsys, flag,
                                                value, least):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--config", str(config_path), flag, value])
        assert exit_info.value.code == 2
        assert (f"error: argument {flag}: must be at least {least}, got {value}"
                in capsys.readouterr().err)
        assert not (out_dir / "report.json").exists()

    def test_seed_override(self, experiment):
        config_path, out_dir, _ = experiment
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["run", "--config", str(config_path), "--seed-override", "9"])
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert sorted({row["seed"] for row in report["rows"]}) == [9]

    def test_min_pts_out_of_range_fails_before_training(self, experiment, tmp_path,
                                                        capsys, monkeypatch):
        _, out_dir, config = experiment
        trained = []
        monkeypatch.setattr(autoencoder, "train_stack",
                            lambda *args, **kwargs: trained.append(args))
        # lof_raw fits its reference on the 180 training rows
        for min_pts in (180, 10_000):
            bad_path = tmp_path / "bad.json"
            bad_path.write_text(json.dumps({**config, "lof": {"min_pts": min_pts}}))
            assert cli.main(["prepare", "--config", str(bad_path)]) == 0
            capsys.readouterr()
            assert cli.main(["run", "--config", str(bad_path)]) == 1
            assert (f"lof.min_pts must be below the 180 training rows, "
                    f"got {min_pts}") in capsys.readouterr().err
        assert trained == []
        assert not (out_dir / "report.json").exists()

    def test_single_class_test_split_fails_before_training(self, tmp_path, capsys,
                                                           monkeypatch):
        ds = make_embedded_blob(seed=0, n_normal=100, n_anom=0, ambient_dim=4)
        csv_path = tmp_path / "normal.csv"
        write_dataset_csv(csv_path, ds)
        config_path = tmp_path / "normal.json"
        config_path.write_text(json.dumps({
            "dataset": {"path": str(csv_path), "has_header": True,
                        "schema": {"label": "label"}},
            "lof": {"min_pts": 5},
            "output_dir": str(tmp_path / "out"),
        }))
        trained = []
        monkeypatch.setattr(autoencoder, "train_stack",
                            lambda *args, **kwargs: trained.append(args))
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config_path)]) == 1
        assert ("test split holds only label 0; evaluation needs both classes"
                in capsys.readouterr().err)
        assert trained == []
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("jobs", [1, 2, 3], ids=str)
    def test_matrix_trains_each_network_once(self, experiment, tmp_path, jobs):
        _, out_dir, config = experiment
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({**config, "variants": "matrix"}))
        cli.main(["prepare", "--config", str(path)])
        assert cli.main(["run", "--config", str(path), "--jobs", str(jobs)]) == 0
        units = json.loads((out_dir / "timings.json").read_text())["units"]
        # one stack per seed group, in as many processes; the stacks
        # partition the 2 seeds x (plain + reversal) networks, so each
        # trains once, whatever --jobs is
        stacks = [(u["process"], u["networks"]) for u in units if u["kind"] == "train"]
        assert sorted(process for process, _ in stacks) == list(range(min(jobs, 2)))
        assert sorted(name for _, stack in stacks for name in stack) == [
            "ae_0", "ae_1", "aegr_0", "aegr_1"]
        # lof_raw is fitted once, plus 2 seeds x 6 latent-LOF heads
        assert sum("lof_fit_s" in u for u in units) == 13
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert len(report["rows"]) == 16

    def test_matrix_writes_latents_once_per_network(self, experiment, tmp_path):
        _, out_dir, config = experiment
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({**config, "variants": "matrix"}))
        cli.main(["prepare", "--config", str(path)])
        assert cli.main(["run", "--config", str(path)]) == 0
        assert sorted(p.name for p in out_dir.glob("latents_*")) == [
            "latents_ae_0.npz", "latents_ae_1.npz",
            "latents_aegr_0.npz", "latents_aegr_1.npz"]
        train_labels = data.load_cache(out_dir / cli.CACHE_FILENAME, {},
                                       config["dataset"]["path"]).train.labels
        report = json.loads((out_dir / "report.json").read_text())["report"]
        for row in report["rows"]:
            if row["modifier"] != "prune":
                continue
            network = "aegr" if row["detector"] == "aegr_lof" else "ae"
            with np.load(out_dir / f"latents_{network}_{row['seed']}.npz") as npz:
                assert npz["latents"].shape == (180, row["metadata"]["latent_dim"])
                assert npz["pruned_mask"].dtype == np.int8
                assert (npz["pruned_mask"] == 0).sum() == (
                    row["metadata"]["rows_after_prune"])
                np.testing.assert_array_equal(npz["labels"], train_labels)

    @pytest.mark.parametrize("failure", ["diverged", "stack_raised"])
    def test_failed_network_fails_each_of_its_heads(self, experiment, tmp_path,
                                                    monkeypatch, failure):
        _, out_dir, config = experiment
        config = {**config, "variants": "matrix"}
        if failure == "diverged":
            config["train"] = {**config["train"], "learning_rate": 1e307}
            error = re.compile(r"RuntimeError: training diverged: ")
        else:
            def raise_memory_error(*args, **kwargs):
                raise MemoryError("boom")
            monkeypatch.setattr(cli, "train_networks", raise_memory_error)
            error = re.compile(r"MemoryError: boom\Z")
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(config))
        cli.main(["prepare", "--config", str(path)])
        assert cli.main(["run", "--config", str(path)]) == 1
        report = json.loads((out_dir / "report.json").read_text())["report"]
        heads = [f"{d}/{m}" for d, m in cli.VARIANT_MATRIX if d != "lof_raw"]
        assert [(f["variant"], f["seed"]) for f in report["failures"]] == sorted(
            (head, seed) for head in heads for seed in (0, 1))
        assert all(error.match(f["error"]) for f in report["failures"])
        for seed in (0, 1):
            for reversal in (False, True):
                errors = {f["error"] for f in report["failures"] if f["seed"] == seed
                          and f["variant"].startswith("aegr_lof") == reversal}
                assert len(errors) == 1
        assert {(r["detector"], r["seed"]) for r in report["rows"]} == {
            ("lof_raw", 0), ("lof_raw", 1)}
        # the heads of a failed network never run
        timings = json.loads((out_dir / "timings.json").read_text())
        assert Counter(u["kind"] for u in timings["units"]) == {
            "load": 1, "lof_raw": 1, "train": 1, "report": 1}
        [train] = [u for u in timings["units"] if u["kind"] == "train"]
        assert train["epochs"] == dict.fromkeys(train["networks"])
        assert train["encode_s"] == train["prune_s"] == train["epochs"]
        # no failed network writes its history or latents
        assert not [*out_dir.glob("history_*"), *out_dir.glob("latents_*")]

    def test_failed_head_leaves_the_other_heads_complete(self, experiment,
                                                         tmp_path, capsys):
        # pruning leaves ae_lof/prune no more than min_pts reference rows;
        # augmentation refills aegr_lof/prune_da's
        _, out_dir, config = experiment
        path = tmp_path / "prune.json"
        path.write_text(json.dumps({
            **config, "lof": {"min_pts": 170},
            "variants": ["ae_lof/none", "ae_lof/prune", "aegr_lof/prune_da"]}))
        assert cli.main(["prepare", "--config", str(path)]) == 0
        assert cli.main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert "completed 4/6 runs" in captured.out
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert [(f["variant"], f["seed"]) for f in report["failures"]] == [
            ("ae_lof/prune", 0), ("ae_lof/prune", 1)]
        # stderr and report.md give each failure the same line
        lines = [f"{f['variant']} seed {f['seed']}: {f['error']}"
                 for f in report["failures"]]
        assert [line for line in captured.err.splitlines()
                if line.startswith("  FAILED ")] == [f"  FAILED {l}" for l in lines]
        assert (out_dir / "report.md").read_text().endswith(
            "\n## Failures\n\n" + "".join(f"- {l}\n" for l in lines))
        kept = []
        for failure in report["failures"]:
            assert failure["error"].startswith(
                "ValueError: ae_lof/prune: pruning kept ")
            kept.append(re.search(r"kept (\d+) of 180 ", failure["error"])[1])
        assert kept == ["150", "144"]
        assert sorted((r["detector"], r["modifier"], r["seed"])
                      for r in report["rows"]) == [
            ("ae_lof", "none", 0), ("ae_lof", "none", 1),
            ("aegr_lof", "prune_da", 0), ("aegr_lof", "prune_da", 1)]
        assert not list(out_dir.glob("scores_ae_lof_prune_*.csv"))
        assert len(list(out_dir.glob("scores_*.csv"))) == 4

    def test_headerless_csv_runs_with_an_index_schema(self, experiment):
        config_path, out_dir, config = experiment
        csv_path = Path(config["dataset"]["path"])
        # the fixture's 8 feature columns, then the label at index 8
        csv_path.write_text(csv_path.read_text().split("\n", 1)[1])
        config["dataset"] = {**config["dataset"], "has_header": False,
                             "schema": {"8": "label"}}
        config_path.write_text(json.dumps(config))
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        assert cli.main(["run", "--config", str(config_path)]) == 0
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert len(report["rows"]) == 4 and report["failures"] == []

    def test_unlabeled_csv_prepares_but_does_not_run(self, experiment, capsys,
                                                     monkeypatch):
        config_path, out_dir, config = experiment
        csv_path = Path(config["dataset"]["path"])
        csv_path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in
                                    csv_path.read_text().splitlines()))
        config["dataset"] = {**config["dataset"], "schema": {}}
        config_path.write_text(json.dumps(config))
        trained = []
        monkeypatch.setattr(autoencoder, "train_stack",
                            lambda *args, **kwargs: trained.append(args))
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config_path)]) == 1
        assert "test split has no labels" in capsys.readouterr().err
        assert trained == []
        assert not (out_dir / "report.json").exists()

    def test_report_md_rows_follow_the_matrix_with_titles(self, experiment,
                                                          tmp_path):
        _, out_dir, config = experiment
        path = tmp_path / "titles.json"
        path.write_text(json.dumps(
            {**config, "variants": ["aegr_lof/prune", "ae_re", "lof_raw"]}))
        cli.main(["prepare", "--config", str(path)])
        assert cli.main(["run", "--config", str(path)]) == 0
        rows = [line.split(" | ")[:2] for line in
                (out_dir / "report.md").read_text().splitlines()
                if line.startswith("| ") and "±" in line]
        assert rows == [["| Stand-alone LOF", "None"], ["| AE-RE", "None"],
                        ["| AEGR-LOF", "Pruning"]]

    def test_report_rows_follow_the_spec_order(self, experiment, tmp_path):
        _, out_dir, config = experiment
        path = tmp_path / "order.json"
        path.write_text(json.dumps({**config, "variants": [
            "aegr_lof/prune", "ae_re", "lof_raw", "ae_lof/none"]}))
        cli.main(["prepare", "--config", str(path)])
        assert cli.main(["run", "--config", str(path), "--jobs", "2"]) == 0
        rows = json.loads((out_dir / "report.json").read_text())["report"]["rows"]
        assert [(r["detector"], r["modifier"], r["seed"]) for r in rows] == [
            ("ae_lof", "none", 0), ("ae_lof", "none", 1),
            ("ae_re", "none", 0), ("ae_re", "none", 1),
            ("aegr_lof", "prune", 0), ("aegr_lof", "prune", 1),
            ("lof_raw", "none", 0), ("lof_raw", "none", 1)]
        for row in rows:
            assert {key: row["metadata"][key] for key in
                    ("detector", "modifier", "seed")} == {
                key: row[key] for key in ("detector", "modifier", "seed")}

    def test_network_table_names_the_files_and_the_plotdata_choices(
            self, experiment, tmp_path, capsys):
        _, out_dir, config = experiment
        path = tmp_path / "networks.json"
        path.write_text(json.dumps({**config, "variants": ["ae_re", "aegr_lof/none"]}))
        cli.main(["prepare", "--config", str(path)])
        assert cli.main(["run", "--config", str(path)]) == 0
        names = sorted(f"{network}_{seed}" for network in pipeline.NETWORKS.values()
                       for seed in (0, 1))
        for kind, suffix in (("history", "csv"), ("latents", "npz")):
            assert sorted(p.name for p in out_dir.glob(f"{kind}_*")) == [
                f"{kind}_{name}.{suffix}" for name in names]
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.main(["plotdata", "--help"])
        choices = ",".join(pipeline.NETWORKS.values())
        assert f"--network {{{choices}}}" in capsys.readouterr().out
        for network in pipeline.NETWORKS.values():
            assert cli.main(["plotdata", "--out", str(out_dir), "--network",
                             network, "--seed", "1"]) == 0
            assert capsys.readouterr().out.endswith(f"from latents_{network}_1.npz\n")

    def test_wilcoxon_needs_five_seeds(self, experiment, tmp_path):
        config_path, out_dir, config = experiment
        config["wilcoxon_pairs"] = [["aegr_lof/prune", "lof_raw/none"]]
        path = tmp_path / "wilcoxon.json"
        path.write_text(json.dumps(config))
        cli.main(["prepare", "--config", str(path)])
        cli.main(["run", "--config", str(path)])
        report = json.loads((out_dir / "report.json").read_text())["report"]
        assert "error" in report["wilcoxon"][0]  # only 2 seeds configured


class TestSerialization:
    def test_history_csv(self, tmp_path):
        history = [autoencoder.EpochStats(1, 0.5, 0.6, math.nan, False),
                   autoencoder.EpochStats(2, 0.4, 0.5, 1.25, True, 3)]
        network = SimpleNamespace(history=history, train_latents=np.zeros((1, 2)),
                                  kept=np.ones(1, dtype=bool))
        cli._write_network(cli._Timeline(), tmp_path, None, "aegr_0", network)
        lines = (tmp_path / "history_aegr_0.csv").read_text().strip().splitlines()
        assert lines[0] == ("epoch,train_loss,val_loss,max_gs,reversal_applied,"
                            "reversed_batch")
        assert lines[1] == "1,0.5,0.6,nan,0,-1"
        assert lines[2] == "2,0.4,0.5,1.25,1,3"

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_plotdata_csv_exact_text(self, tmp_path, labeled):
        # ints print as ints, floats as their repr, an unlabeled row as -1
        latents = np.array([[0.1, -2.5, 9.0], [1e-05, 3.0, 0.0],
                            [-0.0, 0.1 + 0.2, 1.0]])
        arrays = {"latents": latents,
                  "pruned_mask": np.array([0, 1, 0], dtype=np.int8)}
        if labeled:
            arrays["labels"] = np.array([0, 1, 0], dtype=np.int64)
        write_npz(tmp_path / "latents_aegr_0.npz", arrays)
        assert cli.main(["plotdata", "--out", str(tmp_path)]) == 0

        labels = ["0", "1", "0"] if labeled else ["-1"] * 3
        assert (tmp_path / "latent_scatter.csv").read_text() == (
            "latent_dim_1,latent_dim_2,label,pruned_flag\n"
            f"0.1,-2.5,{labels[0]},0\n"
            f"1e-05,3.0,{labels[1]},1\n"
            f"-0.0,0.30000000000000004,{labels[2]},0\n")
        classes = ([(0, [0, 2]), (1, [1])] if labeled else [(-1, [0, 1, 2])])
        want = ["axis,class_label,x,density"]
        for axis in (1, 2):
            for label, rows in classes:
                grid, density = plots.kde_curve(latents[rows, axis - 1])
                want += [f"{axis},{label},{x!r},{d!r}"
                         for x, d in zip(grid.tolist(), density.tolist())]
        assert (tmp_path / "kde_curves.csv").read_text() == "\n".join(want) + "\n"


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
        assert cli.main(["plotdata", "--out", str(out_dir), "--network",
                         "aegr", "--seed", "1"]) == 0

    @pytest.mark.parametrize("damage", ["truncated", "no_pruned_mask",
                                        "latents_1d", "short_pruned_mask",
                                        "long_labels"])
    def test_damaged_latents_is_an_input_error(self, tmp_path, capsys, damage):
        path = tmp_path / "latents_aegr_0.npz"
        arrays = {"latents": np.zeros((4, 2)),
                  "pruned_mask": np.zeros(4, dtype=np.int8)}
        if damage == "no_pruned_mask":
            del arrays["pruned_mask"]
        elif damage == "latents_1d":
            arrays["latents"] = np.zeros(4)
        elif damage == "short_pruned_mask":
            arrays["pruned_mask"] = np.zeros(3, dtype=np.int8)
        elif damage == "long_labels":
            arrays["labels"] = np.zeros(5, dtype=np.int64)
        write_npz(path, arrays)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cli.main(["plotdata", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if line.startswith("error:")]
        assert line.startswith(f"error: {path}: damaged latents file (")
        assert "Traceback" not in err
        assert not (tmp_path / "latent_scatter.csv").exists()

    def test_negative_seed_rejected_at_parsing(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["plotdata", "--out", str(tmp_path), "--seed", "-1"])
        assert exit_info.value.code == 2
        assert ("error: argument --seed: must be at least 0, got -1"
                in capsys.readouterr().err)

    def test_empty_anomaly_class_emits_normal_only(self, tmp_path, caplog):
        from aegrlof.storage import write_npz

        rng = np.random.default_rng(0)
        write_npz(tmp_path / "latents_ae_0.npz", {
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
        write_npz(tmp_path / "latents_ae_0.npz", {
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
