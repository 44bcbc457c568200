import numpy as np
import pytest

from aegrlof import storage


def test_scores_csv_exact_text(tmp_path):
    path = tmp_path / "scores.csv"
    storage.write_scores_csv(path, np.array([1.25, 0.9]))
    assert path.read_text() == "row_index,score\n0,1.25\n1,0.9\n"


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    # a crash between writing the temp file and renaming it over the
    # target must leave the old file whole and no temp file behind
    path = tmp_path / "report.md"
    path.write_bytes(b"old report\n")

    def crash(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr(storage.os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        storage.atomic_write_text(path, "new report, cut short")
    assert path.read_bytes() == b"old report\n"
    assert list(tmp_path.glob("*.tmp*")) == []


def test_write_npz_returns_the_digest_of_its_bytes(tmp_path):
    path = tmp_path / "arrays.npz"
    digest = storage.write_npz(path, {"b": np.arange(3), "a": np.eye(2)})
    assert digest == storage.file_sha256(path)
