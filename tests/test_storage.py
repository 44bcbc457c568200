import numpy as np

from aegrlof import storage


def test_scores_csv_exact_text(tmp_path):
    path = tmp_path / "scores.csv"
    storage.write_scores_csv(path, np.array([1.25, 0.9]))
    assert path.read_text() == "row_index,score\n0,1.25\n1,0.9\n"
