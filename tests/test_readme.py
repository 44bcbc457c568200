"""The README's library quickstart runs as written, so the documented API
cannot drift from the package."""

import re
from pathlib import Path

import numpy as np

from conftest import make_embedded_blob

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    blocks = _quickstart_blocks()
    assert len(blocks) == 2
    # the flows.csv the quickstart reads: numeric features, a categorical
    # proto column and an attack label column
    ds = make_embedded_blob(seed=0, n_normal=380, n_anom=20, ambient_dim=4)
    protos = np.random.default_rng(0).choice(["tcp", "udp", "icmp"], size=400)
    lines = [",".join(ds.feature_names) + ",proto,attack"]
    lines += [",".join(repr(float(v)) for v in row) + f",{proto},{label}"
              for row, proto, label in zip(ds.features, protos, ds.labels)]
    (tmp_path / "flows.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    # the second block goes on from the first one's names
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == [
        "aegr_lof/none", "aegr_lof/prune", "aegr_lof/prune_da", "lof_raw/none"]
    assert namespace["activations"][-1].shape == (16, namespace["prep"].train.n_features)
