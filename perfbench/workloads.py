"""Seeded input generators and experiment configs for the benchmark workloads.

Each workload is a synthetic CSV plus an experiment config for the
`aegrlof` CLI. The kdd-tall and ads-wide generators draw their structure
(attack profiles, topic vocabularies) from a fixed generator and sample
rows from their ``seed`` argument, so one seed always yields a
byte-identical file. The workloads themselves always use one fixed data
seed each: the report's AUC means then repeat exactly from run to run and
from commit to commit, and any change in them is a change in results.

Workloads, and why each was chosen:

* ``pendigits-matrix``: the criterion-8 configuration and data (16
  features, split 1247/312/727, 8 variants x 5 seeds, 25 epochs).
  Per-step Python overhead in training and LOF fit dominate; it is the
  workload on which training each network once and single-pass LOF show.
* ``kdd-tall``: NSL-KDD-shaped flows, 40k rows with 3 categoricals that
  encode to 122 features. CSV parsing and one-hot encoding dominate
  ``prepare``; LOF scoring of 8k queries against 1.2k raw references
  dominates ``run``.
* ``ads-wide``: InternetAds-shaped rows, 2k x 1558 mostly sparse binary
  features. Training is BLAS-bound and every network trains once per seed,
  so train-once and LOF changes should not move it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("pendigits-matrix", "kdd-tall", "ads-wide")

# Expected report rows per workload: variants x seeds.
EXPECTED_ROWS = {"pendigits-matrix": 40, "kdd-tall": 6, "ads-wide": 4}

REPO = Path(__file__).resolve().parents[1]

# The row seed of the kdd-tall and ads-wide inputs.
DATA_SEED = 0


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# pendigits-matrix


def write_pendigits_csv(path: Path) -> None:
    """The criterion-8 data, written by the acceptance suite's own generator
    (``make_pendigits_like()`` and ``write_dataset_csv`` in
    ``tests/conftest.py``), so the benchmark and criterion 8 measure the
    same input. The suite's generator imports ``aegrlof``, so ``src`` must
    be importable."""
    spec = importlib.util.spec_from_file_location(
        "aegrlof_suite_conftest", REPO / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    suite.write_dataset_csv(path, suite.make_pendigits_like())


# ---------------------------------------------------------------------------
# kdd-tall

KDD_NUMERIC = (
    "duration", "src_bytes", "dst_bytes", "land", "wrong_fragment", "urgent",
    "hot", "num_failed_logins", "logged_in", "num_compromised", "root_shell",
    "su_attempted", "num_root", "num_file_creations", "num_shells",
    "num_access_files", "num_outbound_cmds", "is_host_login",
    "is_guest_login", "count", "srv_count", "serror_rate", "srv_serror_rate",
    "rerror_rate", "srv_rerror_rate", "same_srv_rate", "diff_srv_rate",
    "srv_diff_host_rate", "dst_host_count", "dst_host_srv_count",
    "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate",
    "dst_host_rerror_rate", "dst_host_srv_rerror_rate",
)
KDD_PROTOCOLS = ("icmp", "tcp", "udp")
KDD_SERVICES = tuple(f"svc{i:02d}" for i in range(70))
KDD_FLAGS = ("OTH", "REJ", "RSTO", "RSTOS0", "RSTR", "S0", "S1", "S2", "S3",
             "SF", "SH")

# How each numeric column turns a latent value u into a field.
_BINARY = {"land", "logged_in", "root_shell", "su_attempted",
           "is_host_login", "is_guest_login"}
_SMALL_COUNT = {"wrong_fragment", "urgent", "hot", "num_failed_logins",
                "num_compromised", "num_root", "num_file_creations",
                "num_shells", "num_access_files", "num_outbound_cmds"}
_COUNT_CAP = {"count": 511, "srv_count": 511, "dst_host_count": 255,
              "dst_host_srv_count": 255}
_BYTES = {"src_bytes", "dst_bytes"}

KDD_ANOMALY_RATE = 0.08
_KDD_NORMAL_PROFILES = 6
_KDD_ATTACK_PROFILES = 3
# The row sampler is keyed by (seed, stream) rather than the bare seed: the
# CLI's split shuffles with default_rng(split seed), and a sampler seeded
# the same way would place every anomaly in one split.
_KDD_STREAM = 1


def _kdd_field(name: str, u: np.ndarray) -> list[str]:
    if name in _BINARY:
        return ["1" if v > 1.0 else "0" for v in u]
    if name in _SMALL_COUNT:
        return [str(int(v)) for v in np.maximum(0.0, np.floor(u - 0.5))]
    if name in _COUNT_CAP:
        vals = np.round(_COUNT_CAP[name] / (1.0 + np.exp(-u)))
        return [str(int(v)) for v in vals]
    if name in _BYTES:
        return [str(int(v)) for v in np.round(np.exp(5.0 + 1.5 * u))]
    if name == "duration":
        return [str(int(v)) for v in np.round(np.maximum(0.0, np.exp(2.0 * u) - 1.0))]
    return [f"{v:.2f}" for v in 1.0 / (1.0 + np.exp(-2.0 * u))]


def write_kdd_csv(path: Path, seed: int, n_rows: int = 40000) -> None:
    """NSL-KDD-shaped flows: 38 numeric columns, proto/service/flag, label.

    Normal rows come from six traffic profiles, each with its own
    categorical mix and column locations. Attacks come from three profiles
    derived from normal ones by column shifts of decreasing size (a flood,
    a probe and a subtle intrusion), so they are detectable but not all
    trivially. Every protocol, service and flag level occurs in every file,
    so the encoded width is always 38 + 3 + 70 + 11 = 122.
    """
    fixed = np.random.default_rng(1999)
    n_prof = _KDD_NORMAL_PROFILES + _KDD_ATTACK_PROFILES
    n_num = len(KDD_NUMERIC)
    loc = fixed.normal(size=(n_prof, n_num))
    proto_p = fixed.dirichlet(np.full(3, 0.5), size=n_prof)
    service_p = (0.9 * fixed.dirichlet(np.full(70, 0.1), size=n_prof)
                 + 0.1 / 70)
    flag_p = fixed.dirichlet(np.full(11, 0.2), size=n_prof)
    flag_p[:_KDD_NORMAL_PROFILES] = 0.7 * np.eye(11)[KDD_FLAGS.index("SF")] \
        + 0.3 * flag_p[:_KDD_NORMAL_PROFILES]
    for k, (shift, n_cols) in enumerate(((2.5, 10), (1.6, 8), (0.9, 6))):
        a = _KDD_NORMAL_PROFILES + k
        base = k % _KDD_NORMAL_PROFILES
        cols = fixed.choice(n_num, size=n_cols, replace=False)
        loc[a] = loc[base]
        loc[a, cols] += shift * fixed.choice((-1.0, 1.0), size=n_cols)
        proto_p[a] = 0.5 * proto_p[a] + 0.5 * proto_p[base]
        service_p[a] = 0.5 * service_p[a] + 0.5 * service_p[base]

    rng = np.random.default_rng([seed, _KDD_STREAM])
    n_anom = int(round(n_rows * KDD_ANOMALY_RATE))
    labels = np.zeros(n_rows, dtype=int)
    labels[rng.permutation(n_rows)[:n_anom]] = 1
    profile = np.where(
        labels == 1,
        _KDD_NORMAL_PROFILES + rng.integers(0, _KDD_ATTACK_PROFILES, n_rows),
        rng.integers(0, _KDD_NORMAL_PROFILES, n_rows),
    )
    u = loc[profile] + rng.normal(scale=0.6, size=(n_rows, n_num))

    def draw(levels: tuple[str, ...], probs: np.ndarray) -> list[str]:
        cum = probs.cumsum(axis=1)[profile]
        idx = (rng.random(n_rows)[:, None] > cum).sum(axis=1)
        idx = np.minimum(idx, len(levels) - 1)
        # the first rows cycle through every level so the vocabulary is full
        idx[: len(levels)] = np.arange(len(levels))
        return [levels[i] for i in idx]

    columns = [_kdd_field(name, u[:, j]) for j, name in enumerate(KDD_NUMERIC)]
    columns[1:1] = [draw(KDD_PROTOCOLS, proto_p), draw(KDD_SERVICES, service_p),
                    draw(KDD_FLAGS, flag_p)]
    columns.append([str(v) for v in labels])
    header = [KDD_NUMERIC[0], "protocol_type", "service", "flag",
              *KDD_NUMERIC[1:], "label"]
    _write_csv(path, header, columns)


# ---------------------------------------------------------------------------
# ads-wide

ADS_BINARY = 1555
ADS_ANOMALY_RATE = 0.14
_ADS_NORMAL_TOPICS = 8
_ADS_AD_TOPICS = 2
_ADS_STREAM = 2  # see _KDD_STREAM


def write_ads_csv(path: Path, seed: int, n_rows: int = 2000) -> None:
    """InternetAds-shaped rows: height, width, aspect ratio, 1555 binary.

    Binary columns are sparse word indicators drawn from topic
    vocabularies. Ads (label 1) carry more words, drawn from ad topics that
    half overlap the normal ones, and favour banner-like image shapes, so
    the classes differ in every column group without separating cleanly.
    """
    fixed = np.random.default_rng(1558)
    topics = fixed.dirichlet(np.full(ADS_BINARY, 0.02),
                             size=_ADS_NORMAL_TOPICS + _ADS_AD_TOPICS)
    for k in range(_ADS_AD_TOPICS):
        topics[_ADS_NORMAL_TOPICS + k] = (0.5 * topics[_ADS_NORMAL_TOPICS + k]
                                          + 0.5 * topics[k])

    rng = np.random.default_rng([seed, _ADS_STREAM])
    n_anom = int(round(n_rows * ADS_ANOMALY_RATE))
    labels = np.zeros(n_rows, dtype=int)
    labels[rng.permutation(n_rows)[:n_anom]] = 1
    words = np.zeros((n_rows, ADS_BINARY), dtype=np.int8)
    for i in range(n_rows):
        if labels[i]:
            k = _ADS_NORMAL_TOPICS + rng.integers(0, _ADS_AD_TOPICS)
            n_words = 3 + rng.poisson(20)
        else:
            k = rng.integers(0, _ADS_NORMAL_TOPICS)
            n_words = 3 + rng.poisson(10)
        words[i, rng.choice(ADS_BINARY, size=n_words, p=topics[k])] = 1

    banner = (labels == 1) & (rng.random(n_rows) < 0.8)
    height = np.where(banner, rng.normal(60.0, 15.0, n_rows),
                      np.exp(rng.normal(4.5, 0.6, n_rows)))
    width = np.where(banner, rng.normal(468.0, 60.0, n_rows),
                     np.exp(rng.normal(4.8, 0.6, n_rows)))
    height = np.maximum(1.0, np.round(height))
    width = np.maximum(1.0, np.round(width))

    columns = [[f"{v:.0f}" for v in height], [f"{v:.0f}" for v in width],
               [f"{v:.4f}" for v in width / height]]
    columns += [["1" if v else "0" for v in words[:, j]]
                for j in range(ADS_BINARY)]
    columns.append([str(v) for v in labels])
    header = ["height", "width", "aratio", *(f"w{j}" for j in range(ADS_BINARY)),
              "label"]
    _write_csv(path, header, columns)


# ---------------------------------------------------------------------------
# configs


def _config(csv_path: str, schema: dict, split: dict, train: dict,
            variants, seeds: list[int], wilcoxon: list) -> dict:
    return {
        "dataset": {"path": csv_path, "has_header": True, "schema": schema},
        "split": split,
        "train": train,
        "lof": {"min_pts": 20},
        "variants": variants,
        "seeds": seeds,
        "wilcoxon_pairs": wilcoxon,
    }


def make_workload(name: str, work_dir: Path) -> Path:
    """Write the workload's CSV and config under ``work_dir``.

    Returns the config path. The config names the CSV by absolute path so
    the CLI can run from any directory.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    csv_path = (work_dir / "data.csv").resolve()
    if name == "pendigits-matrix":
        write_pendigits_csv(csv_path)
        config = _config(
            str(csv_path), {"label": "label"},
            {"train_fraction": 1247 / 2286, "val_fraction": 312 / 2286,
             "test_fraction": 727 / 2286, "seed": 0},
            {"max_epochs": 25, "learning_rate": 0.05, "gr_start_epoch": 5,
             "patience": 8},
            "matrix", [0, 1, 2, 3, 4], [["aegr_lof/prune", "lof_raw/none"]],
        )
    elif name == "kdd-tall":
        write_kdd_csv(csv_path, DATA_SEED)
        config = _config(
            str(csv_path),
            {"protocol_type": "categorical", "service": "categorical",
             "flag": "categorical", "label": "label"},
            {"train_fraction": 0.6, "val_fraction": 0.2, "test_fraction": 0.2,
             "seed": 0, "subsample_fraction": 0.05},
            {"max_epochs": 25, "learning_rate": 0.05, "gr_start_epoch": 5,
             "patience": 8},
            ["lof_raw/none", "ae_re/none", "aegr_lof/prune"], [0, 1], [],
        )
    elif name == "ads-wide":
        write_ads_csv(csv_path, DATA_SEED)
        config = _config(
            str(csv_path), {"label": "label"},
            {"train_fraction": 0.6, "val_fraction": 0.2, "test_fraction": 0.2,
             "seed": 0},
            {"max_epochs": 10, "learning_rate": 0.05, "gr_start_epoch": 5,
             "patience": 8},
            ["ae_re/none", "aegr_lof/prune_da"], [0, 1], [],
        )
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    config_path = work_dir / "experiment.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path
