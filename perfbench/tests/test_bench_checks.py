"""AUC extraction and output-check accounting on report fixtures."""

import copy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "perfbench"))

from checks import Checks, auc_means, pruning_wins, report_block_bytes  # noqa: E402


def _row(detector, modifier, seed, pr, roc):
    return {"detector": detector, "modifier": modifier, "seed": seed,
            "pr_auc": pr, "roc_auc": roc, "n_pos": 3, "n_neg": 30,
            "metadata": {"reference_rows": 40}}


@pytest.fixture
def report():
    rows = []
    for seed in range(5):
        rows.append(_row("lof_raw", "none", seed, 0.2, 0.6))
        rows.append(_row("aegr_lof", "prune", seed, 0.1 if seed < 2 else 0.8, 0.9))
    return {"config": {"seeds": [0, 1, 2, 3, 4]}, "dataset_sha256": "x",
            "rows": rows, "wilcoxon": [], "failures": []}


def test_auc_means(report):
    pr, roc = auc_means(report)
    assert pr == pytest.approx((5 * 0.2 + 2 * 0.1 + 3 * 0.8) / 10)
    assert roc == pytest.approx((5 * 0.6 + 5 * 0.9) / 10)


def test_auc_means_needs_rows(report):
    report["rows"] = []
    with pytest.raises(ValueError):
        auc_means(report)


def test_pruning_wins(report):
    assert pruning_wins(report) == (3, 5)


def test_checks_pass_on_identical_reports(report):
    checks = Checks()
    checks.run_report("a", 0, report, 10, directional=True)
    checks.run_report("b", 0, copy.deepcopy(report), 10, directional=True)
    assert checks.failed == 0
    # 10 variant runs per report plus the checks themselves
    assert checks.attempted == 20 + len(checks.results)


def test_checks_count_failures(report):
    checks = Checks()
    checks.run_report("a", 0, report, 10, directional=False)
    changed = copy.deepcopy(report)
    changed["rows"][0]["pr_auc"] = 0.25
    checks.run_report("b", 0, changed, 10, directional=False)
    assert checks.failed == 1

    broken = copy.deepcopy(report)
    broken["rows"] = broken["rows"][:8]
    broken["failures"] = [{"variant": "aegr_lof/prune", "seed": 4, "error": "x"}]
    checks = Checks()
    checks.run_report("c", 1, broken, 10, directional=True)
    # exit code, row count, failures, directional (4 seeds) fail; 2 runs lost
    assert checks.failed == 4 + 2


def test_missing_report_fails_every_run():
    checks = Checks()
    checks.run_report("a", 1, None, 6, directional=False)
    assert checks.failed == 6 + 2


def test_report_bytes_are_canonical(report):
    shuffled = dict(reversed(list(report.items())))
    assert report_block_bytes(shuffled) == report_block_bytes(report)
