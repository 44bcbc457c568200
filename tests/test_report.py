"""The report's rules, pinned from hand-written head outcomes: no network
is trained and no file is read or written."""

import builtins
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aegrlof import metrics, report
from aegrlof.pipeline import DETECTORS, MODIFIERS, VARIANT_MATRIX, VariantSpec

CONFIG = {"lof": {"min_pts": 20}, "wilcoxon_pairs": []}
DIGEST = "ab" * 32


def _outcome(pr_auc: float, roc_auc: float = 0.5) -> dict:
    return {"roc_auc": roc_auc, "pr_auc": pr_auc, "n_pos": 3, "n_neg": 7,
            "metadata": {"epochs_run": 4}}


def _spec(key: str, seed: int) -> VariantSpec:
    detector, modifier = key.split("/")
    return VariantSpec(detector, modifier, seed=seed)


def _build(outcomes, pairs=(), seeds=(0, 1, 2)):
    return report.build(CONFIG, list(seeds), DIGEST, [list(p) for p in pairs],
                        outcomes)


# three variants over three seeds; aegr_lof/prune seed 1 failed
OUTCOMES = [
    (_spec(key, seed), "RuntimeError: training diverged"
     if (key, seed) == ("aegr_lof/prune", 1) else _outcome(0.1 * seed + i / 100))
    for i, key in enumerate(("lof_raw/none", "aegr_lof/prune", "ae_lof/none"))
    for seed in (2, 0, 1)
]


def test_rows_and_failures_come_in_spec_order():
    block = _build(OUTCOMES)
    assert [(r["detector"], r["modifier"], r["seed"]) for r in block["rows"]] == [
        ("ae_lof", "none", 0), ("ae_lof", "none", 1), ("ae_lof", "none", 2),
        ("aegr_lof", "prune", 0), ("aegr_lof", "prune", 2),
        ("lof_raw", "none", 0), ("lof_raw", "none", 1), ("lof_raw", "none", 2)]
    assert block["failures"] == [{"variant": "aegr_lof/prune", "seed": 1,
                                  "error": "RuntimeError: training diverged"}]
    assert block["config"] == {**CONFIG, "seeds": [0, 1, 2]}
    assert block["dataset_sha256"] == DIGEST
    # a row's metadata names its head too
    row = block["rows"][0]
    assert row["metadata"] == {"epochs_run": 4, "detector": "ae_lof",
                               "modifier": "none", "seed": 0}
    assert (row["pr_auc"], row["roc_auc"], row["n_pos"], row["n_neg"]) == (
        0.02, 0.5, 3, 7)


@given(st.permutations(OUTCOMES))
def test_block_does_not_depend_on_the_order_heads_finish_in(outcomes):
    pairs = [("lof_raw/none", "ae_lof/none")]
    assert (json.dumps(_build(outcomes, pairs), sort_keys=True)
            == json.dumps(_build(OUTCOMES, pairs), sort_keys=True))


def test_failed_head_is_only_a_failure_and_its_line_is_the_failure_line():
    block = _build(OUTCOMES)
    assert ("aegr_lof", "prune", 1) not in {
        (r["detector"], r["modifier"], r["seed"]) for r in block["rows"]}
    text = report.markdown(block)
    [failure] = block["failures"]
    assert text.endswith("\n## Failures\n\n- "
                         + report.FAILURE_LINE.format(**failure) + "\n")
    assert text.endswith(
        "- aegr_lof/prune seed 1: RuntimeError: training diverged\n")


def _pair_outcomes(seeds):
    rng = np.random.default_rng(0)
    return [(_spec(key, seed), _outcome(float(rng.uniform())))
            for key in ("aegr_lof/prune", "lof_raw/none") for seed in seeds]


def test_wilcoxon_needs_five_completed_seeds():
    pair = ("aegr_lof/prune", "lof_raw/none")
    outcomes = _pair_outcomes(range(5))
    # seed 3 of one variant failed, so 4 seeds hold both variants
    outcomes[3] = (outcomes[3][0], "ValueError: boom")
    [entry] = _build(outcomes, [pair], seeds=range(5))["wilcoxon"]
    assert entry == {"pair": list(pair), "metric": "pr_auc",
                     "error": "needs >= 5 completed seeds for both variants, "
                              "got 4"}
    assert "not computed (needs >= 5 completed seeds" in report.markdown(
        _build(outcomes, [pair], seeds=range(5)))


def test_wilcoxon_of_five_completed_seeds():
    pair = ("aegr_lof/prune", "lof_raw/none")
    outcomes = _pair_outcomes(range(5))
    block = _build(outcomes, [pair], seeds=range(5))
    [entry] = block["wilcoxon"]
    pr = {(spec.key, spec.seed): outcome["pr_auc"] for spec, outcome in outcomes}
    expected = metrics.wilcoxon_signed_rank(
        *(np.array([pr[key, s] for s in range(5)]) for key in pair))
    assert entry == {"pair": list(pair), "metric": "pr_auc",
                     "w_statistic": expected.w_statistic,
                     "p_value": expected.p_value,
                     "n_effective": 5}
    assert (f"- aegr_lof/prune vs lof_raw/none: W={expected.w_statistic:.1f}, "
            f"p={expected.p_value:.4g}, n=5\n") in report.markdown(block)


def test_markdown_lists_rows_in_matrix_order_with_titles():
    # every matrix variant, handed over in reverse
    outcomes = [(VariantSpec(d, m, seed=seed), _outcome(0.25 * seed, 0.5 + 0.1 * seed))
                for d, m in reversed(VARIANT_MATRIX) for seed in (0, 1)]
    lines = report.markdown(_build(outcomes, seeds=(0, 1))).splitlines()
    assert lines[:6] == ["# Detection benchmark", "", "Seeds: [0, 1]",
                         f"Dataset sha256: `{DIGEST}`", "",
                         "| Detection approach | Modification method | PR AUC | ROC AUC |"]
    assert lines[7:] == [
        f"| {DETECTORS[d][0]} | {MODIFIERS[m]} | 0.125 ± 0.125 | 0.550 ± 0.050 |"
        for d, m in VARIANT_MATRIX]


def test_build_and_markdown_open_no_file(monkeypatch):
    def no_open(*args, **kwargs):
        raise AssertionError("report opened a file")

    monkeypatch.setattr(builtins, "open", no_open)
    for outcomes, seeds in ((OUTCOMES, range(3)), (_pair_outcomes(range(5)), range(5))):
        report.markdown(_build(outcomes, [("aegr_lof/prune", "lof_raw/none")], seeds))


@pytest.mark.parametrize("failed", [False, True])
def test_markdown_sections_appear_only_with_entries(failed):
    outcomes = OUTCOMES if failed else [o for o in OUTCOMES
                                        if not isinstance(o[1], str)]
    text = report.markdown(_build(outcomes))
    assert ("## Failures" in text) is failed
    assert "## Wilcoxon" not in text
