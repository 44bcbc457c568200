"""Ranking metrics and the paired significance test used by the benchmark.

ROC AUC is computed as the normalized Mann-Whitney statistic (probability
that a random positive outranks a random negative, ties counted half). PR
AUC is average precision with tied scores processed as one threshold block,
which makes the value invariant to permutations among ties and avoids the
optimism of trapezoidal interpolation in PR space. The Wilcoxon signed-rank
test enumerates the exact null distribution for up to 12 non-zero
differences and falls back on the tie-corrected normal approximation above
that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The fewest non-zero paired differences the signed-rank test takes.
WILCOXON_MIN_PAIRS = 5


@dataclass(frozen=True)
class MetricResult:
    roc_auc: float
    pr_auc: float
    n_pos: int
    n_neg: int


@dataclass(frozen=True)
class WilcoxonResult:
    w_statistic: float
    p_value: float
    n_effective: int


def _check_binary(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(
            f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors"
        )
    bad = set(np.unique(labels)) - {0, 1}
    if bad:
        raise ValueError(f"labels must be 0/1, found {sorted(bad)}")
    # NaN and inf have no agreed rank, and the two AUCs would rank them apart
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores, labels.astype(np.int64)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    cumulative = np.cumsum(counts)
    avg = cumulative - (counts - 1) / 2.0
    return avg[inverse]


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outranks a random negative (ties 1/2).

    Raises:
        ValueError: Non-finite scores, or fewer than one positive or one
            negative label.
    """
    scores, labels = _check_binary(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"ROC AUC needs both classes (n_pos={n_pos}, n_neg={n_neg})"
        )
    ranks = _average_ranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision over a descending-score sweep, ties as one block.

    Raises:
        ValueError: Non-finite scores, or no positive labels.
    """
    scores, labels = _check_binary(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("PR AUC needs at least one positive label")

    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # last index of each tie block
    block_end = np.nonzero(
        np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    )[0]
    tp_cum = np.cumsum(sorted_labels)[block_end]
    predicted = block_end + 1
    precision = tp_cum / predicted
    delta_tp = np.diff(np.concatenate(([0], tp_cum)))
    return float((precision * delta_tp).sum() / n_pos)


def compute_metrics(scores: np.ndarray, labels: np.ndarray) -> MetricResult:
    """Both AUCs plus class counts; requires finite scores and both
    classes present."""
    scores, labels = _check_binary(scores, labels)
    n_pos = int(labels.sum())
    return MetricResult(
        roc_auc=roc_auc(scores, labels),
        pr_auc=pr_auc(scores, labels),
        n_pos=n_pos,
        n_neg=labels.size - n_pos,
    )


def wilcoxon_signed_rank(
    a: np.ndarray, b: np.ndarray, alternative: str = "two-sided"
) -> WilcoxonResult:
    """Paired Wilcoxon signed-rank test on differences a - b.

    The statistic is the signed rank sum W (positive when a tends to
    exceed b). Zero differences are dropped; at least
    ``WILCOXON_MIN_PAIRS`` (5) must remain. For
    up to 12 remaining differences the p-value is exact by enumerating
    all sign assignments; beyond that a tie-corrected normal
    approximation is used.

    Args:
        alternative: "two-sided" (default), "greater" (a > b), or "less".

    Raises:
        ValueError: Length mismatch, all differences zero, or fewer than
            ``WILCOXON_MIN_PAIRS`` non-zero differences.
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative {alternative!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"paired vectors required, got {a.shape} and {b.shape}")
    diff = a - b
    diff = diff[diff != 0.0]
    n_eff = diff.size
    if n_eff == 0:
        raise ValueError("all differences zero")
    if n_eff < WILCOXON_MIN_PAIRS:
        raise ValueError(f"need at least {WILCOXON_MIN_PAIRS} non-zero "
                         f"differences, got {n_eff}")

    ranks = _average_ranks(np.abs(diff))
    w = float(np.sum(np.sign(diff) * ranks))

    if n_eff <= 12:
        # Exact: W under H0 over all 2^n equiprobable sign assignments.
        signs = np.where(
            (np.arange(2**n_eff)[:, None] >> np.arange(n_eff)) & 1, 1.0, -1.0
        )
        w_all = signs @ ranks
        tol = 1e-12
        if alternative == "two-sided":
            p = float(np.mean(np.abs(w_all) >= abs(w) - tol))
        elif alternative == "greater":
            p = float(np.mean(w_all >= w - tol))
        else:
            p = float(np.mean(w_all <= w + tol))
    else:
        # Var[W] = sum of squared ranks; average ranks make this identical
        # to the classic tie-corrected variance.
        sigma = math.sqrt(float(np.sum(ranks * ranks)))
        z = w / sigma
        if alternative == "two-sided":
            p = math.erfc(abs(z) / math.sqrt(2.0))
        elif alternative == "greater":
            p = 0.5 * math.erfc(z / math.sqrt(2.0))
        else:
            p = 0.5 * math.erfc(-z / math.sqrt(2.0))

    return WilcoxonResult(w_statistic=w, p_value=min(p, 1.0), n_effective=n_eff)
