"""The run report: the ``report`` block of report.json, and report.md.

:func:`build` turns a run's head outcomes into the block, and
:func:`markdown` renders the block as report.md. Both are pure: they open
no file and read no clock, so the block of given outcomes is the same
whatever order the heads finished in.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

import numpy as np

from . import metrics
from .pipeline import DETECTORS, MODIFIERS, VARIANT_MATRIX, VariantSpec

# A head and its outcome: its report row's metrics and run metadata, or the
# error that stopped it; a failure's line in stderr and report.md.
Outcome = tuple[VariantSpec, dict[str, Any] | str]
FAILURE_LINE = "{variant} seed {seed}: {error}"


def build(config: dict[str, Any], seeds: list[int], dataset_sha256: str,
          wilcoxon_pairs: list[list[str]], outcomes: list[Outcome]) -> dict[str, Any]:
    """The ``report`` block: ``config`` with the run's seeds, the digest, a
    row or a failure per head in spec order, and a Wilcoxon entry per pair."""
    rows, failures = [], []
    for spec, outcome in sorted(outcomes, key=lambda pair: pair[0]):
        head = dict(detector=spec.detector, modifier=spec.modifier, seed=spec.seed)
        if isinstance(outcome, str):
            failures.append(dict(variant=spec.key, seed=spec.seed, error=outcome))
        else:
            rows.append({**head, **outcome,
                         "metadata": {**outcome["metadata"], **head}})
    return {
        "config": {**config, "seeds": seeds},
        "dataset_sha256": dataset_sha256,
        "rows": rows,
        "wilcoxon": _wilcoxon(wilcoxon_pairs, outcomes, seeds),
        "failures": failures,
    }


def _wilcoxon(pairs: list[list[str]], outcomes: list[Outcome],
              seeds: list[int]) -> list[dict[str, Any]]:
    pr_auc = {(spec.key, spec.seed): outcome["pr_auc"]
              for spec, outcome in outcomes if not isinstance(outcome, str)}
    out = []
    for pair in pairs:
        entry: dict[str, Any] = {"pair": list(pair), "metric": "pr_auc"}
        common = [s for s in seeds if all((key, s) in pr_auc for key in pair)]
        if len(common) < metrics.WILCOXON_MIN_PAIRS:
            entry["error"] = (f"needs >= {metrics.WILCOXON_MIN_PAIRS} completed "
                              f"seeds for both variants, got {len(common)}")
        else:
            a, b = (np.array([pr_auc[key, s] for s in common]) for key in pair)
            try:
                entry.update(asdict(metrics.wilcoxon_signed_rank(a, b)))
            except ValueError as exc:
                entry["error"] = str(exc)
        out.append(entry)
    return out


def markdown(block: dict[str, Any]) -> str:
    """report.md: AUC mean ± std per variant in ``VARIANT_MATRIX`` order."""
    grouped: dict[tuple[str, str], list[dict[str, Any]]] = {}
    for row in block["rows"]:
        grouped.setdefault((row["detector"], row["modifier"]), []).append(row)

    lines = [
        "# Detection benchmark",
        "",
        f"Seeds: {block['config']['seeds']}",
        f"Dataset sha256: `{block['dataset_sha256']}`",
        "",
        "| Detection approach | Modification method | PR AUC | ROC AUC |",
        "|---|---|---|---|",
    ]
    for detector, modifier in (key for key in VARIANT_MATRIX if key in grouped):
        entries = grouped[detector, modifier]
        pr = np.array([e["pr_auc"] for e in entries])
        roc = np.array([e["roc_auc"] for e in entries])
        lines.append("| {} | {} | {:.3f} ± {:.3f} | {:.3f} ± {:.3f} |".format(
            DETECTORS[detector][0], MODIFIERS[modifier],
            pr.mean(), pr.std(), roc.mean(), roc.std()))
    if block["wilcoxon"]:
        lines += ["", "## Wilcoxon signed-rank (PR AUC across seeds)", ""]
        for entry in block["wilcoxon"]:
            result = (f"not computed ({entry['error']})" if "error" in entry else
                      f"W={entry['w_statistic']:.1f}, p={entry['p_value']:.4g}, "
                      f"n={entry['n_effective']}")
            lines.append(f"- {entry['pair'][0]} vs {entry['pair'][1]}: {result}")
    if block["failures"]:
        lines += ["", "## Failures", ""]
        lines += ["- " + FAILURE_LINE.format(**f) for f in block["failures"]]
    return "\n".join(lines) + "\n"
