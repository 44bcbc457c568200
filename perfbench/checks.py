"""Output checks on the CLI's ``report.json`` and the AUC summaries.

Every check is counted. A failed check, like a failed (variant, seed) run,
counts against the run's completed share and makes the benchmark exit
non-zero.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any


def report_block_bytes(report: dict[str, Any]) -> bytes:
    """Canonical bytes of a ``report`` block, as the CLI serialises it."""
    return json.dumps(report, indent=2, sort_keys=True).encode("utf-8")


def auc_means(report: dict[str, Any]) -> tuple[float, float]:
    """(mean PR AUC, mean ROC AUC) over every row of the report."""
    rows = report["rows"]
    if not rows:
        raise ValueError("report has no rows")
    return (statistics.fmean(r["pr_auc"] for r in rows),
            statistics.fmean(r["roc_auc"] for r in rows))


def pruning_wins(report: dict[str, Any]) -> tuple[int, int]:
    """Seeds on which aegr_lof/prune beats lof_raw/none on PR AUC, of the
    seeds where both ran."""
    pr = {(r["detector"], r["modifier"], r["seed"]): r["pr_auc"]
          for r in report["rows"]}
    seeds = [s for s in report["config"]["seeds"]
             if ("aegr_lof", "prune", s) in pr and ("lof_raw", "none", s) in pr]
    wins = sum(pr[("aegr_lof", "prune", s)] > pr[("lof_raw", "none", s)]
               for s in seeds)
    return wins, len(seeds)


class Checks:
    """Tally of output checks and (variant, seed) runs."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []
        self.variant_runs = 0
        self.variant_failures = 0
        self._first_report: bytes | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        if not ok:
            print(f"CHECK FAILED: {name} {detail}".rstrip(), file=sys.stderr)
        return bool(ok)

    @property
    def attempted(self) -> int:
        return self.variant_runs + len(self.results)

    @property
    def failed(self) -> int:
        return self.variant_failures + sum(1 for _, ok, _ in self.results if not ok)

    def run_report(self, label: str, exit_code: int,
                   report: dict[str, Any] | None, expected_rows: int,
                   directional: bool) -> None:
        """Check one ``run`` invocation and count its variant runs.

        ``directional`` adds the criterion-8 check that pruning beats
        stand-alone LOF on PR AUC on at least 3 of 5 seeds. Every report
        after the first must match the first byte for byte.
        """
        self.variant_runs += expected_rows
        self.check(f"{label}: exit code 0", exit_code == 0, f"got {exit_code}")
        if report is None:
            self.variant_failures += expected_rows
            self.check(f"{label}: report.json written", False)
            return
        rows, failures = report["rows"], report["failures"]
        self.variant_failures += min(expected_rows,
                                     max(len(failures), expected_rows - len(rows)))
        self.check(f"{label}: {expected_rows} rows", len(rows) == expected_rows,
                   f"got {len(rows)}")
        self.check(f"{label}: no failures", not failures, str(failures))
        self.check(f"{label}: AUCs within [0, 1]",
                   all(0.0 <= r[k] <= 1.0 for r in rows
                       for k in ("pr_auc", "roc_auc")))
        if directional:
            wins, seeds = pruning_wins(report)
            self.check(f"{label}: aegr_lof/prune beats lof_raw/none on >= 3 of 5 seeds",
                       seeds == 5 and wins >= 3, f"{wins} of {seeds}")
        block = report_block_bytes(report)
        if self._first_report is None:
            self._first_report = block
        else:
            self.check(f"{label}: report block identical to the first run's",
                       block == self._first_report)
