"""Benchmark of the aegrlof CLI on three seeded synthetic workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pendigits-matrix --seed 0 \
        --seconds 45 --trace 0

The benchmark writes the workload's CSV and config, then drives the real
CLI (``python -m aegrlof.cli prepare`` and ``run``) as subprocesses with
the BLAS thread count pinned to 1, so jobs x BLAS threads never exceeds
the two cores the figures were taken on.

Every workload's input is fixed, whatever ``--seed`` is, so the AUC means
repeat exactly and any change in them is a change in results; the seed is
recorded with the result.

``--trace 0`` measures the end-to-end metrics untraced: ``run``
alternates ``--jobs 1``, ``--jobs 2``, ``--jobs 1`` and keeps alternating
while the next invocation fits in ``--seconds``. Before every ``run`` and
after the last, ``prepare`` is repeated for at least ``SETUP_BURST_S``, so
its samples spread over the whole measurement; medians are reported.
``--trace 1`` runs ``prepare``, ``run --jobs 1`` untraced, then
``run --jobs 1`` and ``run --jobs 2`` under ``perfbench/tracing.py``, and
reports the per-layer metrics.

Every ``run`` report is checked (exit code, row count, no failures, AUCs
in [0, 1], report block byte-identical across runs, and on
pendigits-matrix the criterion-8 pruning claim). The last stdout line is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is non-zero when any check fails. The same result, with an
environment record, is written to ``perfbench/_results/``; traced runs
also leave their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import Checks, auc_means  # noqa: E402
from tracing import layer_metrics, load_spans, span_cost_s  # noqa: E402
from workloads import EXPECTED_ROWS, WORKLOADS, make_workload  # noqa: E402

BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0

# The host runs in fast and slow phases of several seconds, so prepare is
# sampled in short bursts spread over the whole measurement, not all at once.
SETUP_BURST_S = 1.0
# A single 15 s run --jobs 1 varies by +-25% on a shared 2-vCPU host, so
# every run takes at least two samples of it.
MIN_J1_RUNS = 2


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    exit_code: int
    peak_rss_mb: float


class Bench:
    """One benchmark run: a work directory, its child environment and the
    tally of checks."""

    def __init__(self, root: Path, workload: str, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.out = work / "out"
        self.checks = Checks()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env.update({var: str(BLAS_THREADS) for var in _BLAS_VARS})
        self._log_index = 0

    def _invoke(self, argv: list[str]) -> Invocation:
        self._log_index += 1
        log_path = self.work / f"child{self._log_index:02d}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS (ru_maxrss, KiB)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"command failed ({proc.returncode}): {' '.join(argv)}\n{tail}",
                  file=sys.stderr)
        return Invocation(wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                          usage.ru_maxrss / 1024.0)

    def cli(self, *args: str, spans: Path | None = None) -> Invocation:
        if spans is None:
            argv = [sys.executable, "-m", "aegrlof.cli"]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"),
                    "--spans", str(spans), "--"]
        return self._invoke([*argv, *args])

    def prepare(self, config: Path, spans: Path | None = None) -> Invocation:
        inv = self.cli("prepare", "--config", str(config), "--out", str(self.out),
                       spans=spans)
        if not self.checks.check("prepare: exit code 0", inv.exit_code == 0,
                                 f"got {inv.exit_code}"):
            raise RuntimeError("prepare failed")
        return inv

    def run(self, config: Path, jobs: int, label: str,
            spans: Path | None = None) -> tuple[Invocation, dict | None]:
        report_path = self.out / "report.json"
        report_path.unlink(missing_ok=True)
        inv = self.cli("run", "--config", str(config), "--out", str(self.out),
                       "--jobs", str(jobs), spans=spans)
        report = None
        if report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))["report"]
        self.checks.run_report(label, inv.exit_code, report,
                               EXPECTED_ROWS[self.workload],
                               directional=self.workload == "pendigits-matrix")
        return inv, report

    def cache_sha256(self) -> str:
        summary = json.loads((self.out / "prepare_summary.json").read_text())
        return summary["cache_sha256"]


def measure_end_to_end(bench: Bench, config: Path, seconds: float) -> dict:
    start = time.perf_counter()
    setup, caches = [], set()

    def setup_burst() -> None:
        burst_start = time.perf_counter()
        while True:
            setup.append(bench.prepare(config).wall_s)
            caches.add(bench.cache_sha256())
            if time.perf_counter() - burst_start >= SETUP_BURST_S:
                break

    # run --jobs 1, --jobs 2, --jobs 1, then keep alternating while the next
    # invocation, timed by its previous one, still fits in `seconds`
    walls: dict[int, list[float]] = {1: [], 2: []}
    rss, cpu, first_report = [], [], None
    jobs = 1
    while True:
        setup_burst()
        label = f"run --jobs {jobs} #{len(walls[jobs]) + 1}"
        inv, report = bench.run(config, jobs, label)
        walls[jobs].append(inv.wall_s)
        cpu.append(inv.cpu_s)
        if jobs == 1:
            rss.append(inv.peak_rss_mb)
            first_report = first_report or report
        jobs = 3 - jobs
        if (len(walls[1]) >= MIN_J1_RUNS and walls[2]
                and time.perf_counter() - start + walls[jobs][-1] > seconds):
            break
    setup_burst()
    bench.checks.check("prepare: cache byte-identical across repeats",
                       len(caches) == 1)
    run_s, run_j2_s = walls[1], walls[2]

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "run_j2_s": (statistics.median(run_j2_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    if first_report is not None:
        pr, roc = auc_means(first_report)
        metrics["pr_auc_mean"] = (pr, "ratio")
        metrics["roc_auc_mean"] = (roc, "ratio")
    samples = {"setup_s": setup, "run_s": run_s, "run_j2_s": run_j2_s,
               "peak_rss_mb": rss, "run_cpu_s": cpu}
    return {"metrics": metrics, "samples": samples}


def measure_layers(bench: Bench, config: Path, results: Path, stem: str) -> dict:
    spans = {phase: results / f"{stem}-spans-{phase}.json"
             for phase in ("prepare", "run", "run_j2")}
    bench.prepare(config, spans=spans["prepare"])
    untraced, _ = bench.run(config, 1, "run --jobs 1 (untraced)")
    traced, report = bench.run(config, 1, "run --jobs 1 (traced)",
                               spans=spans["run"])
    bench.run(config, 2, "run --jobs 2 (traced)", spans=spans["run_j2"])
    if report is None or not all(p.exists() for p in spans.values()):
        raise RuntimeError("traced run left no report or spans")
    reference_rows = sum(r["metadata"].get("reference_rows", 0)
                         for r in report["rows"])
    cost = span_cost_s()
    metrics = layer_metrics(load_spans(spans["prepare"]), load_spans(spans["run"]),
                            load_spans(spans["run_j2"]), reference_rows,
                            traced.wall_s, cost)
    samples = {"traced_run_s": traced.wall_s, "untraced_run_s": untraced.wall_s,
               "span_cost_s": cost}
    return {"metrics": metrics, "samples": samples}


def environment_record(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="aegrlof CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "aegrlof" / "cli.py").is_file():
        print(f"error: no aegrlof sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    # the pendigits-matrix generator lives in the test suite and imports aegrlof
    sys.path.insert(0, str(root / "src"))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = BENCH_DIR / "_results"
    results.mkdir(exist_ok=True)
    work = BENCH_DIR / "_work" / f"{stem}-{os.getpid()}"
    bench = Bench(root, args.workload, work)
    measured: dict = {"metrics": {}, "samples": {}}
    try:
        config = make_workload(args.workload, work)
        if args.trace:
            measured = measure_layers(bench, config, results, stem)
        else:
            measured = measure_end_to_end(bench, config, args.seconds)
    except RuntimeError as exc:
        bench.checks.check("benchmark completed", False, str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = bench.checks
    metrics = dict(measured["metrics"])
    if not args.trace and checks.attempted:
        metrics["completed_share"] = (1.0 - checks.failed / checks.attempted, "ratio")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "result": result, "samples": measured["samples"],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
        "environment": environment_record(root),
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
