"""Importing the command line must not load the process-pool machinery:
``multiprocessing`` and ``concurrent.futures.process`` cost every
``prepare`` and one-group ``run`` their import time, so ``cli`` imports
them only where a run starts worker processes."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = '''\
import sys

import aegrlof.cli

print(" ".join(sorted(name for name in ("multiprocessing", "concurrent.futures.process")
                      if name in sys.modules)))
'''


def test_importing_cli_loads_no_process_pool():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
