"""Importing the command line must load neither the process-pool
machinery nor a test dependency.

``multiprocessing`` and ``concurrent.futures.process`` cost every
``prepare`` and one-group ``run`` their import time, so ``cli`` imports
them only where a run starts worker processes. ``pyproject.toml``
declares numpy as the only runtime dependency; scipy, hypothesis and
pytest are test dependencies, which an installed package may lack."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# prints which of the modules named in its arguments a fresh import of
# the command line loaded
PROBE = '''\
import sys

import aegrlof.cli

print(" ".join(sorted(name for name in sys.argv[1:] if name in sys.modules)))
'''


def _loaded_by_importing_cli(*names: str) -> list[str]:
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *names],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_importing_cli_loads_no_process_pool():
    assert _loaded_by_importing_cli("multiprocessing",
                                    "concurrent.futures.process") == []


def test_importing_cli_loads_no_test_dependency():
    assert _loaded_by_importing_cli("scipy", "hypothesis", "pytest") == []
