"""The benchmark harness loads ``tests/conftest.py`` outside pytest to write
the criterion-8 data, and its memory figures start from whatever that file
imports. Loading the file must therefore not import pytest."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

PROBE = '''\
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("suite_conftest", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(" ".join(sorted(name for name in sys.modules
                      if name.split(".")[0] in ("pytest", "_pytest"))))
'''


def test_loading_conftest_imports_no_pytest():
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(TESTS / "conftest.py")],
        env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
