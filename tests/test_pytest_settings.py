"""The repo's pytest settings turn warnings into errors; a warning that a
third-party package raises while hypothesis reports a failing property
must not end the session before the remaining tests run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_leaves_the_other_tests_running(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in result.stdout
