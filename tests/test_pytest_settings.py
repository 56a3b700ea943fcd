"""The test run's own settings: a failing property test is reported as a
failed test, and the run goes on."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_it():
    pass
'''


def test_a_failing_property_fails_its_test_not_the_run(tmp_path):
    # Printing the failing example makes the Hypothesis plugin import
    # libcst, which warns that mypy_extensions.TypedDict is deprecated.
    # Under filterwarnings = error that warning ended the run with exit 3
    # (INTERNALERROR); pyproject.toml ignores that one warning.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            str(tmp_path / "test_property.py"),
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env=dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=str(tmp_path / ".hypothesis")),
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
