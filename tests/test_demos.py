"""Every demo script runs to completion against the sources in src/ and
prints the bytes recorded in tests/demo_output/, whatever the hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUT = Path(__file__).resolve().parent / "demo_output"


def _assert_prints_the_recorded_output(demo: Path, hash_seed: str | None) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONHASHSEED", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (OUTPUT / f"{demo.stem}.txt").read_bytes()


def test_demos_exist():
    assert DEMOS
    assert sorted(p.stem for p in OUTPUT.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    _assert_prints_the_recorded_output(demo, None)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output_ignores_the_hash_seed(demo):
    _assert_prints_the_recorded_output(demo, "7")
