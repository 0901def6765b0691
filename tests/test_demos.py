"""Smoke test: every demo script runs to completion and prints its walkthrough."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wishartmix

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # The child interpreter imports the same package as this process,
    # whether it is installed or only on pytest's path.
    src = os.path.dirname(os.path.dirname(wishartmix.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
