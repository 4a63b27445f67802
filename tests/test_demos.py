"""Each demo runs to completion against the package in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qubit_dephasing

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty glob would otherwise pass by collecting nothing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(tmp_path, demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qubit_dephasing.__file__)))
    out = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.strip()
