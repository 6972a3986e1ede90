"""Smoke test: every demo script runs to the end and prints its report, in
a fresh interpreter with warnings as errors and SciPy unimportable: the
demos, like the package, need numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sptrecon as sp

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = Path(sp.__file__).resolve().parents[1]

# runs the demo file given as its argument as __main__ once SciPy is blocked
_DEMO = """
import runpy, sys
sys.modules["scipy"] = None
runpy.run_path(sys.argv[1], run_name="__main__")
"""


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-c", _DEMO, str(path)], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_demos_found():
    assert len(DEMOS) >= 5
