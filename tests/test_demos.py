"""Each demo runs to the end in a fresh interpreter, with nothing on stderr.

``demos/04_baselines_and_metrics.py`` is left out: it trains a five-member
ensemble and takes about 12 s at one BLAS thread, against at most about
3 s for each of the others.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowvar

_DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_closed_form_vs_oracle.py",
    "02_uncertainty_along_trajectory.py",
    "03_one_step_uncertainty.py",
    "05_probe_ablation.py",
])
def test_demo_runs_cleanly(name, tmp_path):
    # a fresh interpreter that finds the same package as this one, run from
    # an empty directory so that a demo writing files would not touch the
    # tree
    src = os.path.dirname(os.path.dirname(flowvar.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(_DEMOS / name)],
                         capture_output=True, text=True, timeout=120,
                         env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout
