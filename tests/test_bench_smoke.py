"""Each benchmark workload builds and runs its public-API calls without a
failure: a deleted or reshaped call the benchmark makes fails here rather
than only when the benchmark runs.

Each case runs ``perfbench/worker.py`` for 0.1 s in a fresh interpreter that
finds the same package as this one, at one BLAS thread.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowvar

_WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["train-bars8", "uq-bars8", "uq-gmm2d",
                                      "compare-bars8"])
def test_workload_runs_without_failures(workload, tmp_path):
    src = os.path.dirname(os.path.dirname(flowvar.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(_WORKER), "--workload", workload,
                          "--seed", "1", "--seconds", "0.1",
                          "--out", str(tmp_path)],
                         capture_output=True, text=True, timeout=120,
                         env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
