"""The record-keeping of tools/benchpairs.py (its paired runs are too slow
for the suite; run the tool itself for those)."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_spec = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)


def _lines(setup, rate, factor):
    """The tail of run.py's printout for one run, as run_once returns it."""
    return ["workload uq-gmm2d: work = states; op = one estimate",
            f"  setup_s                {setup * factor:14.6g} s",
            f"  work_per_s             {rate / factor:14.6g} 1/s",
            f"  raw_setup_s            {setup:14.6g} s",
            f"  raw_work_per_s         {rate:14.6g} 1/s",
            f"  speed_factor           {factor:14.6g} 1",
            "run wall 21.3 s"]


def test_raw_figures_are_kept_and_summarized():
    assert benchpairs._raw(_lines(0.105, 5400.0, 1.65)) == {
        "raw_setup_s": 0.105, "raw_work_per_s": 5400.0, "speed_factor": 1.65}
    assert benchpairs._raw(["  models.self_s   0.01 s/round"]) == {}
    runs = {side: [{"raw": benchpairs._raw(_lines(0.1, rate, factor))}
                   for rate, factor in pairs]
            for side, pairs in (("base", [(5000.0, 1.6), (5100.0, 1.7)]),
                                ("head", [(5500.0, 1.6), (5000.0, 1.5)]))}
    spec = {"end_to_end": [], "per_layer": []}
    summary = benchpairs.summarize(runs, benchpairs._better(spec), "raw")
    assert set(summary) == {"raw_setup_s", "raw_work_per_s", "speed_factor"}
    assert summary["raw_work_per_s"]["head_won"] == 1
    assert summary["speed_factor"]["head_won"] == 0
    assert summary["speed_factor"]["head"]["median"] == pytest.approx(1.55)
