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


def test_meets_rule_needs_nine_in_ten_wins_beyond_the_base_spread():
    spec = {"end_to_end": [{"name": "op_ms_p50", "better": "lower"},
                           {"name": "work_per_s", "better": "higher"}],
            "per_layer": []}
    better = benchpairs._better(spec)

    def rule(base, head, name="op_ms_p50"):
        runs = {side: [{"metrics": {name: v}} for v in values]
                for side, values in (("base", base), ("head", head))}
        return benchpairs.summarize(runs, better)[name]

    base = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    # 9 of 10 won, the medians 0.15 apart against a base spread of 0.055
    head = [v - 0.15 for v in base[:9]] + [1.10]
    got = rule(base, head)
    assert (got["head_won"], got["beyond_base_iqr"], got["meets_rule"]) == (
        9, True, True)
    # 8 of 10 won: the spread alone does not meet the rule
    got = rule(base, head[:8] + [1.10, 1.10])
    assert (got["head_won"], got["beyond_base_iqr"], got["meets_rule"]) == (
        8, True, False)
    # 10 of 10 won by less than the base spread
    got = rule(base, [v - 0.01 for v in base])
    assert (got["head_won"], got["beyond_base_iqr"], got["meets_rule"]) == (
        10, False, False)
    # a higher-is-better figure wins upwards; 3 of 3 pairs meet it
    got = rule([100.0, 101.0, 102.0], [120.0, 121.0, 122.0], "work_per_s")
    assert got["meets_rule"]
    assert not rule([100.0, 101.0, 102.0], [90.0, 91.0, 92.0],
                    "work_per_s")["meets_rule"]


def test_report_prints_one_line_per_end_to_end_and_raw_figure():
    spec = {"end_to_end": [{"name": "setup_s", "better": "lower"},
                           {"name": "work_per_s", "better": "higher"}],
            "per_layer": []}
    better = benchpairs._better(spec)
    runs = {side: [{"metrics": {"setup_s": 0.1, "work_per_s": rate},
                    "raw": benchpairs._raw(_lines(0.1, rate, 1.0))}
                   for rate in rates]
            for side, rates in (("base", [100.0, 101.0, 102.0]),
                                ("head", [99.0, 100.0, 101.0]))}
    entry = {"summary": benchpairs.summarize(runs, better),
             "raw_summary": benchpairs.summarize(runs, better, "raw")}
    names = ["setup_s", "work_per_s", "op_ms_p50"] + list(benchpairs.RAW)
    lines = benchpairs.report(entry, names)
    # a figure no run recorded prints nothing
    assert [line.split()[0] for line in lines] == [
        "setup_s", "work_per_s", "raw_setup_s", "raw_work_per_s",
        "speed_factor"]
    assert lines[1].split() == ["work_per_s", "101", "->", "100", "-0.99%",
                                "won", "0/3", "meets_rule", "False"]
    assert lines[0].split()[1:5] == ["0.1", "->", "0.1", "+0.00%"]
