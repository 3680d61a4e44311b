"""Check the benchmark's outputs against its own definition.

    python3 perfbench/selfcheck.py [--seconds 6]

Run from the root of a source checkout. For every workload it makes one
untraced run and two traced runs with the same seed, and checks that

- each run is correct and its metric names are exactly the ``end_to_end``
  or ``per_layer`` names of BENCHMARK.json, with the units given there;
- every end-to-end value is positive;
- every count metric of the traced runs (calls, rows, spans, forward
  equivalents, computed GFLOP and GB) is identical in both runs: counts
  depend on the code and the seed only, never on timing.

Exits 1 on the first kind of failure it reports, 0 when all checks hold.
"""
import argparse
import json
import sys
from pathlib import Path

from repeat import run_once

COUNT_UNITS = ("count", "count/round", "GFLOP/round", "GB/round")


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for trace in (0, 1, 1):
            _, res = run_once(workload, args.seed, args.seconds, trace)
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace {trace}: metric names or "
                                "units differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace {trace}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
            if trace == 0:
                zero = [n for n, m in res["metrics"].items() if not m["value"] > 0]
                if zero:
                    problems.append(f"{workload}: non-positive {zero}")
            else:
                results.append(res["metrics"])
        first, second = results
        counts = [n for n, m in first.items() if m["unit"] in COUNT_UNITS]
        moved = [n for n in counts if first[n]["value"] != second[n]["value"]]
        if moved:
            problems.append(f"{workload}: counts differ between runs: {moved}")
        print(f"{workload}: {len(counts)} count metrics compared, "
              f"{len(moved)} differ")
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
