"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py                      # every workload, one seed
    python3 perfbench/repeat.py --runs 10 --first-seed 1 --workload uq-bars8

Run from the root of a source checkout. Each run is ``run.py`` with the
``run_seconds`` of BENCHMARK.json and its own seed. The script prints every
run's metrics by name with their units, then per workload and metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to a third of the metric's bound. It exits 1 when a
run is not correct or a spread reaches a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, text=True, capture_output=True, timeout=200)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1] + [f"run wall {elapsed:.1f} s"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]],
                    help="repeatable; default every workload")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quiet", action="store_true", help="summary lines only")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            text, result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not args.quiet:
                print(f"== {workload} seed {seed}")
                print("\n".join(text))
            else:
                print(f"{workload} seed {seed}: {text[-1]}")
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"NOT CORRECT: {workload} seed {seed}: "
                      f"{result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        summary[workload] = {}
        for name, (vals, unit) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  SPREAD >= bound/3"
                ok = False
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "unit": unit,
                                       "runs": len(vals)}
            print(f"{workload:14s} {name:34s} median {med:12.6g} {unit:12s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}"
                  + (f" (bound/3 {bound / 3:.2%})" if bound is not None else "")
                  + flag)
            print(f"{'':14s} {'':34s} runs " + " ".join(f"{v:.5g}" for v in vals))
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
