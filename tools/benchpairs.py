"""Run the benchmark in alternating pairs: a base revision against the
working tree.

    python tools/benchpairs.py <rev> --workload compare-bars8 \
        --seeds 1301-1310 --out BENCH_13.json [--trace 1]

Extracts ``git archive <rev>`` (the base) and the working tree's tracked and
untracked, not ignored, files (the head) into two temporary directories.
For each seed it runs one run of each tree's own ``perfbench/repeat.py``
(``run_once``, which runs that tree's ``perfbench/run.py``) for the
``run_seconds`` of BENCHMARK.json, one tree after the other, the base first
on odd pairs and the head first on even ones, so drift over the session
falls on both sides alike.

Writes (or updates, keyed by workload and trace) a JSON file holding, per
workload and side, the seeds, each run's metrics (the five end-to-end ones,
or the per-layer ones with ``--trace 1``), and each metric's median with its
quartiles, taken as ``repeat.py`` takes them; and per metric the pairs the
head won, in the direction BENCHMARK.json gives, and ``meets_rule``: the
head won at least 9 in 10 pairs and the medians differ by more than the
base's quartile spread, the rule a claimed gain must meet. Without
``--trace`` each run also keeps the raw figures ``run.py`` prints (set-up time and rate
before scaling, and the reference-kernel speed factor that scales them),
summarized the same way under ``raw_summary``, so that a move made by the
code can be told from one made by the factor. Ends by printing one line
per end-to-end and raw figure: the base and head medians, the change in %,
the pairs the head won and ``meets_rule``. Exits 1 when a run fails or
reports a failed check, 2 when the revision cannot be extracted.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list:
    """``1301-1310`` or ``1301,1305``."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


# the unscaled figures run.py prints, with the direction that is better;
# a higher speed factor means the machine ran faster
RAW = {"raw_setup_s": "lower", "raw_work_per_s": "higher",
       "speed_factor": "higher"}


def _better(spec: dict) -> dict:
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]} | RAW


def _raw(lines: list) -> dict:
    """The RAW figures among run.py's printed ``name value unit`` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) > 1 and parts[0] in RAW:
            out[parts[0]] = float(parts[1])
    return out


def _extract(rev: str | None, dest: Path) -> None:
    """The files of ``rev``, or of the working tree when None, under dest."""
    dest.mkdir()
    if rev is None:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], cwd=REPO, capture_output=True, check=True)
        for name in listed.stdout.decode().split("\0"):
            src = REPO / name
            if name and src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return
    archive = subprocess.run(["git", "archive", rev], cwd=REPO,
                             capture_output=True)
    if archive.returncode != 0:
        raise ValueError(f"git archive {rev}: "
                         f"{archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def _repeat(tree: Path):
    """The tree's own ``perfbench/repeat.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        f"repeat_{tree.name}", tree / "perfbench" / "repeat.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spread(values: list) -> dict:
    # repeat.py's quartiles: statistics.quantiles' default (exclusive) method
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, better: dict, field: str = "metrics") -> dict:
    """Per figure of each run's ``field``: each side's median and quartiles,
    the head's pair wins, whether the medians differ by more than the
    base's quartile spread in the head's favour, and whether both hold as a
    gain may be claimed: the head won at least 9 in 10 of the pairs, and the
    medians differ beyond the base's quartile spread."""
    out = {}
    for name in runs["base"][0][field]:
        base = [r[field][name] for r in runs["base"]]
        head = [r[field][name] for r in runs["head"]]
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        b, h = _spread(base), _spread(head)
        gain = sign * (b["median"] - h["median"])
        won = sum(sign * (x - y) > 0 for x, y in zip(base, head))
        beyond = gain > b["q3"] - b["q1"]
        out[name] = {
            "base": b, "head": h,
            "change_pct": (100.0 * (h["median"] - b["median"]) / b["median"]
                           if b["median"] else None),
            "head_won": won,
            "pairs": len(base),
            "beyond_base_iqr": beyond,
            "meets_rule": 10 * won >= 9 * len(base) and beyond,
        }
    return out


def report(entry: dict, names: list) -> list:
    """One line per figure of ``names`` that the entry's summaries hold, in
    that order: base -> head medians, the change in %, the pairs the head
    won and ``meets_rule``."""
    figures = entry["summary"] | entry["raw_summary"]
    lines = []
    for name in names:
        if name not in figures:
            continue
        f = figures[name]
        change = ("n/a" if f["change_pct"] is None
                  else f"{f['change_pct']:+.2f}%")
        lines.append(f"{name:<15} {f['base']['median']:.6g} -> "
                     f"{f['head']['median']:.6g}  {change}  won "
                     f"{f['head_won']}/{f['pairs']}  meets_rule "
                     f"{f['meets_rule']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the base revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    base_commit = subprocess.run(
        ["git", "rev-parse", args.rev], cwd=REPO, capture_output=True,
        text=True).stdout.strip()
    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        try:
            _extract(args.rev, trees["base"])
        except ValueError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 2
        _extract(None, trees["head"])
        repeats = {side: _repeat(tree) for side, tree in trees.items()}
        for i, seed in enumerate(args.seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                # run.py takes the package from its working directory
                with contextlib.chdir(trees[side]):
                    text, result = repeats[side].run_once(
                        args.workload, seed, spec["run_seconds"], args.trace)
                run = {"seed": seed, "first": side == order[0],
                       "correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": {k: v["value"] for k, v
                                   in result["metrics"].items()},
                       "raw": _raw(text)}
                runs[side].append(run)
                print(f"{args.workload} seed {seed} {side}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in run["metrics"].items()
                    if args.trace == 0), flush=True)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = args.workload + (" --trace 1" if args.trace else "")
    record[key] = {
        "base": {"rev": args.rev, "commit": base_commit},
        "head": "working tree",
        "seconds": spec["run_seconds"],
        "trace": args.trace,
        "seeds": args.seeds,
        "runs": runs,
        "summary": summarize(runs, _better(spec)),
        "raw_summary": summarize(runs, _better(spec), "raw"),
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in report(record[key], [m["name"] for m in spec["end_to_end"]]
                       + list(RAW)):
        print(line)
    bad = [r for side in runs.values() for r in side
           if not r["correct"] or r["failed"]]
    for r in bad:
        print(f"error: seed {r['seed']}: {r['failed']} failed checks",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
