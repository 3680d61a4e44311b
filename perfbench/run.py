"""flowvar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload uq-bars8 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The run starts ``CHILDREN`` fresh
interpreters one after another (``worker.py``); each imports the package,
sets the workload up, and measures closed-loop rounds for an equal share of
``--seconds``. Set-up time is the median over the children, so work moved
into import or set-up shows.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``. The
lines before it name every metric with its unit, the workload-specific
metrics, and the machine and run context.
"""
import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-bars8", "uq-bars8", "uq-gmm2d", "compare-bars8")
CHILDREN = 3
DEADLINE_S = 170  # the whole run, children included, ends within this
REFERENCE_S = 0.75e-3  # reference kernel time at the speed the figures are given for
WINDOW_OPS = 100  # latency quantiles per window: >= 10 samples beyond the p90

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}

# what a unit of work and an operation are on each workload
MEANING = {
    "train-bars8": ("training pairs",
                    "optimizer step (batch 128), averaged per train call"),
    "uq-bars8": ("per-state estimates",
                 "probe split and draw + cov_closed_form or one_step_cov"),
    "uq-gmm2d": ("per-state estimates", "probe split and draw + cov_closed_form"),
    "compare-bars8": ("scored (sample, t, method) cells", "one method evaluation"),
}

# workload-specific names, each a ratio of sums the workers record
NAMED_UNITS = {
    "train_pairs_per_s": "1/s",
    "uq_states_per_s": "1/s",
    "uq_fe_per_state": "count",
    "oracle_states_per_s": "1/s",
    "compare_cells_per_s": "1/s",
    "euler_steps_per_s": "1/s",
}

# per-layer metrics of the traced run, per traced round unless the unit says
# otherwise; (name, unit, better)
KERNELS = ("forward", "backward", "tangent")
PER_LAYER = [
    ("import.flowvar_s", "s", "lower"),
    ("trace.round_s", "s/round", "lower"),
    ("trace.base_round_s", "s/round", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.untraced_s", "s/round", "lower"),
    ("trace.spans", "count/round", "lower"),
    ("data.self_s", "s/round", "lower"),
    ("data.sample_pairs.self_s", "s/round", "lower"),
    ("data.sample_pairs.calls", "count/round", "lower"),
    ("models.self_s", "s/round", "lower"),
] + [
    (f"models.{k}.{m}", unit, better)
    for k in KERNELS
    for m, unit, better in (("self_s", "s/round", "lower"),
                            ("calls", "count/round", "lower"),
                            ("rows", "count/round", "lower"),
                            ("gflop", "GFLOP/round", "lower"),
                            ("gbytes", "GB/round", "lower"),
                            ("gflops_rate", "GFLOP/s", "higher"))
] + [
    ("training.self_s", "s/round", "lower"),
    ("numerics.self_s", "s/round", "lower"),
    ("numerics.split.self_s", "s/round", "lower"),
    ("numerics.split.calls", "count/round", "lower"),
    ("numerics.draw_rademacher.self_s", "s/round", "lower"),
    ("numerics.draw_rademacher.calls", "count/round", "lower"),
    ("uq.self_s", "s/round", "lower"),
    ("uq.cov_closed_form.calls", "count/round", "lower"),
    ("uq.fe_per_state", "count", "lower"),
    ("oracle.self_s", "s/round", "lower"),
    ("oracle.calls", "count/round", "lower"),
    ("baselines.self_s", "s/round", "lower"),
    ("baselines.calls", "count/round", "lower"),
    ("metrics.self_s", "s/round", "lower"),
    ("metrics.rank.self_s", "s/round", "lower"),
    ("metrics.rank.calls", "count/round", "lower"),
    ("sampler.self_s", "s/round", "lower"),
    ("sampler.steps", "count/round", "lower"),
    ("reporting.self_s", "s/round", "lower"),
    ("reporting.calls", "count/round", "lower"),
    ("reporting.bytes", "B/round", "lower"),
]

UNITS = dict(END_TO_END, **{name: unit for name, unit, _ in PER_LAYER})

# functions whose spans make up a named group: module -> group -> qualnames
GROUPS = {
    ("data", "sample_pairs"): ("GmmTask.sample_pairs", "ImageTask.sample_pairs",
                               "MnistTask.sample_pairs", "toy_image_dataset"),
    ("models", "forward"): ("MlpVelocity.forward_cache",),
    ("models", "backward"): ("MlpVelocity.backward",),
    ("models", "tangent"): ("MlpVelocity.tangent",),
    ("numerics", "split"): ("RngState.split",),
    ("numerics", "draw_rademacher"): ("draw_rademacher",),
    ("uq", "cov_closed_form"): ("cov_closed_form",),
    ("metrics", "rank"): ("spearman", "hitrate_at_k"),
}


def quantile(values, q):
    """Linear-interpolation quantile (q in [0, 1]) of a nonempty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_children(root, args, out):
    env = dict(os.environ)
    # A second BLAS thread stalls each GEMM whenever another process holds the
    # other core of a 2-core machine (50-row tangents went from 0.3 to 16 ms
    # next to one other busy process); in interleaved runs one thread was no
    # slower on the tangent passes.
    # An OPENBLAS_NUM_THREADS already set is kept; the count used is reported.
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    end = time.monotonic() + DEADLINE_S
    results = []
    for part in range(CHILDREN):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / CHILDREN),
               "--trace", str(args.trace), "--part", str(part),
               "--out", str(out / f"part{part}")]
        # subprocess.run kills and reaps the child when the timeout expires
        proc = subprocess.run(cmd, cwd=root, env=env, text=True,
                              capture_output=True,
                              timeout=max(1.0, end - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"worker part {part} exited with {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def merged_sums(phases):
    sums = {}
    for p in phases:
        for name, (num, den) in p["sums"].items():
            acc = sums.setdefault(name, [0.0, 0.0])
            acc[0] += num
            acc[1] += den
    return {name: num / den for name, (num, den) in sums.items() if den > 0}


def windows(phase):
    """Op-latency samples of one phase cut into windows of whole rounds with
    at least WINDOW_OPS samples each; a short tail joins the last window."""
    out, cur, pos = [], [], 0
    for _, _, n in phase["per_round"]:
        cur += phase["op_ms"][pos:pos + n]
        pos += n
        if len(cur) >= WINDOW_OPS:
            out.append(cur)
            cur = []
    if cur:
        if out:
            out[-1] += cur
        else:
            out.append(cur)
    return out


def end_to_end(children):
    """Set-up time, rates and latencies at the reference machine speed.

    On a shared machine the speed a process gets drifts by tens of percent
    over minutes. Each process times a fixed reference kernel before every
    round; REFERENCE_S over its median time is the process's speed factor.
    Per process, the median per-round rate is divided by that factor, and
    set-up time and the median over windows of each latency quantile are
    multiplied by it; the run reports the median over its processes. The
    raw figures are printed next to them.
    """
    per_child = []
    for c in children:
        p = c["phases"][0]
        speed = REFERENCE_S / statistics.median(p["reference_s"])
        rate = statistics.median(work / timed for work, timed, _ in p["per_round"]
                                 if timed > 0)
        wins = windows(p)
        per_child.append({
            "setup_s": c["setup_s"] * speed,
            "work_per_s": rate / speed,
            "op_ms_p50": statistics.median(quantile(w, 0.5) for w in wins) * speed,
            "op_ms_p90": statistics.median(quantile(w, 0.9) for w in wins) * speed,
            "raw_setup_s": c["setup_s"],
            "raw_work_per_s": rate,
            "speed_factor": speed,
            "windows": len(wins),
        })
    pick = lambda key: statistics.median(k[key] for k in per_child)  # noqa: E731
    metrics = {
        "setup_s": pick("setup_s"),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "work_per_s": pick("work_per_s"),
        "op_ms_p50": pick("op_ms_p50"),
        "op_ms_p90": pick("op_ms_p90"),
    }
    phases = [c["phases"][0] for c in children]
    named = merged_sums(phases)
    if "uq_states_per_s" in named:
        named["uq_ms_p50"] = metrics["op_ms_p50"]
        named["uq_ms_p90"] = metrics["op_ms_p90"]
    named["raw_setup_s"] = pick("raw_setup_s")
    named["raw_work_per_s"] = pick("raw_work_per_s")
    named["speed_factor"] = pick("speed_factor")
    return metrics, named, sum(len(p["op_ms"]) for p in phases), sum(
        k["windows"] for k in per_child)


def per_layer(children):
    base = [c["phases"][0] for c in children]
    traced = [c["phases"][1] for c in children]
    rounds = sum(p["rounds"] for p in traced)
    agg = {}  # (module, qualname) -> [calls, self_s, rows, flops, bytes]
    for c in children:
        for mod, name, *vals in c["trace"]:
            acc = agg.setdefault((mod, name), [0, 0.0, 0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v

    def total(module, names=None, field=1):
        return sum(v[field] for (mod, name), v in agg.items()
                   if mod == module and (names is None or name in names))

    wall = sum(v[1] for v in agg.values())  # root spans' self time included
    base_round = sum(p["timed_s"] for p in base) / sum(p["rounds"] for p in base)
    traced_round = sum(p["timed_s"] for p in traced) / rounds
    m = {
        "import.flowvar_s": statistics.median(c["import_s"] for c in children),
        "trace.round_s": wall / rounds,
        "trace.base_round_s": base_round,
        "trace.overhead_pct": 100.0 * (traced_round / base_round - 1.0),
        "trace.untraced_s": total("bench") / rounds,
        "trace.spans": sum(c["spans"] for c in children) / rounds,
    }
    for (module, group), names in GROUPS.items():
        prefix = f"{module}.{group}"
        m[f"{prefix}.self_s"] = total(module, names) / rounds
        m[f"{prefix}.calls"] = total(module, names, 0) / rounds
        if module == "models":
            self_s = total(module, names)
            flops = total(module, names, 3)
            m[f"{prefix}.rows"] = total(module, names, 2) / rounds
            # divided by rounds first: equal per-round counts give equal bits
            m[f"{prefix}.gflop"] = flops / rounds / 1e9
            m[f"{prefix}.gbytes"] = total(module, names, 4) / rounds / 1e9
            m[f"{prefix}.gflops_rate"] = flops / 1e9 / self_s if self_s > 0 else 0.0
    for module in ("data", "models", "training", "numerics", "uq", "oracle",
                   "baselines", "metrics", "sampler", "reporting"):
        m[f"{module}.self_s"] = total(module) / rounds
    # toy_image_dataset runs inside sample_pairs: its time counts, its calls not
    m["data.sample_pairs.calls"] = total(
        "data", GROUPS[("data", "sample_pairs")][:3], 0) / rounds
    m["oracle.calls"] = total("oracle", field=0) / rounds
    m["baselines.calls"] = total("baselines", field=0) / rounds
    m["sampler.steps"] = total("sampler", ("euler_generate",), 2) / rounds
    m["reporting.calls"] = total("reporting", ("write_csv", "write_pgm"), 0) / rounds
    m["reporting.bytes"] = total("reporting", ("write_csv", "write_pgm"), 2) / rounds
    m["uq.fe_per_state"] = merged_sums(traced).get("uq_fe_per_state", 0.0)
    return {name: m[name] for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    src = root / "src" / "flowvar"
    if not (src / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # bytecode is compiled here, once, so the first child's set-up is not a compile
    compileall.compile_dir(str(src), quiet=1)
    out = root / ".perfbench_run"
    try:
        children = run_children(root, args, out)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out, ignore_errors=True)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    work, op = MEANING[args.workload]
    ctx = dict(children[0]["context"], commit=commit(root),
               source_sha256=source_digest(src), seed=args.seed,
               seconds=args.seconds, children=CHILDREN, trace=args.trace,
               workload=args.workload, sizes=children[0]["sizes"])
    print("context " + json.dumps(ctx, sort_keys=True))
    print(f"workload {args.workload}: work = {work}; op = {op}")
    for c in children:
        for problem in c["problems"]:
            print(f"FAILED CHECK: {problem}")
    if args.trace:
        metrics = per_layer(children)
        for name, value in metrics.items():
            print(f"  {name:34s} {value:14.6g} {UNITS[name]}")
        modules = sum(v for k, v in metrics.items()
                      if k.count(".") == 1 and k.endswith(".self_s"))
        print(f"  module self times {modules:.6g} s/round + untraced "
              f"{metrics['trace.untraced_s']:.6g} s/round = traced wall "
              f"{metrics['trace.round_s']:.6g} s/round (GFLOP and GB computed "
              "from layer shapes)")
    else:
        metrics, named, n_ops, n_windows = end_to_end(children)
        for name, value in metrics.items():
            print(f"  {name:22s} {value:14.6g} {END_TO_END[name]}")
        rounds = sum(len(c["phases"][0]["per_round"]) for c in children)
        print(f"  samples: {rounds} rounds, {n_ops} op latencies in "
              f"{n_windows} windows")
        named["failed_frac"] = failed / attempted if attempted else 0.0
        units = dict(NAMED_UNITS, uq_ms_p50="ms", uq_ms_p90="ms", failed_frac="1",
                     raw_setup_s="s", raw_work_per_s="1/s", speed_factor="1")
        for name, value in named.items():
            print(f"  {name:22s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
