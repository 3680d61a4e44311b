"""One fresh-interpreter share of a benchmark run.

Started by ``run.py`` with ``src`` on PYTHONPATH. It imports the package,
builds the workload (config, task and the models the workload needs), then
runs closed-loop rounds of public-API calls for its share of the run's
seconds, checks every result outside the timed calls, and prints one JSON
object on stdout.

With ``--trace 1`` the share is split into two halves: the first runs
untraced, the second with every public function of the traced modules
wrapped by ``tracer.Tracer``. The per-round difference between the halves
is the tracing overhead.
"""
import time

T_START = time.perf_counter()  # setup_s runs from here to the first timed call

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
from pathlib import Path

import flowvar as fv
import flowvar.cli as fv_cli  # the subcommand driver's import is part of set-up
from flowvar import metrics as fv_metrics

T_IMPORTED = time.perf_counter()

import numpy as np

from tracer import Tracer

SETUP_EPOCHS = 1  # epochs of each model a UQ or compare workload trains in set-up
TRAIN_EPOCHS = 1  # epochs of each model a train-bars8 round trains
N_STATES = 16  # evaluation states per UQ round, as `flowvar uq` uses
CHECK_EVERY = 4  # re-derive every 4th estimate from the dense Jacobian
CMP_SAMPLES = 64  # samples per consistency cell, as `flowvar consistency --n`
CMP_NOISE = 0.5  # corruption level, as `flowvar consistency --noise`
REL_TOL = 1e-9  # Jacobian re-derivation: same arithmetic, other GEMM order
ORACLE_TOL = 1e-5  # criterion-1 tolerance of the analytic identity

FAILED = object()

# A fixed reference kernel, independent of the package, timed before every
# round: seeded generator set-up, a sign draw, and the small GEMM + tanh chain
# of a batch-1 forward and a 64-row tangent pass. Its time tracks the speed
# the shared machine gives this process at that moment.
_REF = np.random.default_rng(0)
_REF_W = [_REF.standard_normal(s) * 0.1 for s in ((128, 80), (128, 128), (64, 128))]
_REF_X = (_REF.standard_normal((1, 80)), _REF.standard_normal((64, 80)))


def reference_kernel_s():
    t0 = time.perf_counter()
    for k in range(3):
        g = np.random.default_rng(np.random.SeedSequence(k, spawn_key=(1, 2)))
        acc = float(g.integers(0, 2, size=(64, 64)).sum())
        for h in _REF_X:
            for w in _REF_W[:-1]:
                h = np.tanh(h @ w.T)
            acc += float((h @ _REF_W[-1].T).sum())
    return time.perf_counter() - t0


class Recorder:
    """Times the calls of one phase and counts attempted and failed ones."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.rounds = 0
        self.per_round = []  # (work, timed seconds, op samples) of each round
        self.reference_s = []  # reference kernel time before each round
        self.timed = 0.0
        self.work = 0
        self.op_ms = []
        self.sums = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, fn, *args, **kwargs):
        """Run one timed call; returns (result or FAILED, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args, **kwargs)
            else:
                out = self.tracer.region(fn, *args, **kwargs)
        except Exception as ex:  # a failed operation; the run goes on
            out = FAILED
            self.fail(f"{fn.__name__}: {type(ex).__name__}: {ex}")
        dt = time.perf_counter() - t0
        self.timed += dt
        return out, dt

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def check(self, problem):
        """Count a failed check; ``problem`` is None when the result is right."""
        if problem is not None:
            self.fail(problem)

    def add(self, name, num, den):
        acc = self.sums.setdefault(name, [0.0, 0.0])
        acc[0] += num
        acc[1] += den


# ---- calls and checks shared by the workloads --------------------------------


def train_config(cfg, seed, objective="fm", epochs=SETUP_EPOCHS):
    return dataclasses.replace(cfg.train_config(seed=seed, objective=objective),
                               epochs=epochs)


def fit(cfg, task, init_rng, config, dropout=None):
    """Initialise and train one model, as `flowvar cost` does per method."""
    model = fv.MlpVelocity.init(cfg.build_arch(task.dim, dropout=dropout),
                                init_rng)
    return [model], [fv.train(model, task, config)]


def fit_ensemble(cfg, task, config):
    return fv.train_ensemble(cfg.ensemble_members, cfg.build_arch(task.dim),
                             task, config)


def estimate(field, xt, t, base, keys, n_probes):
    """One per-state estimate, as `flowvar uq tweedie` makes it: the probe
    stream is split off per state, then the probes drawn."""
    probes = fv.draw_rademacher(base.split(keys[0]).split(keys[1]),
                                xt.shape[0], n_probes)
    return fv.cov_closed_form(field, xt, t, probes)


def estimate_one_step(field, x0, epsilon, base, keys, n_probes):
    probes = fv.draw_rademacher(base.split(keys[0]).split(keys[1]),
                                x0.shape[0], n_probes)
    return fv.one_step_cov(field, x0, epsilon, probes)


def oracle_check(field, spec, xt, t, base, keys, n_probes):
    """One state of `flowvar oracle-check`: exact covariance from the
    analytic field next to the conjugacy posterior."""
    probes = fv.draw_rademacher(base.split(keys[0]).split(keys[1]),
                                spec.dim, n_probes)
    est = fv.cov_closed_form(field, xt, t, probes, materialize_full=True)
    return est.full, fv.gmm_posterior(spec, xt, t).covariance


def estimate_problem(est, model=None, xt=None, n_probes=0):
    """None when the estimate is self-consistent and, when ``model`` is given,
    when its diag_raw matches the one re-derived from the dense Jacobian with
    the same probes."""
    if not (np.all(np.isfinite(est.diag_raw)) and np.isfinite(est.u_raw)):
        return f"non-finite estimate at t={est.t:g}"
    if est.u_raw != float(est.diag_raw.sum()):
        return f"u_raw != diag_raw.sum() at t={est.t:g}"
    if np.any(est.diag < 0.0):
        return f"negative floored variance at t={est.t:g}"
    if not est.floored and est.u != float(est.diag.sum()):
        return f"u != diag.sum() at t={est.t:g}"
    if model is None:
        return None
    t = est.t
    probes = fv.draw_rademacher(est.probe_seed, est.dim, n_probes).probes
    jac = model.jacobian(xt, t)
    jdiag = (probes * (probes @ jac.T)).mean(axis=0)
    pref = (1.0 - t) ** 2 / t
    ref = pref * (1.0 + (1.0 - t) * jdiag)
    scale = pref * (1.0 + (1.0 - t) * np.abs(jdiag).max())
    if not np.allclose(est.diag_raw, ref, rtol=REL_TOL, atol=REL_TOL * scale):
        return f"diag_raw differs from the dense Jacobian at t={t:g}"
    return None


def train_problem(model, report, path):
    losses = (report.initial_loss,) + tuple(report.epoch_losses)
    if not all(np.isfinite(v) for v in losses):
        return "non-finite training loss"
    if not report.epoch_losses[-1] < report.initial_loss:
        return (f"final epoch loss {report.epoch_losses[-1]:.6g} not below "
                f"initial loss {report.initial_loss:.6g}")
    fv.save_model(path, model)
    if fv.load_model(path).checksum() != report.checksum:
        return "save/load round trip changed the checksum"
    return None


def row_problem(row, n_samples):
    for v in (row.pixel_spearman, row.sample_spearman):
        if v is not None and not -1.0 <= v <= 1.0:
            return f"correlation {v} outside [-1, 1] ({row.method}, t={row.t:g})"
    if row.hitrate is not None and not 0.0 <= row.hitrate <= 1.0:
        return f"hitrate {row.hitrate} outside [0, 1] ({row.method})"
    if row.n_samples != n_samples or not 0 <= row.n_missing <= n_samples:
        return f"bad sample counts in row ({row.method}, t={row.t:g})"
    return None


def map_problem(umap, scalar):
    umap = np.asarray(umap)
    if not (np.all(np.isfinite(umap)) and np.isfinite(scalar)):
        return "non-finite uncertainty map"
    if np.any(umap < 0.0) or scalar < 0.0:
        return "negative variance in an uncertainty map"
    return None


# ---- workloads ---------------------------------------------------------------


class TrainBars8:
    """The model set `flowvar cost` trains, on the bars8 architecture."""

    preset = "bars8"

    def __init__(self, seed, out):
        self.cfg = fv.load_config(self.preset)
        self.task = self.cfg.build_task()
        self.seed = seed
        self.out = out
        tc = self.cfg.training
        self.steps_per_model = TRAIN_EPOCHS * (
            -(-tc.pairs_per_epoch // tc.batch_size))
        self.pairs_per_model = TRAIN_EPOCHS * tc.pairs_per_epoch

    def sizes(self):
        tc = self.cfg.training
        return {"dim": self.task.dim, "hidden": self.cfg.hidden,
                "depth": self.cfg.depth, "batch": tc.batch_size,
                "pairs_per_epoch": tc.pairs_per_epoch, "epochs": TRAIN_EPOCHS,
                "models_per_round": 3 + self.cfg.ensemble_members}

    def round(self, r, rec):
        cfg, task = self.cfg, self.task
        master = fv.RngState(self.seed).split(r)
        drop = cfg.dropout_rate
        jobs = [
            ("fm", fit, (cfg, task, master.split(1),
                         train_config(cfg, master.split(2), "fm", TRAIN_EPOCHS))),
            ("one-step", fit, (cfg, task, master.split(3),
                               train_config(cfg, master.split(4), "one-step",
                                            TRAIN_EPOCHS))),
            ("fm-dropout", fit, (cfg, task, master.split(5),
                                 train_config(cfg, master.split(6), "fm",
                                              TRAIN_EPOCHS), drop)),
            ("member", fit_ensemble, (cfg, task,
                                      train_config(cfg, master.split(7), "fm",
                                                   TRAIN_EPOCHS))),
        ]
        rows = []
        for label, fn, args in jobs:
            out, dt = rec.call(fn, *args)
            if out is FAILED:
                continue
            models, reports = out
            pairs = self.pairs_per_model * len(models)
            rec.work += pairs
            rec.add("train_pairs_per_s", pairs, dt)
            rec.op_ms.append(dt * 1e3 / (self.steps_per_model * len(models)))
            for k, (model, report) in enumerate(zip(models, reports)):
                rec.check(train_problem(model, report,
                                        self.out / f"model_{label}{k}.fvar"))
                rows.append((f"{label}{k}", 0, report.initial_loss))
                rows += [(f"{label}{k}", e + 1, loss)
                         for e, loss in enumerate(report.epoch_losses)]
        rec.call(fv.write_csv, self.out / "train.csv", "train",
                 ["method", "epoch", "loss"], rows)


class UqBars8:
    """Per-state closed-form estimates on bars8, plus one-step estimates."""

    preset = "bars8"
    one_step = True
    oracle = False

    def __init__(self, seed, out):
        cfg = self.cfg = fv.load_config(self.preset)
        task = self.task = cfg.build_task()
        self.master = fv.RngState(seed)
        self.out = out
        self.model = fit(cfg, task, self.master.split(1),
                         train_config(cfg, self.master.split(2)))[0][0]
        self.counter = fv.EvalCounter()
        self.field = fv.ModelField(self.model, self.counter)
        if self.one_step:
            self.os_model = fit(cfg, task, self.master.split(3),
                                train_config(cfg, self.master.split(4),
                                             "one-step"))[0][0]
            self.os_field = fv.ModelField(self.os_model, self.counter)
        if self.oracle:
            self.analytic = fv.analytic_handle(task.spec)
        self.checked = 0

    def sizes(self):
        return {"dim": self.task.dim, "probes": self.cfg.probes,
                "t_grid": list(self.cfg.t_grid), "states_per_round": N_STATES,
                "epsilon": self.cfg.epsilon if self.one_step else None,
                "oracle_per_round": N_STATES if self.oracle else 0,
                "setup_epochs": SETUP_EPOCHS}

    def _estimated(self, rec, est, dt, fe_before, model, x):
        if est is FAILED:
            return
        rec.work += 1
        rec.op_ms.append(dt * 1e3)
        rec.add("uq_states_per_s", 1, dt)
        rec.add("uq_fe_per_state", self.counter.forward_equivalents - fe_before, 1)
        self.checked += 1
        deep = self.checked % CHECK_EVERY == 0
        rec.check(estimate_problem(est, model if deep else None, x,
                                   self.cfg.probes))

    def round(self, r, rec):
        cfg, s = self.cfg, self.cfg.probes
        pairs, _ = rec.call(self.task.sample_pairs, self.master.split(8).split(r),
                            N_STATES)
        if pairs is FAILED:
            return
        x0s, x1s = pairs
        base = self.master.split(9).split(r)
        states = {t: t * x1s + (1.0 - t) * x0s for t in cfg.t_grid}
        rows, first = [], None
        for i in range(N_STATES):
            for ti, t in enumerate(cfg.t_grid):
                xt = states[t][i]
                fe = self.counter.forward_equivalents
                est, dt = rec.call(estimate, self.field, xt, t, base, (ti, i), s)
                self._estimated(rec, est, dt, fe, self.model, xt)
                if est is not FAILED:
                    rows.append(("tweedie-fm", t, i, est.u, int(est.floored)))
                    first = first if first is not None else est
            if self.one_step:
                fe = self.counter.forward_equivalents
                est, dt = rec.call(estimate_one_step, self.os_field, x0s[i],
                                   cfg.epsilon, base, (len(cfg.t_grid), i), s)
                self._estimated(rec, est, dt, fe, self.os_model, x0s[i])
                if est is not FAILED:
                    rows.append(("tweedie-onestep", est.t, i, est.u,
                                 int(est.floored)))
            if self.oracle:
                t = cfg.t_grid[i % len(cfg.t_grid)]
                out, dt = rec.call(oracle_check, self.analytic, self.task.spec,
                                   states[t][i], t, base, (100, i), s)
                if out is not FAILED:
                    rec.add("oracle_states_per_s", 1, dt)
                    full, ref = out
                    err = np.linalg.norm(full - ref) / np.linalg.norm(ref)
                    rec.check(None if err <= ORACLE_TOL else
                              f"oracle relative error {err:.3e} at t={t:g}")
        rec.call(fv.write_csv, self.out / "uq.csv", "uq",
                 ["method", "t", "point", "u", "floored"], rows)
        side = getattr(self.task, "side", None)
        if side is not None and first is not None:
            rec.call(fv.write_uq_map, first.diag, side, "per-frame",
                     self.out / "uq.pgm")


class UqGmm2d(UqBars8):
    """The same estimator at d=2, plus the analytic oracle check."""

    preset = "gmm2d"
    one_step = False
    oracle = True


class CompareBars8:
    """The consistency protocol over all four methods, plus one trajectory."""

    preset = "bars8"

    def __init__(self, seed, out):
        cfg = self.cfg = fv.load_config(self.preset)
        task = self.task = cfg.build_task()
        m = self.master = fv.RngState(seed)
        self.out = out
        self.fm = fit(cfg, task, m.split(1), train_config(cfg, m.split(2)))[0][0]
        onestep = fit(cfg, task, m.split(3),
                      train_config(cfg, m.split(4), "one-step"))[0][0]
        dropout = fit(cfg, task, m.split(5), train_config(cfg, m.split(6)),
                      cfg.dropout_rate)[0][0]
        members, _ = fit_ensemble(cfg, task, train_config(cfg, m.split(7)))
        self.counter = fv.EvalCounter()
        self.reference = fv.ModelField(self.fm)
        self.field = fv.ModelField(self.fm, self.counter)
        # the adapters `flowvar consistency` builds, each timed per call
        self.methods = {
            "tweedie-fm": fv_metrics.tweedie_method(self.field, cfg.probes),
            "tweedie-onestep": fv_metrics.one_step_method(
                fv.ModelField(onestep, self.counter), cfg.probes, cfg.epsilon),
            "ensemble": fv_metrics.ensemble_method(
                [fv.ModelField(mm) for mm in members]),
            "mc-dropout": fv_metrics.dropout_method(dropout, cfg.dropout_passes),
        }
        self.outputs = []
        self.op_ms = None
        self.timed_methods = {name: self._timed(name, fn)
                              for name, fn in self.methods.items()}

    def _timed(self, name, method):
        counter = self.counter
        estimator = name.startswith("tweedie")

        def run(xt, t, rng):
            fe = counter.forward_equivalents
            t0 = time.perf_counter()
            umap, scalar = method(xt, t, rng)
            self.op_ms.append((time.perf_counter() - t0) * 1e3)
            self.outputs.append((umap, scalar, estimator,
                                 counter.forward_equivalents - fe))
            return umap, scalar

        return run

    def sizes(self):
        return {"dim": self.task.dim, "probes": self.cfg.probes,
                "t_grid": list(self.cfg.t_grid), "samples": CMP_SAMPLES,
                "noise": CMP_NOISE, "ensemble_members": self.cfg.ensemble_members,
                "dropout_passes": self.cfg.dropout_passes,
                "traj_steps": fv_cli.TRAJ_STEPS, "setup_epochs": SETUP_EPOCHS}

    def _trajectory_uq(self, traj, rng):
        grid = fv.shift_time_grid(fv_cli.TRAJ_GRID)
        idx = [int(np.searchsorted(traj.times, t - 1e-12)) for t in grid]
        return fv.trajectory_uq(self.field, [traj.states[k] for k in idx],
                                [float(traj.times[k]) for k in idx],
                                self.cfg.probes, rng)

    def round(self, r, rec):
        cfg = self.cfg
        self.outputs = []
        self.op_ms = rec.op_ms
        rows, dt = rec.call(fv.consistency_protocol, self.reference,
                            self.timed_methods, self.task, cfg.t_grid, CMP_NOISE,
                            self.master.split(12).split(r), n_samples=CMP_SAMPLES)
        if rows is not FAILED:
            cells = len(cfg.t_grid) * len(self.methods) * CMP_SAMPLES
            rec.work += cells
            rec.add("compare_cells_per_s", cells, dt)
            if len(rows) != len(cfg.t_grid) * len(self.methods):
                rec.fail(f"{len(rows)} consistency rows, expected "
                         f"{len(cfg.t_grid) * len(self.methods)}")
            for row in rows:
                rec.check(row_problem(row, CMP_SAMPLES))
            for umap, scalar, estimator, fe in self.outputs:
                rec.attempted += 1
                rec.check(map_problem(umap, scalar))
                if estimator:
                    rec.add("uq_fe_per_state", fe, 1)
        x0 = self.master.split(10).split(r).generator().standard_normal(
            self.task.dim)
        traj, dt = rec.call(fv.euler_generate, self.field, x0, fv_cli.TRAJ_STEPS)
        series = FAILED
        if traj is not FAILED:
            rec.add("euler_steps_per_s", traj.steps, dt)
            if not np.all(np.isfinite(traj.states)):
                rec.fail("non-finite trajectory state")
            series, dt = rec.call(self._trajectory_uq, traj,
                                  self.master.split(11).split(r))
        if series is not FAILED:
            for est in series.estimates:
                rec.check(estimate_problem(est))
        if rows is not FAILED:
            fmt = lambda v: "" if v is None else v  # noqa: E731
            rec.call(fv.write_csv, self.out / "consistency.csv", "consistency",
                     ["method", "t", "pixel_spearman", "hitrate",
                      "sample_spearman", "n_missing"],
                     [(x.method, x.t, fmt(x.pixel_spearman), fmt(x.hitrate),
                       fmt(x.sample_spearman), x.n_missing) for x in rows])
        if series is not FAILED:
            rec.call(fv.write_csv, self.out / "traj.csv", "traj",
                     ["t", "u", "floored"],
                     [(t, e.u, int(e.floored)) for t, e in series.entries])


WORKLOADS = {
    "train-bars8": TrainBars8,
    "uq-bars8": UqBars8,
    "uq-gmm2d": UqGmm2d,
    "compare-bars8": CompareBars8,
}


# ---- run ------------------------------------------------------------------------


def run_phase(workload, rec, seconds, first_round):
    """Closed loop: the next round starts when the previous one has ended."""
    end = time.perf_counter() + seconds
    r = first_round
    last = 0.0
    while True:
        # about one reference sample per 0.1 s of round, all before the round
        rec.reference_s += [reference_kernel_s() for _ in range(1 + int(last / 0.1))]
        before = (rec.work, rec.timed, len(rec.op_ms))
        t0 = time.perf_counter()
        workload.round(r, rec)
        last = time.perf_counter() - t0
        rec.per_round.append((rec.work - before[0], rec.timed - before[1],
                              len(rec.op_ms) - before[2]))
        r += 1
        if time.perf_counter() >= end:
            break
    rec.rounds = r - first_round
    return r


def blas_threads():
    """Threads the bundled OpenBLAS uses, or None when it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def context():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }


def phase_json(rec):
    return {"rounds": rec.rounds, "timed_s": rec.timed, "work": rec.work,
            "per_round": rec.per_round, "reference_s": rec.reference_s,
            "op_ms": rec.op_ms, "sums": rec.sums}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, out)
    first = args.part * 1_000_000  # parts of one run never share a round
    result = {"import_s": T_IMPORTED - T_START,
              "setup_s": time.perf_counter() - T_START}
    phases = [Recorder()]
    if args.trace:
        nxt = run_phase(workload, phases[0], args.seconds / 2, first)
        tracer = Tracer()
        tracer.install()
        phases.append(Recorder(tracer))
        try:
            run_phase(workload, phases[1], args.seconds / 2, nxt)
        finally:
            tracer.uninstall()
        result["trace"] = [[mod, name, calls, self_s] + work for (mod, name),
                           (calls, self_s, work) in tracer.summary().items()]
        result["spans"] = len(tracer.spans)
    else:
        run_phase(workload, phases[0], args.seconds, first)
    result["phases"] = [phase_json(p) for p in phases]
    result["attempted"] = sum(p.attempted for p in phases)
    result["failed"] = sum(p.failed for p in phases)
    result["problems"] = [m for p in phases for m in p.problems]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["sizes"] = workload.sizes()
    result["context"] = context()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
