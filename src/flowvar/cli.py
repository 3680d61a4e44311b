"""Command-line driver for the flowvar experiments.

Subcommands cover the pipeline end to end: train velocity models, evaluate
the closed-form and baseline uncertainty estimators, rerun the analytic
identity check, trace uncertainty along a sampled trajectory, run the
corruption consistency protocol, sweep probe counts, and summarize cost.

Exit codes: 0 success, 1 validation problem (bad flags, bad config, a
missing or corrupt model file), 2 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import BaselineError
from .config import (MAX_PROBES, ConfigError, ExperimentConfig, check_seed,
                     load_config)
from .data import DataError
from .metrics import METHODS, Method, MetricsError, consistency_protocol
from .models import (EvalCounter, ModelError, ModelField, MlpVelocity,
                     analytic_handle, load_model, save_model)
from .numerics import NumericsError, RngState, draw_rademacher
from .oracle import OracleError, gmm_posterior
from .reporting import ReportError, write_csv, write_uq_map
from .sampler import SamplerError, euler_generate
from .training import TrainJob, TrainingError, ensemble_jobs, train_jobs
from .uq import UqError, cov_closed_form, prior_baseline, shift_time_grid, \
    trajectory_uq

__all__ = ["main", "METHODS"]

N_EVAL_POINTS = 16
TRAJ_GRID = (0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.98)
TRAJ_STEPS = 1000
MAX_REPLICATES = 4096
MAX_SAMPLES = 4096  # consistency --n
# the fm model is also the reference of traj, consistency and ablate-probes
_FM = METHODS["tweedie-fm"]

# The key of every stream split off the master RngState(seed): each method's
# (init, train) pair (an ensemble has no init key of its own: ensemble_jobs
# derives each member's from the train stream), then the draws of the
# evaluation commands. perfbench/worker.py repeats these keys by value.
STREAMS = {
    "tweedie-fm": (1, 2),
    "tweedie-onestep": (3, 4),
    "mc-dropout": (5, 6),
    "ensemble": (None, 7),
    "eval-states": 8,  # uq and oracle-check states
    "probes": 9,  # uq and oracle-check probes; cost reuses them
    "traj-start": 10,
    "traj-probes": 11,
    "consistency": 12,
    "ablate": 13,
    "cost-states": 14,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowvar", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="gmm2d",
                        help="preset name or config file path")
    common.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    common.add_argument("--out", default=None,
                        help="override the output directory")

    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_train = sub.add_parser("train", parents=[common],
                             help="train velocity models")
    p_train.add_argument("variant", choices=tuple(dict.fromkeys(
        m.variant for m in METHODS.values())))

    p_uq = sub.add_parser("uq", parents=[common],
                          help="evaluate an uncertainty method")
    p_uq.add_argument("method", choices=[m.uq for m in METHODS.values()])
    p_uq.add_argument("--t", type=float, default=None,
                      help="single flow time instead of the config grid "
                           "(not for onestep, which reads x0 at epsilon)")

    sub.add_parser("oracle-check", parents=[common],
                   help="closed-form covariance vs analytic mixture posterior")
    sub.add_parser("traj", parents=[common],
                   help="uncertainty along a sampled trajectory")

    p_cons = sub.add_parser("consistency", parents=[common],
                            help="corruption consistency protocol")
    p_cons.add_argument("--n", type=int, default=64, help="samples per cell")
    p_cons.add_argument("--noise", type=float, default=0.5,
                        help="corruption mixing level")

    p_abl = sub.add_parser("ablate-probes", parents=[common],
                           help="probe-count sweep at fixed state")
    p_abl.add_argument("--S", default="4,16,64,256",
                       help="comma-separated probe counts")
    p_abl.add_argument("--replicates", type=int, default=8)

    sub.add_parser("cost", parents=[common],
                   help="instrumented cost comparison across methods")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        check_seed(args.seed)
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out=Path(args.out))
    return cfg


def _make_out(cfg: ExperimentConfig) -> None:
    """Create the output directory. Each subcommand calls this once its
    flags and models have passed their checks, so a refused run leaves
    nothing behind."""
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as ex:  # a file at the path or above it, or no permission
        raise ConfigError(f"cannot make output directory {cfg.out}: "
                          f"{ex.strerror}") from None


def _model_path(cfg: ExperimentConfig, name: str) -> Path:
    return cfg.out / f"model_{name}.fvar"


def _require_model(cfg: ExperimentConfig, name: str, dim: int) -> MlpVelocity:
    """The saved model ``name``, refused unless it reads and maps the
    task's dimension ``dim``."""
    path = _model_path(cfg, name)
    if not path.exists():
        raise ConfigError(f"model not found: {path}")
    try:
        model = load_model(path)
    except ModelError as ex:  # a corrupt model is as unusable as a missing one
        raise ConfigError(f"{path}: {ex}") from None
    except OSError as ex:  # a directory at the path, or no permission
        raise ConfigError(f"cannot read model {path}: {ex.strerror}") from None
    if model.arch.dim != dim:
        raise ConfigError(f"{path}: model dim {model.arch.dim} != task dim "
                          f"{dim}")
    return model


def _stream(cfg: ExperimentConfig, name: str) -> RngState:
    """The stream ``STREAMS[name]`` of the master seed."""
    return RngState(cfg.seed).split(STREAMS[name])


def _members(cfg: ExperimentConfig, m: Method):
    """(model file stem, training CSV label) of each model of ``m``."""
    if STREAMS[m.name][0] is not None:
        return [(m.file, m.row)]
    return [(f"{m.file}_{i}", f"{m.row}{i}")
            for i in range(cfg.ensemble_members)]


def _method_jobs(cfg: ExperimentConfig, task, m: Method) -> list:
    """The training job of each model of ``m``, from its streams."""
    master = RngState(cfg.seed)
    init_key, train_key = STREAMS[m.name]
    arch = cfg.build_arch(task.dim, cfg.dropout_rate if m.dropout else None)
    config = cfg.train_config(seed=master.split(train_key),
                              objective=m.objective)
    if init_key is None:
        return ensemble_jobs(cfg.ensemble_members, arch, config)
    return [TrainJob(arch, master.split(init_key), config)]


def _train_methods(cfg: ExperimentConfig, task, methods) -> list:
    """Train the models of all ``methods`` as one ``train_jobs`` list;
    (models, reports) per method."""
    per_method = [_method_jobs(cfg, task, m) for m in methods]
    pairs = iter(train_jobs(task, [job for jobs in per_method
                                   for job in jobs]))
    trained = []
    for jobs in per_method:
        done = [next(pairs) for _ in jobs]
        trained.append(([model for model, _ in done],
                        [report for _, report in done]))
    return trained


def _load_fields(cfg: ExperimentConfig, m: Method, dim: int):
    """The saved model(s) of ``m`` as velocity fields of dimension ``dim``."""
    models = [_require_model(cfg, stem, dim) for stem, _ in _members(cfg, m)]
    if m.dropout and models[0].arch.dropout <= 0.0:
        raise ConfigError("saved model was trained without dropout")
    return [ModelField(model) for model in models]


# ---- train ------------------------------------------------------------------


def cmd_train(args, cfg: ExperimentConfig) -> int:
    task = cfg.build_task()
    _make_out(cfg)
    # the dropout twin serves only mc-dropout, so it is trained on demand
    methods = [m for m in METHODS.values() if m.variant == args.variant
               and not (m.dropout and m.name not in cfg.methods)]
    rows, summary = [], []
    for m, (models, reports) in zip(methods,
                                    _train_methods(cfg, task, methods)):
        for (stem, label), model, rep in zip(_members(cfg, m), models,
                                             reports):
            save_model(_model_path(cfg, stem), model)
            rows.append((label, 0, rep.initial_loss))
            rows += [(label, e + 1, loss)
                     for e, loss in enumerate(rep.epoch_losses)]
            summary.append(f"{label}: {rep.seconds:.2f}s, final loss "
                           f"{rep.epoch_losses[-1]:.6g}")
    tag = args.variant.replace("-", "")
    write_csv(cfg.out / f"train_{tag}.csv", "train",
              ["method", "epoch", "loss"], rows)
    (cfg.out / f"train_{tag}_summary.txt").write_text(
        "\n".join(summary) + "\n", encoding="utf-8")
    for line in summary:
        print(line)
    return 0


# ---- uq ---------------------------------------------------------------------


def _eval_states(cfg, task, t_grid):
    x0s, x1s = task.sample_pairs(_stream(cfg, "eval-states"), N_EVAL_POINTS)
    return x0s, x1s, {t: t * x1s + (1.0 - t) * x0s for t in t_grid}


def _maybe_map(task, estimate, path):
    side = getattr(task, "side", None)
    if side is None:
        return "", ""
    return write_uq_map(estimate, side, "per-frame", path)


def cmd_uq(args, cfg: ExperimentConfig) -> int:
    task = cfg.build_task()
    if args.t is not None and not 0.0 < args.t < 1.0:
        raise ConfigError("--t must lie in (0, 1)")
    m = next(m for m in METHODS.values() if m.uq == args.method)
    if args.t is not None and m.reads_x0:
        raise ConfigError(f"--t does not apply to {m.uq}: it reads x0 at "
                          f"t = epsilon")
    t_grid = (args.t,) if args.t is not None else cfg.t_grid
    x0s, _, states = _eval_states(cfg, task, t_grid)
    estimate = m.bind(cfg, _load_fields(cfg, m, task.dim)).estimate
    _make_out(cfg)
    probe_rng = _stream(cfg, "probes")
    # a one-step model reads x0 once, at t = epsilon, and its map is untagged
    grid = ([(cfg.epsilon, x0s, "")] if m.reads_x0 else
            [(t, states[t], f"_t{ti}") for ti, t in enumerate(t_grid)])
    rows = []
    for ti, (t, inputs, tag) in enumerate(grid):
        point_rng = probe_rng.split(ti)
        ests = [estimate(x, t, point_rng.split(i))
                for i, x in enumerate(inputs)]
        lo, hi = _maybe_map(task, ests[0], cfg.out / f"uq_{m.uq}{tag}.pgm")
        for i, est in enumerate(ests):
            rows.append((m.name, t, cfg.seed, getattr(cfg, m.size), i, est.u,
                         int(est.floored), lo if i == 0 else "",
                         hi if i == 0 else ""))
        print(f"t={t:g}: mean u = {np.mean([est.u for est in ests]):.6g}")
    write_csv(cfg.out / f"uq_{args.method}.csv", "uq",
              ["method", "t", "seed", "S", "point", "u", "floored",
               "map_lo", "map_hi"], rows)
    return 0


# ---- oracle-check -----------------------------------------------------------


def cmd_oracle_check(args, cfg: ExperimentConfig) -> int:
    task = cfg.build_task()
    if not hasattr(task, "spec"):
        raise ConfigError("oracle-check needs a gmm task")
    spec = task.spec
    field = analytic_handle(spec)
    probe_rng = _stream(cfg, "probes")
    _, _, states = _eval_states(cfg, task, cfg.t_grid)
    worst = 0.0
    for ti, t in enumerate(cfg.t_grid):
        point_rng = probe_rng.split(ti)
        for i, xt in enumerate(states[t]):
            probes = draw_rademacher(point_rng.split(i), spec.dim, cfg.probes)
            est = cov_closed_form(field, xt, t, probes, materialize_full=True)
            ref = gmm_posterior(spec, xt, t).covariance
            # a reference that underflowed to zero or overflowed leaves no
            # relative error; that is reported below, not warned about
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                scale = np.linalg.norm(ref)
                err = np.linalg.norm(est.full - ref) / scale
            if not np.isfinite(err):
                raise OracleError(f"relative Frobenius error at t={t:g}, "
                                  f"point {i} is {err} (reference "
                                  f"covariance norm {scale:.3g})")
            worst = max(worst, err)
    print(f"max relative Frobenius error: {worst:.3e}")
    if worst <= 1e-5:
        print("PASS")
        return 0
    print("FAIL")
    raise OracleError(f"oracle check error {worst:.3e} is above 1e-5")


# ---- traj -------------------------------------------------------------------


def cmd_traj(args, cfg: ExperimentConfig) -> int:
    task = cfg.build_task()
    field = _load_fields(cfg, _FM, task.dim)[0]
    _make_out(cfg)
    x0 = _stream(cfg, "traj-start").generator().standard_normal(task.dim)
    traj = euler_generate(field, x0, TRAJ_STEPS)
    node_times, node_states = traj.at(shift_time_grid(TRAJ_GRID))
    series = trajectory_uq(field, node_states, node_times, cfg.probes,
                           _stream(cfg, "traj-probes"))
    rows = []
    for k, (t, est) in enumerate(series.entries):
        lo, hi = _maybe_map(task, est, cfg.out / f"traj_map_{k}.pgm")
        prior = prior_baseline(t, task.dim)
        rows.append((_FM.name, t, cfg.seed, cfg.probes, est.u, prior,
                     est.u / prior, int(est.floored), lo, hi))
        print(f"t={t:g}: U = {est.u:.6g} (prior {prior:.6g})")
    write_csv(cfg.out / "traj.csv", "traj",
              ["method", "t", "seed", "S", "u", "u_prior", "ratio", "floored",
               "map_lo", "map_hi"], rows)
    return 0


# ---- consistency ------------------------------------------------------------


def cmd_consistency(args, cfg: ExperimentConfig) -> int:
    if not 2 <= args.n <= MAX_SAMPLES:
        raise ConfigError(f"--n must be at least 2 and at most {MAX_SAMPLES}"
                          f", got {args.n}")
    if not 0.0 <= args.noise <= 1.0:
        raise ConfigError(f"--noise must lie in [0, 1], got {args.noise:g}")
    task = cfg.build_task()
    reference = _load_fields(cfg, _FM, task.dim)[0]
    methods = {name: METHODS[name].bind(
        cfg, _load_fields(cfg, METHODS[name], task.dim))
        for name in cfg.methods}
    _make_out(cfg)
    results = consistency_protocol(reference, methods, task, cfg.t_grid,
                                   args.noise, _stream(cfg, "consistency"),
                                   n_samples=args.n)
    fmt = lambda v: "" if v is None else v
    rows = [(r.method, r.t, cfg.seed, getattr(cfg, METHODS[r.method].size),
             fmt(r.pixel_spearman), fmt(r.hitrate), fmt(r.sample_spearman),
             r.n_samples, r.n_missing) for r in results]
    write_csv(cfg.out / "consistency.csv", "consistency",
              ["method", "t", "seed", "S", "pixel_spearman", "hitrate",
               "sample_spearman", "n_samples", "n_missing"], rows)
    for r in results:
        ps = "n/a" if r.sample_spearman is None else f"{r.sample_spearman:.3f}"
        print(f"t={r.t:g} {r.method}: sample spearman {ps}")
    return 0


# ---- ablate-probes ----------------------------------------------------------


def cmd_ablate(args, cfg: ExperimentConfig) -> int:
    try:
        s_values = [int(tok) for tok in args.S.split(",") if tok]
    except ValueError as ex:
        raise ConfigError(f"bad --S list: {args.S!r}") from ex
    if not s_values or not all(1 <= s <= MAX_PROBES for s in s_values):
        raise ConfigError(f"probe counts must be positive and at most "
                          f"{MAX_PROBES}")
    if not 1 <= args.replicates <= MAX_REPLICATES:
        raise ConfigError(f"--replicates must lie in [1, {MAX_REPLICATES}], "
                          f"got {args.replicates}")
    task = cfg.build_task()
    field = _load_fields(cfg, _FM, task.dim)[0]
    _make_out(cfg)
    ablate_rng = _stream(cfg, "ablate")
    t = 0.5
    x0s, x1s = task.sample_pairs(ablate_rng.split(0), 1)
    xt = (t * x1s + (1.0 - t) * x0s)[0]
    rows = []
    for si, s in enumerate(s_values):
        estimate = _FM.bind(dataclasses.replace(cfg, probes=s),
                            [field]).estimate
        us = []
        replicate_rng = ablate_rng.split(1).split(si)
        for r in range(args.replicates):
            est = estimate(xt, t, replicate_rng.split(r))
            rows.append((_FM.name, t, cfg.seed, s, r, est.u,
                         int(est.floored)))
            us.append(est.u)
        # estimates near the float range overflow their squared spread
        with np.errstate(over="ignore", invalid="ignore"):
            mean, spread = np.mean(us), np.std(us)
        if not np.isfinite(spread):
            raise UqError(f"spread of U at S={s} is not finite")
        print(f"S={s}: mean U {mean:.6g}, spread {spread:.3g}")
    write_csv(cfg.out / "ablate.csv", "ablate",
              ["method", "t", "seed", "S", "replicate", "u", "floored"], rows)
    return 0


# ---- cost -------------------------------------------------------------------


def cmd_cost(args, cfg: ExperimentConfig) -> int:
    """Train every configured method's models, then evaluate each method
    with instrumentation; write the counts to cost.csv and the seconds to
    cost_summary.txt.

    Training cost counts one forward pass per seen sample (backward passes
    ride along with a constant factor and are omitted from counts; wall-clock
    includes them either way). A method's training seconds are its own
    models', whatever ran beside them; the wall time of training them all
    is the summary's last line. Ratios compare each method's total with the
    reference: tweedie-fm when configured, otherwise the cheapest method by
    counts.
    """
    task = cfg.build_task()
    _make_out(cfg)
    train_equiv = cfg.training.epochs * cfg.training.pairs_per_epoch
    t = 0.5
    x0s, x1s = task.sample_pairs(_stream(cfg, "cost-states"), 4)
    xts = t * x1s + (1.0 - t) * x0s
    # every method draws from uq's probe key: only the counts are kept
    probe_rng = _stream(cfg, "probes")

    methods = [METHODS[name] for name in cfg.methods]
    t0 = time.perf_counter()
    trained = _train_methods(cfg, task, methods)
    train_wall = time.perf_counter() - t0
    costs = []  # (method, train count, inference count, train s, inference s)
    for m, (models, reports) in zip(methods, trained):
        counter = EvalCounter()
        run = m.bind(cfg, [ModelField(model, counter) for model in models])
        t0 = time.perf_counter()
        for i, x in enumerate(x0s if m.reads_x0 else xts):
            run(x, t, probe_rng.split(i))
        costs.append((m.name, len(models) * train_equiv,
                      counter.forward_equivalents,
                      sum(r.seconds for r in reports),
                      time.perf_counter() - t0))

    counts = {name: train + infer for name, train, infer, _, _ in costs}
    seconds = {name: train + infer for name, _, _, train, infer in costs}
    reference = ("tweedie-fm" if "tweedie-fm" in counts
                 else min(counts, key=counts.get))
    rows = [(name, train, infer, counts[name],
             counts[name] / counts[reference])
            for name, train, infer, _, _ in costs]
    write_csv(cfg.out / "cost.csv", "cost",
              ["method", "train_equivalents", "infer_equivalents",
               "total_equivalents", f"count_ratio_vs_{reference}"], rows)
    lines = [f"wall-clock cost summary (reference: {reference})"]
    lines += [f"{name}: train {train:.3f}s + inference {infer:.3f}s = "
              f"{seconds[name]:.3f}s" for name, _, _, train, infer in costs]
    if seconds[reference] > 0:
        lines += [f"ratio({name} / {reference}) = "
                  f"{seconds[name] / seconds[reference]:.1f}x wall-clock"
                  for name in seconds if name != reference]
    lines.append(f"training wall time, all models: {train_wall:.3f}s")
    (cfg.out / "cost_summary.txt").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
    for name, _, _, total, ratio in rows:
        print(f"{name}: {total} forward-equivalents ({ratio:.3g}x reference)")
    return 0


# ---- entry point ------------------------------------------------------------

_COMMANDS = {
    "train": cmd_train,
    "uq": cmd_uq,
    "oracle-check": cmd_oracle_check,
    "traj": cmd_traj,
    "consistency": cmd_consistency,
    "ablate-probes": cmd_ablate,
    "cost": cmd_cost,
}

_VALIDATION_ERRORS = (ConfigError, DataError, ReportError)
_RUNTIME_ERRORS = (TrainingError, SamplerError, UqError, OracleError,
                   ModelError, NumericsError, BaselineError, MetricsError)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load(args)
        return _COMMANDS[args.command](args, cfg)
    except _UsageError:
        return 1
    except _VALIDATION_ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except _RUNTIME_ERRORS as ex:
        print(f"runtime failure: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
