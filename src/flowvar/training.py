"""Flow matching training, the one-step average-velocity objective, seeded
ensembles, and the runner that trains many independent models.

Both objectives are plain velocity regressions:

    fm:        mean ||v(x_t, t) - (x1 - x0)||^2,  x_t = t x1 + (1-t) x0
    one-step:  mean ||v(x0, 0) - (x1 - x0)||^2

with AdamW (decoupled weight decay, beta 0.9/0.999, eps 1e-8) and an optional
cosine learning-rate schedule. Data is regenerated from the seed stream every
epoch, so the run is fully determined by (task, config, initial parameters).

A run holds one batch of pairs at a time: each epoch's pairs come from the
task's ``pair_batches`` stream, with the bits of ``sample_pairs`` over the
epoch, and the step's hidden-layer arrays live in one ``StepBuffers`` set
made per run. The one epoch-sized array is epoch 0's x1 - x0, from which a
fresh model's initial loss is taken (see ``_initial_loss``).

``train_jobs`` trains a list of such runs, each a ``TrainJob``, in-process or
on reusable worker processes (``flowvar._workers``), with the same bits either
way.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .models import MlpArch, MlpVelocity, StepBuffers
from .numerics import RngState

__all__ = [
    "TrainConfig",
    "TrainJob",
    "TrainReport",
    "TrainingError",
    "ensemble_jobs",
    "fm_loss",
    "one_step_loss",
    "train",
    "train_ensemble",
    "train_jobs",
]

# training samples t uniformly but keeps clear of the interpolant endpoints,
# where the downstream covariance formulas are singular
T_CLAMP = (1e-3, 1.0 - 1e-3)


class TrainingError(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report

    def __reduce__(self):
        # keeps the partial report when a worker process sends the error back
        return type(self), (str(self), self.report)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 2e-4
    lr_schedule: str = "cosine"  # or "constant"
    weight_decay: float = 0.01
    seed: RngState = RngState(0)
    objective: str = "fm"  # or "one-step"
    pairs_per_epoch: int = 8192

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.batch_size < 1 or self.pairs_per_epoch < self.batch_size:
            raise TrainingError("need 1 <= batch_size <= pairs_per_epoch")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise TrainingError("learning rate must be finite and "
                                "nonnegative")
        if not np.isfinite(self.weight_decay):
            raise TrainingError("weight decay must be finite")
        if self.lr_schedule not in ("constant", "cosine"):
            raise TrainingError(f"unknown lr schedule {self.lr_schedule!r}")
        if self.objective not in ("fm", "one-step"):
            raise TrainingError(f"unknown objective {self.objective!r}")


@dataclass(frozen=True)
class TrainReport:
    epoch_losses: tuple
    initial_loss: float
    seconds: float
    checksum: str
    notes: tuple = ()


def _regression_input(x0, x1, t):
    """Model input (x, t) of both objectives: the interpolant at t, or x0 at
    time 0 for the one-step objective (t None)."""
    if t is None:
        return x0, 0.0
    tc = t[:, None]
    return tc * x1 + (1.0 - tc) * x0, t


def _batch_loss_and_grads(model, x0, x1, t, dropout_rng=None, grad=None,
                          bufs=None):
    """Shared core of both objectives: regress velocity onto x1 - x0.

    The gradients go into ``grad`` (a flat vector laid out like
    ``model.params``, allocated when None) and come back as its views; the
    passes' hidden-layer arrays go into ``bufs`` when given.
    """
    resid, cache = model.forward_cache(*_regression_input(x0, x1, t),
                                       dropout_rng, bufs=bufs)
    resid -= x1 - x0
    n = x0.shape[0]
    loss = float((resid * resid).sum() / n)
    if not np.isfinite(loss):
        raise TrainingError("non-finite loss")
    resid *= 2.0 / n
    d_ws, d_bs = model.backward(cache, resid, out=grad, bufs=bufs)
    return loss, d_ws, d_bs


def fm_loss(model: MlpVelocity, x0, x1, t, dropout_rng: RngState | None = None):
    """Flow matching loss and parameter gradients on one batch.

    t holds one interior time per sample. Returns (loss, weight grads,
    bias grads); loss is the batch mean of the squared residual norm.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise TrainingError("fm loss needs interior times")
    return _batch_loss_and_grads(model, x0, x1, t, dropout_rng)


def one_step_loss(model: MlpVelocity, x0, x1, dropout_rng: RngState | None = None):
    """Average-velocity regression at t=0: mean ||v(x0, 0) - (x1 - x0)||^2."""
    return _batch_loss_and_grads(model, x0, x1, None, dropout_rng)


class _AdamW:
    """Decoupled-weight-decay Adam over one flat parameter vector, updated in
    place through two preallocated scratch vectors. Each element sees the
    same operations, in the same order, as
    ``m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g; p -= lr wd p;
    p -= lr (m / c1) / (sqrt(v / c2) + eps)``."""

    def __init__(self, params, weight_decay):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._s1 = np.empty_like(params)
        self._s2 = np.empty_like(params)
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.steps = 0

    def step(self, params, grad, lr):
        self.steps += 1
        c1 = 1.0 - self.beta1**self.steps
        c2 = 1.0 - self.beta2**self.steps
        m, v, s1, s2 = self.m, self.v, self._s1, self._s2
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)
        s1 *= grad
        v += s1
        np.multiply(params, lr * self.wd, out=s1)
        params -= s1
        np.divide(m, c1, out=s1)
        s1 *= lr
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        params -= s1


def _lr_at(config: TrainConfig, step: int, total_steps: int) -> float:
    if config.lr_schedule == "constant":
        return config.learning_rate
    return config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


def _initial_loss(model, task, rng, t, n: int, batch: int):
    """Pre-training reference: the dropout-free mean squared residual over
    epoch 0's pairs (``task.pair_batches(rng, n, batch)``), or None when
    ``train`` takes it from the epoch-0 steps.

    A model whose output head (last weights and bias) is all zero, as every
    ``MlpVelocity.init`` model's is, outputs exactly 0, so the residual is
    x0 - x1 and the loss is ``sum((x1 - x0)**2) / n`` to the bit, with no
    forward. ``train`` writes each epoch-0 batch's x1 - x0 into one (n, d)
    array as its steps draw them and reduces it after them, so the epoch is
    drawn once. Any other model streams epoch 0 through ``_chunked_loss``
    before the first step.
    """
    if model.weights[-1].any() or model.biases[-1].any():
        return _chunked_loss(model, task, rng, t, n, batch)
    return None


def _sum_of_squares_mean(diff: np.ndarray) -> float:
    """``sum(diff**2) / rows``, squaring in place."""
    return float(np.sum(np.square(diff, out=diff)) / diff.shape[0])


def _recording_diffs(pairs, diff: np.ndarray):
    """``pairs``, writing each batch's x1 - x0 into its rows of ``diff``."""
    lo = 0
    for x0, x1 in pairs:
        np.subtract(x1, x0, out=diff[lo:lo + x0.shape[0]])
        lo += x0.shape[0]
        yield x0, x1


def _fresh_initial_loss(pairs, diff: np.ndarray) -> float:
    """A fresh model's initial loss from a ``_recording_diffs`` stream,
    drawing the batches the steps did not (after a divergence)."""
    for _ in pairs:
        pass
    return _sum_of_squares_mean(diff)


def _chunked_loss(model, task, rng, t, n: int, batch: int) -> float:
    """The dropout-free mean squared residual over the pairs of
    ``task.pair_batches(rng, n, batch)``, evaluated batch by batch into one
    output.

    The bits equal those of one call over the epoch wherever the BLAS gives
    each GEMM row the same bits at any row count. OpenBLAS does at d = 64;
    at d <= 8 its small-matrix kernels may not, which can move a non-zero
    head's loss by an ulp.
    """
    out = np.empty((n, task.dim))
    lo = 0
    for x0, x1 in task.pair_batches(rng, n, batch):
        sl = slice(lo, lo + x0.shape[0])
        out[sl] = model.velocity(
            *_regression_input(x0, x1, None if t is None else t[sl]))
        out[sl] -= x1 - x0
        lo = sl.stop
    return _sum_of_squares_mean(out)


def train(model: MlpVelocity, task, config: TrainConfig) -> TrainReport:
    """Run the configured objective over freshly sampled pairs each epoch.

    Mutates ``model`` in place and returns the report. Fully deterministic
    given (initial parameters, task, config.seed): data, time draws, and
    dropout masks all come from per-epoch child streams.
    """
    if task.dim != model.arch.dim:
        raise TrainingError(f"task dim {task.dim} != model dim {model.arch.dim}")
    t0 = time.perf_counter()
    params = model.params
    grad = np.empty_like(params)
    opt = _AdamW(params, config.weight_decay)
    bufs = StepBuffers(model.arch, config.batch_size)
    n, batch = config.pairs_per_epoch, config.batch_size
    steps_per_epoch = (n + batch - 1) // batch
    total_steps = config.epochs * steps_per_epoch
    use_dropout = model.arch.dropout > 0.0

    epoch_losses = []
    initial_loss = diff = None
    step = 0
    for epoch in range(config.epochs):
        ep = config.seed.split(epoch)
        t_all = None
        if config.objective == "fm":
            t_all = ep.split(1).generator().uniform(size=n)
            t_all = np.clip(t_all, T_CLAMP[0], T_CLAMP[1])
        pairs = task.pair_batches(ep.split(0), n, batch)
        if epoch == 0:
            initial_loss = _initial_loss(model, task, ep.split(0), t_all, n,
                                         batch)
            if initial_loss is None:
                diff = np.empty((n, task.dim))
                pairs = _recording_diffs(pairs, diff)
        losses = []
        for k, (x0, x1) in enumerate(pairs):
            drop = ep.split(2 + k) if use_dropout else None
            loss, _, _ = _batch_loss_and_grads(
                model, x0, x1,
                None if t_all is None else t_all[k * batch:(k + 1) * batch],
                drop, grad, bufs)
            if loss > 1e6:
                if diff is not None:
                    initial_loss = _fresh_initial_loss(pairs, diff)
                partial = TrainReport(tuple(epoch_losses), initial_loss,
                                      time.perf_counter() - t0, model.checksum())
                raise TrainingError(
                    f"training diverged at epoch {epoch} step {k}: loss {loss:.3e}",
                    report=partial,
                )
            opt.step(params, grad, _lr_at(config, step, total_steps))
            losses.append(loss)
            step += 1
        if diff is not None:
            initial_loss = _fresh_initial_loss(pairs, diff)
            diff = None
        epoch_losses.append(float(np.mean(losses)))

    notes = ()
    if config.objective == "fm":
        notes = (f"t clamped to [{T_CLAMP[0]:g}, {T_CLAMP[1]:g}]",)
    return TrainReport(
        epoch_losses=tuple(epoch_losses),
        initial_loss=initial_loss,
        seconds=time.perf_counter() - t0,
        checksum=model.checksum(),
        notes=notes,
    )


@dataclass(frozen=True)
class TrainJob:
    """One model to train: ``MlpVelocity.init(arch, init)``, then ``train``
    with ``config``."""

    arch: MlpArch
    init: RngState
    config: TrainConfig


def run_job(task, job: TrainJob):
    """Train one job in this process; (model, report)."""
    model = MlpVelocity.init(job.arch, job.init)
    return model, train(model, task, job.config)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def train_jobs(task, jobs, workers: int | None = None) -> list:
    """Train every job on ``task``; (model, report) pairs in job order.

    The results are bit-identical to ``run_job`` on each job in turn, and so
    is the error raised: the one the first failing job raises. ``workers``
    defaults to ``min(len(jobs), usable CPUs)`` and never exceeds the job
    count. One worker trains in this process; more hand the jobs to worker
    processes that start on first use, are reused by later calls and stop
    when the interpreter exits.
    """
    jobs = list(jobs)
    if workers is None:
        workers = _usable_cpus()
    if workers < 1:
        raise TrainingError(f"need at least one worker, got {workers}")
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [run_job(task, job) for job in jobs]
    from . import _workers  # loads subprocess only when a pool is used

    return _workers.run(task, jobs, workers)


def ensemble_jobs(count: int, arch: MlpArch, config: TrainConfig,
                  member_seeds=None) -> list:
    """The jobs of ``count`` ensemble members.

    Members differ only in their seeds: member i initializes from
    config.seed.split(10_000 + i) and orders data by config.seed.split(i).
    ``member_seeds`` overrides the per-member (init, data) seed pairs, which
    the determinism tests use to force collisions.
    """
    if count < 2:
        raise TrainingError("an ensemble needs at least 2 members")
    if member_seeds is None:
        member_seeds = [
            (config.seed.split(10_000 + i), config.seed.split(i))
            for i in range(count)
        ]
    return [TrainJob(arch, init_rng, replace(config, seed=data_rng))
            for init_rng, data_rng in member_seeds]


def train_ensemble(count: int, arch: MlpArch, task, config: TrainConfig,
                   member_seeds=None):
    """Train ``count`` independent members (see ``ensemble_jobs``) with
    ``train_jobs``; returns (models, reports)."""
    pairs = train_jobs(task, ensemble_jobs(count, arch, config, member_seeds))
    return [m for m, _ in pairs], [r for _, r in pairs]
