"""Flow matching training, the one-step average-velocity objective, seeded
ensembles, and the runner that trains many independent models.

Both objectives are plain velocity regressions:

    fm:        mean ||v(x_t, t) - (x1 - x0)||^2,  x_t = t x1 + (1-t) x0
    one-step:  mean ||v(x0, 0) - (x1 - x0)||^2

with AdamW (decoupled weight decay, beta 0.9/0.999, eps 1e-8) and one
cosine learning-rate schedule, from ``learning_rate`` toward 0. Data is
regenerated from the seed stream every epoch, so the run is fully
determined by (task, config, initial parameters).

A run holds one batch of pairs at a time: each epoch's pairs come from the
task's ``pair_batches`` stream, with the bits of ``sample_pairs`` over the
epoch, the fm times are drawn batch by batch from one generator, and the
step's hidden-layer arrays live in one ``StepBuffers`` set made per run.
The initial loss is one running total of batch sums (see
``_initial_loss``), so no array of the epoch's size is kept.

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
    "MAX_BATCH_SIZE",
    "MAX_EPOCHS",
    "MAX_PAIRS_PER_EPOCH",
    "TrainConfig",
    "TrainJob",
    "TrainReport",
    "TrainingError",
    "ensemble_jobs",
    "train",
    "train_ensemble",
    "train_jobs",
]

# training samples t uniformly but keeps clear of the interpolant endpoints,
# where the downstream covariance formulas are singular
T_CLAMP = (1e-3, 1.0 - 1e-3)
# the longest run and the largest epoch and batch: an epoch draws its
# task's per-pair integers (and the gmm task its pairs) whole, and a step's
# buffers hold (batch_size, hidden) per layer
MAX_EPOCHS = 10_000
MAX_PAIRS_PER_EPOCH = 1 << 18
MAX_BATCH_SIZE = 4096


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 2e-4
    weight_decay: float = 0.01
    seed: RngState = RngState(0)
    objective: str = "fm"  # or "one-step"
    pairs_per_epoch: int = 8192

    def __post_init__(self):
        for name, top in (("epochs", MAX_EPOCHS),
                          ("pairs_per_epoch", MAX_PAIRS_PER_EPOCH),
                          ("batch_size", MAX_BATCH_SIZE)):
            if getattr(self, name) > top:
                raise TrainingError(f"{name} must be at most {top}, "
                                    f"got {getattr(self, name)}")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.batch_size < 1 or self.pairs_per_epoch < self.batch_size:
            raise TrainingError("need 1 <= batch_size <= pairs_per_epoch")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise TrainingError("learning rate must be finite and "
                                "nonnegative")
        if not np.isfinite(self.weight_decay):
            raise TrainingError("weight decay must be finite")
        if self.objective not in ("fm", "one-step"):
            raise TrainingError(f"unknown objective {self.objective!r}")


@dataclass(frozen=True)
class TrainReport:
    epoch_losses: tuple
    initial_loss: float
    seconds: float
    checksum: str


def _regression_input(x0, x1, t):
    """Model input (x, t) of both objectives: the interpolant at t, or x0 at
    time 0 for the one-step objective (t None)."""
    if t is None:
        return x0, 0.0
    tc = t[:, None]
    return tc * x1 + (1.0 - tc) * x0, t


def _batch_loss_and_grads(model, x0, x1, t, dropout_rng, grad, bufs):
    """Shared core of both objectives: regress velocity onto x1 - x0.

    The gradients go into ``grad`` (a flat vector laid out like
    ``model.params``) and come back as its views; the passes' hidden-layer
    arrays go into the ``StepBuffers`` set ``bufs``.
    """
    resid, cache = model.forward_cache(*_regression_input(x0, x1, t),
                                       dropout_rng, bufs)
    resid -= x1 - x0
    n = x0.shape[0]
    # an overflow gives a non-finite loss, reported below on one line
    with np.errstate(over="ignore"):
        loss = float((resid * resid).sum() / n)
    if not np.isfinite(loss):
        raise TrainingError("non-finite loss")
    resid *= 2.0 / n
    d_ws, d_bs = model.backward(cache, resid, grad, bufs)
    return loss, d_ws, d_bs


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
    """The cosine schedule, from ``learning_rate`` at step 0 toward 0."""
    return config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


def _epoch_batches(task, ep: RngState, config: TrainConfig):
    """Epoch ``ep``'s (x0, x1, t) batches: the pairs of
    ``task.pair_batches(ep.split(0), n, batch)`` and, for the fm objective,
    each batch's times, drawn in turn from one ``ep.split(1)`` generator and
    clipped to ``T_CLAMP`` (None for one-step). The times have the bits of
    one ``uniform(size=n)`` draw over the epoch."""
    times = ep.split(1).generator() if config.objective == "fm" else None
    for x0, x1 in task.pair_batches(ep.split(0), config.pairs_per_epoch,
                                    config.batch_size):
        t = None
        if times is not None:
            t = np.clip(times.uniform(size=x0.shape[0]), *T_CLAMP)
        yield x0, x1, t


def _square_sum(a: np.ndarray) -> float:
    """``sum(a**2)`` of one batch-sized array, squaring it in place; an
    overflow gives inf, which the step's finite check reports."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.square(a, out=a)))


def _initial_loss(model, task, ep: RngState, config: TrainConfig):
    """Pre-training reference: the dropout-free mean squared residual over
    epoch 0's batches (``_epoch_batches(task, ep, config)``), or None when
    ``train`` takes it from the epoch-0 steps.

    The loss is a running total of the batches' ``_square_sum``s, added in
    batch order, over the pair count. A model whose output head (last
    weights and bias) is all zero, as every ``MlpVelocity.init`` model's
    is, outputs exactly 0, so each batch's residual is x0 - x1 and its sum
    is that of (x1 - x0)**2 to the bit, with no forward: ``train`` adds
    those as its epoch-0 steps draw the batches. Any other model streams
    epoch 0 through ``_chunked_loss`` before the first step.
    """
    if model.weights[-1].any() or model.biases[-1].any():
        return _chunked_loss(model, _epoch_batches(task, ep, config),
                             config.pairs_per_epoch)
    return None


def _chunked_loss(model, batches, n: int) -> float:
    """The dropout-free mean squared residual over ``batches``' n pairs,
    evaluated and summed batch by batch."""
    total = 0.0
    for x0, x1, t in batches:
        out = model.velocity(*_regression_input(x0, x1, t))
        out -= x1 - x0
        total += _square_sum(out)
    return total / n


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
    initial_loss = total = None
    step = 0
    for epoch in range(config.epochs):
        ep = config.seed.split(epoch)
        batches = _epoch_batches(task, ep, config)
        if epoch == 0:
            initial_loss = _initial_loss(model, task, ep, config)
            if initial_loss is None:
                total = 0.0  # a fresh model's: epoch 0's batch sums, in order
        losses = []
        for k, (x0, x1, t) in enumerate(batches):
            if total is not None:
                total += _square_sum(x1 - x0)
            drop = ep.split(2 + k) if use_dropout else None
            loss, _, _ = _batch_loss_and_grads(model, x0, x1, t, drop, grad,
                                               bufs)
            if loss > 1e6:
                raise TrainingError(
                    f"training diverged at epoch {epoch} step {k}: loss {loss:.3e}")
            opt.step(params, grad, _lr_at(config, step, total_steps))
            losses.append(loss)
            step += 1
        if total is not None:
            initial_loss = total / n
            total = None
        epoch_losses.append(float(np.mean(losses)))

    return TrainReport(
        epoch_losses=tuple(epoch_losses),
        initial_loss=initial_loss,
        seconds=time.perf_counter() - t0,
        checksum=model.checksum(),
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


def train_jobs(task, jobs) -> list:
    """Train every job on ``task``; (model, report) pairs in job order.

    The results are bit-identical to ``run_job`` on each job in turn, and so
    is the error raised: the one the first failing job raises. The jobs run
    on ``min(len(jobs), usable CPUs)`` workers. One worker trains in this
    process; more hand the jobs to worker processes that start on first use,
    are reused by later calls and stop when the interpreter exits.
    """
    jobs = list(jobs)
    workers = min(_usable_cpus(), len(jobs))
    if workers <= 1:
        return [run_job(task, job) for job in jobs]
    from . import _workers  # loads subprocess only when a pool is used

    return _workers.run(task, jobs, workers)


def ensemble_jobs(count: int, arch: MlpArch, config: TrainConfig) -> list:
    """The jobs of ``count`` ensemble members.

    Members differ only in their seeds: member i initializes from
    config.seed.split(10_000 + i) and orders data by config.seed.split(i).
    """
    if count < 2:
        raise TrainingError("an ensemble needs at least 2 members")
    return [TrainJob(arch, config.seed.split(10_000 + i),
                     replace(config, seed=config.seed.split(i)))
            for i in range(count)]


def train_ensemble(count: int, arch: MlpArch, task, config: TrainConfig):
    """Train ``count`` independent members (see ``ensemble_jobs``) with
    ``train_jobs``; returns (models, reports)."""
    pairs = train_jobs(task, ensemble_jobs(count, arch, config))
    return [m for m, _ in pairs], [r for _, r in pairs]
