import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from flowvar import _workers, training
from flowvar.config import load_config
from flowvar.data import ImageTask
from flowvar.models import MlpArch, MlpVelocity
from flowvar.numerics import RngState
from flowvar.training import (TrainConfig, TrainJob, TrainingError,
                              _batch_loss_and_grads, run_job, train,
                              train_ensemble, train_jobs)

from refs import default_gmm_task, step_buffers


def _tiny_config(**kw):
    base = dict(epochs=2, pairs_per_epoch=256, batch_size=64,
                seed=RngState(3))
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainingError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(TrainingError):
        TrainConfig(objective="score")
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=512, pairs_per_epoch=256)


def test_zero_learning_rate_leaves_parameters_unchanged():
    task = default_gmm_task()
    model = MlpVelocity.init(MlpArch(dim=2), RngState(1))
    before = model.checksum()
    report = train(model, task, _tiny_config(learning_rate=0.0))
    assert model.checksum() == before
    assert len(report.epoch_losses) == 2


def test_training_reduces_loss_and_is_deterministic():
    task = default_gmm_task()
    cfg = _tiny_config(epochs=5, pairs_per_epoch=1024)
    m1 = MlpVelocity.init(MlpArch(dim=2), RngState(1))
    r1 = train(m1, task, cfg)
    m2 = MlpVelocity.init(MlpArch(dim=2), RngState(1))
    r2 = train(m2, task, cfg)
    assert m1.checksum() == m2.checksum()
    assert r1.epoch_losses == r2.epoch_losses
    assert r1.epoch_losses[-1] < r1.initial_loss


def test_default_training_halves_the_loss(gmm_fm):
    # full default run on the default task: the smoke bar is a 2x reduction
    _, report = gmm_fm
    assert len(report.epoch_losses) == 30
    ratio = report.epoch_losses[-1] / report.initial_loss
    assert ratio <= 0.5, f"loss ratio {ratio:.3f}"


def test_one_step_objective_trains():
    task = default_gmm_task()
    model = MlpVelocity.init(MlpArch(dim=2), RngState(1))
    report = train(model, task, _tiny_config(epochs=4, objective="one-step",
                                             pairs_per_epoch=1024))
    assert report.epoch_losses[-1] < report.initial_loss
    # mean-velocity reading: v(x0, 0) approximates E[x1 - x0 | x0] = mu - x0
    x0 = np.zeros((1, 2))
    v = model.velocity(x0, 0.0)
    assert np.isfinite(v).all()


def test_one_step_loss_runs_at_time_zero():
    m = MlpVelocity.init(MlpArch(dim=2), RngState(2))
    g = RngState(3).generator()
    x0 = g.standard_normal((8, 2))
    x1 = g.standard_normal((8, 2))
    # t None is the one-step objective: the model reads (x0, 0)
    loss, gw, gb = _batch_loss_and_grads(m, x0, x1, None, None,
                                         np.empty(m.n_params),
                                         step_buffers(m, 8))
    assert np.isfinite(loss)
    assert len(gw) == len(m.weights)


def test_divergence_aborts_at_its_epoch_and_step():
    task = default_gmm_task()
    model = MlpVelocity.init(MlpArch(dim=2), RngState(1))
    with pytest.raises(TrainingError, match="at epoch 0") as exc:
        train(model, task, _tiny_config(epochs=10, learning_rate=1e8))
    assert re.fullmatch(r"training diverged at epoch 0 step \d+: loss \S+",
                        str(exc.value))


def test_ensemble_members_are_distinct(gmm_ensemble):
    models, reports = gmm_ensemble
    assert len(models) == 5
    sums = {m.checksum() for m in models}
    assert len(sums) == 5
    for r in reports:
        assert r.epoch_losses[-1] < r.initial_loss


def test_ensemble_seed_override_forces_collisions():
    """Two members with the same (init, data) seeds collide: training is a
    pure function of its job."""
    job = TrainJob(MlpArch(dim=2), RngState(77),
                   replace(_tiny_config(), seed=RngState(78)))
    (first, _), (second, _) = train_jobs(default_gmm_task(), [job, job])
    assert first.checksum() == second.checksum()


def test_ensemble_needs_two_members():
    with pytest.raises(TrainingError):
        train_ensemble(1, MlpArch(dim=2), default_gmm_task(), _tiny_config())


# ---- bit-exactness gate ------------------------------------------------------
# The training step runs in place on one flat parameter and gradient vector.
# The references below are the allocating per-array arithmetic it replaced;
# with them patched in, training must give the same bits.


class ReferenceAdamW:
    """AdamW as it ran per parameter array, with its allocating expressions.
    The update is elementwise, so one flat array stands for the list."""

    def __init__(self, params, weight_decay):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.steps = 0

    def step(self, p, g, lr):
        self.steps += 1
        c1 = 1.0 - self.beta1**self.steps
        c2 = 1.0 - self.beta2**self.steps
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        p -= lr * self.wd * p
        p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _reference_act_deriv(name, z, h):
    if name == "tanh":
        return 1.0 - h * h
    return (z > 0.0).astype(np.float64)


def reference_backward(self, cache, dout, out, bufs):
    """Per-layer gradients in fresh arrays, copied into ``out``; ``bufs`` is
    not used."""
    act = self.arch.activation
    masks = cache["masks"]
    d_ws = [None] * len(self.weights)
    d_bs = [None] * len(self.biases)
    d_ws[-1] = dout.T @ cache["inputs"][-1]
    d_bs[-1] = dout.sum(axis=0)
    dh = dout @ self.weights[-1]
    for i in range(self.arch.depth - 1, -1, -1):
        if masks is not None:
            dh = dh * masks[i]
        dz = dh * _reference_act_deriv(act, cache["pre"][i], cache["post"][i])
        d_ws[i] = dz.T @ cache["inputs"][i]
        d_bs[i] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ self.weights[i]
    out[:] = np.concatenate([a.ravel() for wb in zip(d_ws, d_bs)
                             for a in wb])
    return d_ws, d_bs


def reference_initial_loss(model, task, ep, config):
    """The pre-training loss from one velocity call over the whole epoch,
    with its times from one draw, summed in batch-sized blocks in order.
    A non-zero head gets the bits of per-batch calls only where the BLAS
    gives each GEMM row the same bits at any row count, as OpenBLAS does
    at d = 64."""
    n, batch = config.pairs_per_epoch, config.batch_size
    x0, x1 = task.sample_pairs(ep.split(0), n)
    if config.objective == "fm":
        t = np.clip(ep.split(1).generator().uniform(size=n), *training.T_CLAMP)
        tc = t[:, None]
        out = model.velocity(tc * x1 + (1.0 - tc) * x0, t)
    else:
        out = model.velocity(x0, 0.0)
    sq = (out - (x1 - x0)) ** 2
    total = 0.0
    for lo in range(0, n, batch):
        total += float(np.sum(sq[lo:lo + batch]))
    return total / n


def counted(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def use_reference_training(monkeypatch):
    """Put the allocating optimizer, backward and initial-loss eval back.

    The patches reach this process only, so whatever they should test must
    train in-process. Returns the patched functions' call counts."""
    calls = {}
    monkeypatch.setattr(training, "_AdamW",
                        counted(calls, "_AdamW", ReferenceAdamW))
    monkeypatch.setattr(MlpVelocity, "backward",
                        counted(calls, "backward", reference_backward))
    monkeypatch.setattr(training, "_initial_loss",
                        counted(calls, "_initial_loss",
                                reference_initial_loss))
    return calls


def _nonzero_head(model):
    g = RngState(21).generator()
    model.weights[-1][:] = g.standard_normal(model.weights[-1].shape) * 0.2
    model.biases[-1][:] = g.standard_normal(model.biases[-1].shape) * 0.1
    return model


_GATE_CASES = {
    "fm": (default_gmm_task, MlpArch(dim=2), dict(), False),
    "one-step": (default_gmm_task, MlpArch(dim=2),
                 dict(objective="one-step"), False),
    "dropout": (lambda: ImageTask("bars", 8),
                MlpArch(dim=64, hidden=32, dropout=0.2), dict(), False),
    # 500 = 7 * 64 + 52: the last batch of each epoch is short
    "short-last-batch": (default_gmm_task,
                         MlpArch(dim=2, depth=3, activation="relu"),
                         dict(pairs_per_epoch=500), False),
    "nonzero-head": (lambda: ImageTask("bars", 8), MlpArch(dim=64, hidden=32),
                     dict(objective="one-step", pairs_per_epoch=300), True),
}


def _trained(task, arch, cfg, head):
    model = MlpVelocity.init(arch, RngState(4))
    if head:
        _nonzero_head(model)
    return model, train(model, task, cfg)


@pytest.mark.parametrize("case", sorted(_GATE_CASES))
def test_training_is_bit_identical_to_the_allocating_reference(case,
                                                               monkeypatch):
    make_task, arch, overrides, head = _GATE_CASES[case]
    task, cfg = make_task(), _tiny_config(**overrides)
    model, report = _trained(task, arch, cfg, head)
    with monkeypatch.context() as mp:
        calls = use_reference_training(mp)
        ref_model, ref_report = _trained(task, arch, cfg, head)
    assert all(calls.values()), calls
    assert np.array_equal(model.params, ref_model.params)
    assert report.checksum == ref_report.checksum
    assert np.array_equal(report.initial_loss, ref_report.initial_loss)
    assert np.array_equal(report.epoch_losses, ref_report.epoch_losses)


def test_ensemble_training_is_bit_identical_to_the_allocating_reference(
        monkeypatch):
    """The members from worker processes match the allocating reference,
    trained in this process."""
    args = (2, MlpArch(dim=2), default_gmm_task(), _tiny_config())
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    models, reports = train_ensemble(*args)
    with monkeypatch.context() as mp:
        mp.setattr(training, "_usable_cpus", lambda: 1)
        calls = use_reference_training(mp)
        ref_models, ref_reports = train_ensemble(*args)
    assert all(calls.values()), calls
    for m, r, rm, rr in zip(models, reports, ref_models, ref_reports):
        assert np.array_equal(m.params, rm.params)
        assert (r.initial_loss, r.epoch_losses) == (rr.initial_loss,
                                                    rr.epoch_losses)


def test_loss_gradients_match_the_allocating_reference():
    model = _nonzero_head(MlpVelocity.init(MlpArch(dim=64, hidden=32,
                                                   dropout=0.2), RngState(1)))
    g = RngState(2).generator()
    x0, x1 = g.standard_normal((2, 40, 64))
    t = g.uniform(0.1, 0.9, size=40)
    loss, d_ws, d_bs = _batch_loss_and_grads(model, x0, x1, t, RngState(3),
                                             np.empty(model.n_params),
                                             step_buffers(model, 40))
    out, cache = model.forward_cache(t[:, None] * x1 + (1.0 - t[:, None]) * x0,
                                     t, RngState(3), step_buffers(model, 40))
    resid = out - (x1 - x0)
    ref_ws, ref_bs = reference_backward(model, cache, (2.0 / 40) * resid,
                                        np.empty(model.n_params), None)
    assert loss == float((resid * resid).sum() / 40)
    for a, b in zip(d_ws + d_bs, ref_ws + ref_bs):
        assert np.array_equal(a, b)


# ---- initial loss of a fresh model -------------------------------------------


@pytest.mark.parametrize("dim", [2, 64])
@pytest.mark.parametrize("objective,dropout", [("fm", 0.0), ("one-step", 0.0),
                                               ("fm", 0.15)])
def test_fresh_model_initial_loss_skips_the_forward(dim, objective, dropout,
                                                    monkeypatch):
    """A fresh model's head is zero, so its initial loss comes without a
    forward, from the epoch-0 steps' pairs, and equals the chunked forward's
    to the bit."""
    task = default_gmm_task() if dim == 2 else ImageTask("bars", 8)
    cfg = _tiny_config(objective=objective, pairs_per_epoch=300)
    model = MlpVelocity.init(MlpArch(dim=dim, dropout=dropout), RngState(5))
    ep = cfg.seed.split(0)

    def chunked():
        return training._chunked_loss(
            model, training._epoch_batches(task, ep, cfg), cfg.pairs_per_epoch)

    fresh = chunked()
    calls = {}
    monkeypatch.setattr(MlpVelocity, "velocity",
                        counted(calls, "velocity", MlpVelocity.velocity))
    assert training._initial_loss(model, task, ep, cfg) is None
    assert train(model, task, cfg).initial_loss == fresh
    assert calls["velocity"] == 0
    _nonzero_head(model)
    assert training._initial_loss(model, task, ep, cfg) == chunked()
    assert calls["velocity"] == 2 * -(-cfg.pairs_per_epoch // cfg.batch_size)


@pytest.mark.parametrize("n,batch", [(8192, 128), (500, 64), (301, 7)])
@pytest.mark.parametrize("objective", ["fm", "one-step"])
def test_epoch_batches_have_the_bits_of_one_epoch_draw(n, batch, objective):
    """Each batch's times, drawn in turn from one generator and clipped,
    are the rows of one clipped draw over the epoch, short last batch
    included; the pairs are ``sample_pairs``' rows."""
    task = ImageTask("bars", 8)
    cfg = _tiny_config(objective=objective, pairs_per_epoch=n,
                       batch_size=batch)
    ep = cfg.seed.split(0)
    x0s, x1s, ts = zip(*training._epoch_batches(task, ep, cfg))
    sizes = [len(x) for x in x0s]
    assert sizes == [batch] * (n // batch) + ([n % batch] if n % batch else [])
    x0, x1 = task.sample_pairs(ep.split(0), n)
    assert np.array_equal(np.concatenate(x0s), x0)
    assert np.array_equal(np.concatenate(x1s), x1)
    if objective == "one-step":
        assert ts == (None,) * len(sizes)
        return
    assert [len(t) for t in ts] == sizes
    t = np.clip(ep.split(1).generator().uniform(size=n), *training.T_CLAMP)
    assert np.array_equal(np.concatenate(ts), t)


def _traced_epoch_mib(pairs):
    """The tracemalloc peak, in MiB, of one bars8 epoch of ``pairs`` pairs
    at the preset architecture and batch size."""
    cfg = load_config("bars8")
    task = cfg.build_task()
    model = MlpVelocity.init(cfg.build_arch(task.dim), RngState(1))
    tcfg = replace(cfg.training, epochs=1, pairs_per_epoch=pairs)
    assert tcfg.batch_size == 128
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train(model, task, tcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20


def test_training_memory_stays_batch_sized():
    """A bars8 epoch of 8192 pairs traces under 4 MiB, and 4 times the
    pairs add under 1 MiB: one epoch-sized (pairs, 64) float64 array would
    take 4 MiB at 8192 pairs and 16 MiB at 32768."""
    small = _traced_epoch_mib(8192)
    assert small < 4.0
    assert _traced_epoch_mib(32768) - small < 1.0


# ---- the runner --------------------------------------------------------------


def _mixed_jobs():
    """fm, one-step, dropout and narrower jobs on the default gmm task."""
    cfg = _tiny_config()
    return [TrainJob(MlpArch(dim=2), RngState(1), cfg),
            TrainJob(MlpArch(dim=2), RngState(2),
                     replace(cfg, objective="one-step")),
            TrainJob(MlpArch(dim=2, dropout=0.15), RngState(3), cfg),
            TrainJob(MlpArch(dim=2, hidden=16), RngState(4),
                     replace(cfg, seed=RngState(9)))]


def _same_training(pairs, ref_pairs):
    assert len(pairs) == len(ref_pairs)
    for (m, r), (rm, rr) in zip(pairs, ref_pairs):
        assert m.arch == rm.arch
        assert np.array_equal(m.params, rm.params)
        assert m.checksum() == r.checksum == rr.checksum
        assert (r.initial_loss, r.epoch_losses) == \
            (rr.initial_loss, rr.epoch_losses)


def _train_on(cpus, task, jobs):
    """``train_jobs`` as it runs where ``cpus`` CPUs are usable."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_usable_cpus", lambda: cpus)
        return train_jobs(task, jobs)


def test_workers_train_the_bits_of_the_in_process_runner():
    task, jobs = default_gmm_task(), _mixed_jobs()
    in_process = _train_on(1, task, jobs)
    _same_training(in_process, [run_job(task, job) for job in jobs])
    _same_training(_train_on(2, task, jobs), in_process)
    pids = _worker_pids()
    # a second call reuses the running workers
    _same_training(_train_on(2, task, jobs[::-1]), in_process[::-1])
    assert _worker_pids() == pids


def _worker_pids():
    return [w.proc.pid for w in _workers._POOL._workers]


def test_runner_starts_no_more_workers_than_jobs():
    _workers._POOL.close()
    assert _worker_pids() == []
    task = default_gmm_task()
    assert _train_on(8, task, []) == []
    assert _train_on(8, task, _mixed_jobs()[:2])
    assert len(_worker_pids()) == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through procfs")
def test_workers_run_one_blas_thread():
    """OpenBLAS starts its thread pool when numpy loads; a worker pinned to
    one BLAS thread has no thread beside its main one."""
    _train_on(2, default_gmm_task(), _mixed_jobs()[:2])
    pids = _worker_pids()
    assert len(pids) >= 2
    for pid in pids:
        assert os.listdir(f"/proc/{pid}/task") == [str(pid)]


def test_worker_training_error_keeps_its_type_and_message():
    task = default_gmm_task()
    jobs = _mixed_jobs()
    jobs[1] = replace(jobs[1], config=replace(jobs[1].config, epochs=10,
                                              learning_rate=1e8))
    errors = []
    for workers in (1, 2):
        with pytest.raises(TrainingError) as exc:
            _train_on(workers, task, jobs)
        errors.append(exc.value)
    local, remote = errors
    assert type(remote) is type(local) is TrainingError
    assert str(remote) == str(local)
    assert "diverged at epoch" in str(local)
    # the workers stay in use
    pids = _worker_pids()
    _same_training(_train_on(2, task, jobs[2:]),
                   _train_on(1, task, jobs[2:]))
    assert _worker_pids() == pids


def test_worker_that_died_while_idle_is_replaced():
    task, jobs = default_gmm_task(), _mixed_jobs()[:2]
    in_process = _train_on(1, task, jobs)
    _same_training(_train_on(2, task, jobs), in_process)
    pids = _worker_pids()
    dead = _workers._POOL._workers[0].proc
    dead.kill()
    dead.wait()
    _same_training(_train_on(2, task, jobs), in_process)
    assert len(_worker_pids()) == 2
    assert pids[0] not in _worker_pids() and pids[1] in _worker_pids()


def test_workers_ignore_a_flowvar_in_the_working_directory(tmp_path,
                                                         monkeypatch):
    """Workers import the caller's copy of the package and numpy, not the
    modules of those names in the caller's working directory."""
    (tmp_path / "flowvar").mkdir()
    for decoy in ("flowvar/__init__.py", "numpy.py"):
        (tmp_path / decoy).write_text(f"raise ImportError('{decoy}')\n")
    monkeypatch.chdir(tmp_path)
    _workers._POOL.close()
    task, jobs = default_gmm_task(), _mixed_jobs()[:2]
    _same_training(_train_on(2, task, jobs),
                   _train_on(1, task, jobs))


def test_killed_worker_raises_one_line_error():
    """A worker killed mid-job ends the call with one line, not a hang; the
    next call starts fresh workers."""
    task = ImageTask("bars", 8)
    long = TrainConfig(epochs=200, seed=RngState(1))
    jobs = [TrainJob(MlpArch(dim=64), RngState(i), long) for i in range(2)]
    _workers._POOL.close()

    def kill_first_worker():
        deadline = time.monotonic() + 30.0
        while not _workers._POOL._workers and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        _workers._POOL._workers[0].proc.kill()

    killer = threading.Thread(target=kill_first_worker)
    killer.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(TrainingError, match="stopped during a job") as exc:
            _train_on(2, task, jobs)
    finally:
        killer.join(timeout=60.0)
    assert not killer.is_alive()
    assert time.monotonic() - t0 < 30.0
    assert "\n" not in str(exc.value)
    assert _worker_pids() == []
    small = _mixed_jobs()[:2]
    _same_training(_train_on(2, default_gmm_task(), small),
                   _train_on(1, default_gmm_task(), small))


def test_unguarded_script_trains_an_ensemble_on_workers(tmp_path,
                                                        monkeypatch):
    """Workers start as fresh interpreters, so a script without a
    ``__name__ == "__main__"`` guard is not imported again."""
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from flowvar import training\n"
        "from flowvar.data import GmmTask\n"
        "from flowvar.models import MlpArch\n"
        "from flowvar.numerics import RngState\n"
        "from flowvar.oracle import GmmSpec\n"
        "from flowvar.training import TrainConfig, train_ensemble\n"
        "training._usable_cpus = lambda: 2  # 2 workers on any machine\n"
        "task = GmmTask(GmmSpec.isotropic([[0.5, 0.0], [3.5, 0.0]], 0.15))\n"
        "models, _ = train_ensemble(2, MlpArch(dim=2), task,\n"
        "    TrainConfig(epochs=1, pairs_per_epoch=256, batch_size=64,\n"
        "                seed=RngState(3)))\n"
        "print(' '.join(m.checksum() for m in models))\n")
    src = os.path.dirname(os.path.dirname(training.__file__))
    out = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
    models, _ = train_ensemble(2, MlpArch(dim=2), default_gmm_task(),
                               TrainConfig(epochs=1, pairs_per_epoch=256,
                                           batch_size=64, seed=RngState(3)))
    assert out.stdout.split() == [m.checksum() for m in models]
