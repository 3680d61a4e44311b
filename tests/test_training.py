import numpy as np
import pytest

from flowvar import training
from flowvar.data import ImageTask, default_gmm_task
from flowvar.models import MlpArch, MlpVelocity
from flowvar.numerics import RngState
from flowvar.training import (TrainConfig, TrainingError, fm_loss,
                              one_step_loss, train, train_ensemble)


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
        TrainConfig(lr_schedule="warmup")
    with pytest.raises(TrainingError):
        TrainConfig(objective="score")
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=512, pairs_per_epoch=256)


def test_fm_loss_rejects_endpoint_times():
    m = MlpVelocity.init(MlpArch(dim=2), RngState(0))
    x = np.zeros((4, 2))
    with pytest.raises(TrainingError, match="interior"):
        fm_loss(m, x, x, np.array([0.5, 1.0, 0.5, 0.5]))


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


def test_fm_records_time_clamp_note():
    task = default_gmm_task()
    model = MlpVelocity.init(MlpArch(dim=2), RngState(1))
    report = train(model, task, _tiny_config())
    assert any("clamp" in note for note in report.notes)


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
    loss, gw, gb = one_step_loss(m, x0, x1)
    assert np.isfinite(loss)
    assert len(gw) == len(m.weights)


def test_divergence_aborts_with_partial_report():
    task = default_gmm_task()
    model = MlpVelocity.init(MlpArch(dim=2), RngState(1))
    with pytest.raises(TrainingError) as exc:
        train(model, task, _tiny_config(epochs=10, learning_rate=1e8))
    assert exc.value.report is not None
    assert len(exc.value.report.epoch_losses) < 10


def test_ensemble_members_are_distinct(gmm_ensemble):
    models, reports = gmm_ensemble
    assert len(models) == 5
    sums = {m.checksum() for m in models}
    assert len(sums) == 5
    for r in reports:
        assert r.epoch_losses[-1] < r.initial_loss


def test_ensemble_seed_override_forces_collisions():
    task = default_gmm_task()
    seed = RngState(77)
    pair = (seed, RngState(78))
    models, _ = train_ensemble(2, MlpArch(dim=2), task, _tiny_config(),
                               member_seeds=[pair, pair])
    assert models[0].checksum() == models[1].checksum()


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


def reference_backward(self, cache, dout, out=None):
    """Per-layer gradients in fresh arrays, copied into ``out`` when given."""
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
    if out is not None:
        out[:] = np.concatenate([a.ravel() for wb in zip(d_ws, d_bs)
                                 for a in wb])
    return d_ws, d_bs


def reference_initial_loss(model, x0, x1, t, batch):
    """The pre-training loss from one velocity call over the whole epoch."""
    if t is None:
        out = model.velocity(x0, 0.0)
    else:
        tc = t[:, None]
        out = model.velocity(tc * x1 + (1.0 - tc) * x0, t)
    return float(np.sum((out - (x1 - x0)) ** 2) / x0.shape[0])


def use_reference_training(monkeypatch):
    """Put the allocating optimizer, backward and initial-loss eval back."""
    monkeypatch.setattr(training, "_AdamW", ReferenceAdamW)
    monkeypatch.setattr(MlpVelocity, "backward", reference_backward)
    monkeypatch.setattr(training, "_initial_loss", reference_initial_loss)


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
        use_reference_training(mp)
        ref_model, ref_report = _trained(task, arch, cfg, head)
    assert np.array_equal(model.params, ref_model.params)
    assert report.checksum == ref_report.checksum
    assert np.array_equal(report.initial_loss, ref_report.initial_loss)
    assert np.array_equal(report.epoch_losses, ref_report.epoch_losses)


def test_ensemble_training_is_bit_identical_to_the_allocating_reference(
        monkeypatch):
    args = (2, MlpArch(dim=2), default_gmm_task(), _tiny_config())
    models, reports = train_ensemble(*args)
    with monkeypatch.context() as mp:
        use_reference_training(mp)
        ref_models, ref_reports = train_ensemble(*args)
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
    loss, d_ws, d_bs = fm_loss(model, x0, x1, t, RngState(3))
    out, cache = model.forward_cache(t[:, None] * x1 + (1.0 - t[:, None]) * x0,
                                     t, RngState(3))
    resid = out - (x1 - x0)
    ref_ws, ref_bs = reference_backward(model, cache, (2.0 / 40) * resid)
    assert loss == float((resid * resid).sum() / 40)
    for a, b in zip(d_ws + d_bs, ref_ws + ref_bs):
        assert np.array_equal(a, b)
