import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowvar.baselines import (BaselineError, _finish, _population_var,
                               ensemble_uq, mc_dropout_uq)
from flowvar.models import (EvalCounter, MlpArch, MlpVelocity, ModelError,
                            ModelField, time_features)
from flowvar.numerics import RngState

from refs import step_buffers


class FixedField:
    """Velocity chosen so the posterior mean at t = 0.5 equals ``mean``."""

    def __init__(self, mean, xt):
        # E[x1|xt] = xt + (1 - t) v  =>  v = (mean - xt) / (1 - t)
        self.v = (np.asarray(mean, float) - np.asarray(xt, float)) / 0.5

    def velocity(self, x, t):
        return self.v.copy()


def test_ensemble_hand_example():
    # posterior means (0,0), (1,0), (2,0): population variance (2/3, 0)
    xt = np.zeros(2)
    models = [FixedField([m, 0.0], xt) for m in (0.0, 1.0, 2.0)]
    est = ensemble_uq(models, xt, 0.5)
    assert np.allclose(est.diag, [2.0 / 3.0, 0.0], atol=1e-12)
    assert est.u == pytest.approx(2.0 / 3.0)
    assert est.diag.shape == (2,)


def test_ensemble_needs_two_members():
    xt = np.zeros(2)
    with pytest.raises(BaselineError, match="2 members"):
        ensemble_uq([FixedField([0, 0], xt)], xt, 0.5)


def test_ensemble_on_trained_models(gmm_ensemble, gmm_task):
    models, _ = gmm_ensemble
    xt = np.array([0.8, 0.1])
    est = ensemble_uq(models, xt, 0.5)
    assert est.diag.shape == (2,)
    assert np.all(est.diag >= 0.0)
    assert est.u > 0.0  # members genuinely differ
    again = ensemble_uq(models, xt, 0.5)
    assert np.array_equal(est.diag, again.diag)
    # np.var of the members' posterior means xt + (1 - t) v, bit for bit
    for t in (0.2, 0.5, 0.9):
        means = np.stack([xt + (1.0 - t) * m.velocity(xt, t) for m in models])
        ref = np.var(means, axis=0)
        est = ensemble_uq(models, xt, t)
        assert np.array_equal(est.diag, ref) and est.u == float(ref.sum())


def test_ensemble_member_of_the_wrong_shape_is_one_line():
    xt = np.zeros(2)
    good = FixedField([1.0, 0.0], xt)
    for bad_v in (np.zeros(3), np.zeros((1, 2)), np.float64(0.0)):
        bad = FixedField([0.0, 0.0], xt)
        bad.v = bad_v
        with pytest.raises(BaselineError, match=r"^ensemble member 1 gave a "
                           r"velocity of shape \(.*\) for a state of shape "
                           r"\(2,\)$"):
            ensemble_uq([good, bad], xt, 0.5)


def test_ensemble_counts_one_forward_per_member(gmm_ensemble):
    models, _ = gmm_ensemble
    counter = EvalCounter()
    handles = [ModelField(m, counter=counter) for m in models]
    ensemble_uq(handles, np.zeros(2), 0.5)
    assert counter.forwards == len(models)
    assert counter.jvps == 0 and counter.sampler_steps == 0


def test_dropout_variance_positive_and_deterministic(gmm_dropout):
    model, _ = gmm_dropout
    handle = ModelField(model)
    xt = np.array([0.4, -0.2])
    est = mc_dropout_uq(handle, xt, 0.5, passes=16, rng=RngState(11))
    assert est.diag.shape == (2,)
    assert est.u > 0.0
    rerun = mc_dropout_uq(handle, xt, 0.5, passes=16, rng=RngState(11))
    assert np.array_equal(est.diag, rerun.diag)
    other = mc_dropout_uq(handle, xt, 0.5, passes=16, rng=RngState(12))
    assert not np.array_equal(est.diag, other.diag)


def test_dropout_accepts_bare_model(gmm_dropout):
    model, _ = gmm_dropout
    xt = np.array([0.4, -0.2])
    bare = mc_dropout_uq(model, xt, 0.5, passes=8, rng=RngState(3))
    wrapped = mc_dropout_uq(ModelField(model), xt, 0.5, passes=8,
                            rng=RngState(3))
    assert np.array_equal(bare.diag, wrapped.diag)


def test_zero_rate_model_gives_zero_variance():
    arch = MlpArch(dim=2, hidden=16, depth=2, dropout=0.0)
    model = MlpVelocity.init(arch, RngState(5))
    # randomize the output head so the field is not identically zero
    model.weights[-1][:] = RngState(6).generator().standard_normal(
        model.weights[-1].shape)
    # np.var of 7 equal rows leaves rounding noise here; 0 must still be 0
    for passes in (2, 7, 8):
        counter = EvalCounter()
        est = mc_dropout_uq(ModelField(model, counter), np.ones(2), 0.5,
                            passes=passes, rng=RngState(0))
        assert est.u == 0.0
        assert np.array_equal(est.diag, np.zeros(2))
        assert counter.forwards == passes


def test_dropout_pass_floor_and_type_check():
    arch = MlpArch(dim=2, hidden=8, depth=2, dropout=0.1)
    model = MlpVelocity.init(arch, RngState(0))
    with pytest.raises(BaselineError, match="2 dropout passes"):
        mc_dropout_uq(model, np.zeros(2), 0.5, passes=1, rng=RngState(0))
    with pytest.raises(BaselineError, match="MLP"):
        mc_dropout_uq(object(), np.zeros(2), 0.5, passes=4, rng=RngState(0))
    # a seed array or a bare seed is refused on one line
    for rng in (np.arange(5, dtype=np.uint64), 7):
        with pytest.raises(BaselineError,
                           match=r"^mc dropout draws its masks from an "
                                 r"RngState, got \w+$"):
            mc_dropout_uq(model, np.zeros(2), 0.5, passes=4, rng=rng)


def _reference_dropout(model, xt, t, masks):
    """The per-pass loop the batched forward replaces: one hand-written
    one-row forward per pass, pass p dropping out with row p of each
    layer's masks."""
    feats = np.concatenate([xt, time_features(t, model.arch.n_freq)[0]])
    means = []
    for p in range(masks.shape[1]):
        h = feats
        for w, b, m in zip(model.weights, model.biases, masks):
            h = np.tanh(w @ h + b) * m[p]
        out = model.weights[-1] @ h + model.biases[-1]
        means.append(xt + (1.0 - t) * out)
    return np.var(np.stack(means), axis=0)


@pytest.mark.parametrize("passes", [2, 11, 50])
@pytest.mark.parametrize("wrap", [False, True])
def test_batched_dropout_matches_per_pass_loop(passes, wrap):
    arch = MlpArch(dim=3, hidden=16, depth=2, n_freq=4, dropout=0.2)
    model = MlpVelocity.init(arch, RngState(7))
    model.weights[-1][:] = RngState(8).generator().standard_normal(
        model.weights[-1].shape)
    xt = np.array([0.3, -1.1, 0.7])
    rng = RngState(21)
    counter = EvalCounter()
    handle = ModelField(model, counter) if wrap else model
    est = mc_dropout_uq(handle, xt, 0.4, passes=passes, rng=rng)
    masks = (rng.generator().random((2, passes, 16)) < 0.8) / 0.8
    ref = _reference_dropout(model, xt, 0.4, masks)
    assert est.diag.shape == (3,)
    assert est.u > 0.0
    np.testing.assert_allclose(est.diag, ref, rtol=1e-12, atol=0.0)
    if wrap:
        assert counter.forwards == passes and counter.jvps == 0


@given(st.sampled_from([2, 50]), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.sampled_from([0.1, 1e-300, 3.0, 1e150]))
@settings(max_examples=40, deadline=None)
def test_inline_variance_is_np_var_bit_for_bit(passes, d, seed, constant):
    """The estimate's variance is ``np.var(means, axis=0)``'s bits, constant
    columns included, before those columns are set to zero."""
    means = RngState(seed).generator().standard_normal((passes, d)) * 3.0
    means[:, 0] = constant  # a sum of copies of 0.1 does not divide back
    ref = np.var(means, axis=0)
    got = _population_var(means)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    # at t = 0 and xt = 0 the posterior means are the velocities' bits
    est = _finish(means.copy(), np.zeros(d), 0.0)
    ref[0] = 0.0
    assert np.array_equal(est.diag, ref)
    assert est.u == float(ref.sum())


def _shared_layer_reference(model, xt, t, passes, rng):
    """The estimate written out: a 1-D first layer, then the later layers
    and the head as passes-row products, dropping out with masks from one
    ``(depth, passes, hidden)`` uniform draw of ``rng``'s generator."""
    arch = model.arch
    keep = 1.0 - arch.dropout
    masks = (rng.generator().random((arch.depth, passes, arch.hidden))
             < keep) / keep
    act = np.tanh if arch.activation == "tanh" else (
        lambda z: np.maximum(z, 0.0))
    feats = np.concatenate([xt, time_features(t, arch.n_freq)[0]])
    h = act(feats @ model.weights[0].T + model.biases[0]) * masks[0]
    for w, b, m in zip(model.weights[1:-1], model.biases[1:-1], masks[1:]):
        h = act(h @ w.T + b) * m
    means = xt + (1.0 - t) * (h @ model.weights[-1].T + model.biases[-1])
    var = np.var(means, axis=0)
    var[np.all(means == means[0], axis=0)] = 0.0
    return var


@pytest.mark.parametrize("passes", [2, 50])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("depth", [1, 3])
def test_dropout_estimate_is_the_bits_of_the_shared_layer_pass(
        depth, activation, passes):
    """The estimate is the hand-written shared-first-layer pass's, bit for
    bit, and within 1e-12 of the P-row ``forward_cache`` route with the
    same masks. The same state gives the same bits, another state other
    ones, and a counting handle gains P forwards and no JVPs."""
    arch = MlpArch(dim=5, hidden=16, depth=depth, n_freq=4,
                   activation=activation, dropout=0.25)
    model = MlpVelocity.init(arch, RngState(3))
    model.weights[-1][:] = RngState(4).generator().standard_normal(
        model.weights[-1].shape)
    xt = RngState(5).generator().standard_normal(5)
    rng = RngState(2**64 + 17, 3)
    for t in (0.2, 0.7):
        counter = EvalCounter()
        est = mc_dropout_uq(ModelField(model, counter), xt, t, passes, rng)
        assert counter.forwards == passes and counter.jvps == 0
        ref = _shared_layer_reference(model, xt, t, passes, rng)
        assert np.array_equal(est.diag, ref) and est.u == float(ref.sum())
        out, _ = model.forward_cache(np.broadcast_to(xt, (passes, 5)), t, rng,
                                     step_buffers(model, passes))
        np.testing.assert_allclose(est.diag, np.var(xt + (1.0 - t) * out,
                                                    axis=0),
                                   rtol=1e-12, atol=0.0)
        again = mc_dropout_uq(model, xt, t, passes, rng)
        assert np.array_equal(again.diag, est.diag) and again.u == est.u
        other = mc_dropout_uq(model, xt, t, passes, RngState(2**64 + 17, 4))
        assert not np.array_equal(other.diag, est.diag)


def test_dropout_pass_refuses_non_finite_values_on_one_line():
    """A non-finite state or weight, in the shared first layer, a later
    layer or the head, ends in one ``ModelError`` line, with no warning."""
    arch = MlpArch(dim=3, hidden=16, depth=3, n_freq=4, dropout=0.2)
    base = MlpVelocity.init(arch, RngState(7))
    xt = np.array([0.3, -1.1, 0.7])
    cases = []
    for bad in (np.inf, -np.inf, np.nan):
        cases.append((base, np.array([0.3, bad, 0.7]), "activations"))
        for layer, what in ((0, "activations"), (1, "activations"),
                            (2, "activations"), (3, "output")):
            model = base.copy()
            model.weights[layer][0, 0] = bad
            cases.append((model, xt, what))
    for model, x, what in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=r"^forward pass diverged: "
                               rf"non-finite {what}$"):
                mc_dropout_uq(model, x, 0.4, passes=50, rng=RngState(1))
