import warnings

import numpy as np
import pytest

from flowvar.models import (EvalCounter, MlpArch, MlpVelocity, ModelField,
                            analytic_handle)
from flowvar.numerics import RngState, draw_rademacher, exhaustive_sign_probes
from flowvar.oracle import GmmSpec
from flowvar.uq import (UqError, cov_closed_form, one_step_cov,
                        posterior_mean_from_velocity, prior_baseline,
                        shift_time_grid, trajectory_uq)

from refs import default_gmm_task


class LinearField:
    """v(x, t) = A x: a velocity field with a known constant Jacobian."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=np.float64)

    def velocity(self, x, t):
        return np.atleast_2d(x) @ self.A.T

    def jvp(self, x, t, u):
        return np.atleast_2d(u) @ self.A.T

    def jacobian(self, x, t):
        return self.A


def test_posterior_mean_from_velocity_examples():
    xt = np.array([0.5, 0.5])
    assert np.allclose(posterior_mean_from_velocity(xt, 0.3, np.zeros(2)), xt)
    assert np.allclose(
        posterior_mean_from_velocity(xt, 1.0, np.ones(2) * 9.0), xt)


def test_prior_baseline_values():
    assert prior_baseline(0.5, 784) == pytest.approx(392.0)
    assert prior_baseline(0.9, 784) == pytest.approx(8.711, abs=5e-4)
    assert prior_baseline(0.999, 784) == pytest.approx(7.85e-4, rel=1e-2)
    with pytest.raises(Exception):
        prior_baseline(0.0, 10)


def test_zero_jacobian_reduces_to_prior():
    field = LinearField(np.zeros((2, 2)))
    probes = exhaustive_sign_probes(2)
    est = cov_closed_form(field, np.zeros(2), 0.5, probes,
                          materialize_full=True)
    assert est.u == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(est.full, 0.5 * np.eye(2), atol=1e-12)
    assert not est.floored


def test_standard_gaussian_closed_form_at_three_quarters():
    spec = GmmSpec.standard_normal(2)
    field = analytic_handle(spec)
    probes = exhaustive_sign_probes(2)
    est = cov_closed_form(field, np.array([0.3, -1.2]), 0.75, probes,
                          materialize_full=True)
    assert np.allclose(est.full, 0.1 * np.eye(2), atol=1e-8)


def test_diag_sum_equals_u_exactly_even_with_random_probes():
    field = LinearField(np.array([[0.2, 0.5], [-0.3, 0.1]]))
    probes = draw_rademacher(RngState(0), 2, 7)
    est = cov_closed_form(field, np.zeros(2), 0.3, probes)
    assert est.u_raw == float(est.diag_raw.sum())
    assert est.u == pytest.approx(max(est.u_raw, 0.0))


def test_full_trace_matches_u_with_exhaustive_probes():
    rng = np.random.default_rng(5)
    field = LinearField(rng.standard_normal((3, 3)) * 0.3)
    probes = exhaustive_sign_probes(3)
    est = cov_closed_form(field, np.zeros(3), 0.6, probes,
                          materialize_full=True)
    assert abs(np.trace(est.full) - est.u_raw) < 1e-9


def test_flooring_flag_and_clamp():
    # strongly contracting linear field drives 1 + (1-t) J_ii negative
    field = LinearField(-5.0 * np.eye(2))
    probes = exhaustive_sign_probes(2)
    est = cov_closed_form(field, np.zeros(2), 0.5, probes)
    assert est.floored
    assert np.all(est.diag_raw < 0)
    assert np.all(est.diag == 0.0) and est.u == 0.0
    # mild expansion floors nothing
    est2 = cov_closed_form(LinearField(0.5 * np.eye(2)), np.zeros(2), 0.5,
                           probes)
    assert not est2.floored and np.array_equal(est2.diag, est2.diag_raw)


def test_probe_validation_errors():
    field = LinearField(np.eye(2))
    with pytest.raises(UqError, match="mismatch"):
        cov_closed_form(field, np.zeros(2), 0.5, exhaustive_sign_probes(3))
    with pytest.raises(UqError):
        cov_closed_form(field, np.zeros(2), 0.5, None)
    with pytest.raises(Exception):
        cov_closed_form(field, np.zeros(2), 1.0, exhaustive_sign_probes(2))


def test_overflowing_estimate_is_refused():
    """(1-t)^2/t overflows at a subnormal t, and the variances' sum just
    above it: no inf estimate comes back, and numpy warns of nothing."""
    probes = exhaustive_sign_probes(2)
    analytic = analytic_handle(default_gmm_task().spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e-308, 1e-310, 5e-324):
            with pytest.raises(UqError, match=f"not finite at t = {t:g}$"):
                cov_closed_form(LinearField(np.zeros((2, 2))), np.zeros(2), t,
                                probes)
        for t in (1e-310, 5e-324):
            with pytest.raises(UqError, match="not finite"):
                one_step_cov(LinearField(-0.5 * np.eye(2)), np.zeros(2), t,
                             probes)
            # the analytic J is -I here: each variance is 0 * inf
            with pytest.raises(UqError, match="not finite"):
                cov_closed_form(analytic, np.array([1.0, 0.2]), t, probes)
        est = cov_closed_form(LinearField(np.zeros((2, 2))), np.zeros(2),
                              1e-300, probes)
    assert np.isfinite(est.u_raw)


def test_full_materialization_dim_limit():
    d = 65
    field = LinearField(np.zeros((d, d)))
    probes = draw_rademacher(RngState(1), d, 4)
    with pytest.raises(UqError, match="64"):
        cov_closed_form(field, np.zeros(d), 0.5, probes,
                        materialize_full=True)
    # diag-only path stays available at any dimension
    est = cov_closed_form(field, np.zeros(d), 0.5, probes)
    assert est.full is None and est.diag.shape == (d,)


def test_one_step_zero_jacobian_value():
    field = LinearField(np.zeros((2, 2)))
    probes = exhaustive_sign_probes(2)
    est = one_step_cov(field, np.zeros(2), 0.01, probes)
    assert est.u == pytest.approx(196.02, abs=1e-9)
    assert est.t == pytest.approx(0.01)


def test_one_step_epsilon_validation():
    field = LinearField(np.zeros((2, 2)))
    probes = exhaustive_sign_probes(2)
    for bad in (0.0, -0.01, 0.2, 1.0):
        with pytest.raises(UqError, match="epsilon"):
            one_step_cov(field, np.zeros(2), bad, probes)


def test_one_step_counts_probe_forwards_only():
    spec = GmmSpec.standard_normal(2)
    counter = EvalCounter()
    field = analytic_handle(spec, counter)
    probes = draw_rademacher(RngState(2), 2, 50)
    one_step_cov(field, np.array([0.1, 0.2]), 0.01, probes)
    assert counter.jvps == 50
    assert counter.forwards == 0
    assert counter.sampler_steps == 0
    assert counter.forward_equivalents == 50


def test_shift_time_grid():
    grid = shift_time_grid((0.0, 0.1, 0.9, 0.98))
    assert grid[0] == pytest.approx(1e-3)
    assert grid[1:] == (0.1, 0.9, 0.98)
    with pytest.raises(UqError, match="increasing"):
        shift_time_grid((0.0, 0.0005, 0.1))
    for bad in (-0.1, 1.5, np.inf, np.nan):
        with pytest.raises(UqError, match=r"must lie in \[0, 1\]"):
            shift_time_grid((0.5, bad))
    with pytest.raises(UqError, match="empty"):
        shift_time_grid(())


def test_trajectory_series_matches_standard_gaussian_curve():
    spec = GmmSpec.standard_normal(2)
    field = analytic_handle(spec)
    times = shift_time_grid((0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.98))
    states = [np.array([0.3, -0.4])] * len(times)
    series = trajectory_uq(field, states, times, 16, RngState(3))
    us = [est.u for _, est in series.entries]
    for (t, est) in series.entries:
        q = t * t + (1 - t) ** 2
        assert est.u == pytest.approx(2 * (1 - t) ** 2 / q, abs=1e-9)
    assert all(a > b for a, b in zip(us, us[1:]))  # strictly decreasing


def test_trajectory_probes_are_each_points_own_draw():
    """Point i's estimate is the one of ``draw_rademacher(rng.split(i))``,
    bit for bit; its state is recorded."""
    rng = np.random.default_rng(11)
    field = LinearField(rng.standard_normal((5, 5)) * 0.3)
    states = list(rng.standard_normal((6, 5)))
    times = (0.1, 0.2, 0.4, 0.5, 0.7, 0.9)
    root = RngState(2**40 + 1, 2)
    series = trajectory_uq(field, states, times, 7, root)
    assert tuple(t for t, _ in series.entries) == times
    for i, (x, t, est) in enumerate(zip(states, times, series.estimates)):
        ref = cov_closed_form(field, x, t, draw_rademacher(root.split(i), 5, 7))
        assert est.probe_seed == root.split(i)
        assert np.array_equal(est.diag_raw, ref.diag_raw)
        assert est.u_raw == ref.u_raw
    assert trajectory_uq(field, [], [], 7, root).entries == ()


def test_trajectory_validation():
    field = LinearField(np.eye(2))
    with pytest.raises(UqError):
        trajectory_uq(field, [np.zeros(2)], [0.2, 0.4], 4, RngState(0))


def test_probe_refinement_variance_shrinks():
    # uq-module property: replicate variance of U non-increasing in S
    rng = np.random.default_rng(7)
    field = LinearField(rng.standard_normal((8, 8)) * 0.4)
    xt = rng.standard_normal(8)
    variances = []
    for si, s in enumerate((4, 16, 64, 256)):
        us = []
        for r in range(20):
            probes = draw_rademacher(RngState(100).split(si).split(r), 8, s)
            us.append(cov_closed_form(field, xt, 0.5, probes).u)
        variances.append(np.var(us))
    for a, b in zip(variances, variances[1:]):
        assert b <= 1.1 * a  # 10% statistical slack


def _old_full(field, x, t):
    """The covariance assembled from d basis-vector JVPs."""
    d = x.shape[0]
    jac = np.atleast_2d(field.jvp(x, t, np.eye(d))).T
    return (1.0 - t) ** 2 / t * (np.eye(d) + (1.0 - t) * jac)


def _mlp_field(d, hidden, activation, counter):
    m = MlpVelocity.init(MlpArch(dim=d, hidden=hidden,
                                 activation=activation), RngState(d))
    m.params[:] = RngState(d + 1).generator().standard_normal(m.n_params)
    m.params /= np.sqrt(m.arch.in_dim)
    return ModelField(m, counter)


@pytest.mark.parametrize("d, hidden", [(1, 32), (2, 32), (8, 32), (64, 64),
                                       (8, 4), (64, 16)])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_full_from_the_field_jacobian(d, hidden, activation):
    """``full`` from ``field.jacobian`` is the basis-JVP covariance bit for
    bit where the model forms both from its one-row pass (d <= hidden),
    and within 1e-13 relative where the basis products took the m-row pass;
    either way the counter books the same d JVPs."""
    counter = EvalCounter()
    field = _mlp_field(d, hidden, activation, counter)
    x = RngState(3).generator().standard_normal(d)
    probes = draw_rademacher(RngState(4), d, 5)
    for t in (0.2, 0.7):
        est = cov_closed_form(field, x, t, probes, materialize_full=True)
        assert (counter.forwards, counter.jvps) == (0, d)
        ref = _old_full(field, x, t)
        if d <= hidden:
            assert np.array_equal(est.full, ref)
        else:
            scale = np.abs(ref).max()
            assert np.abs(est.full - ref).max() <= 1e-13 * scale
        counter.jvps = 0


@pytest.mark.parametrize("spec", [
    GmmSpec.standard_normal(3),
    GmmSpec.isotropic([[0.5, 0.0], [3.5, 0.0]], 0.15),
    GmmSpec(weights=np.array([0.2, 0.3, 0.5]),
            means=np.array([[0.5, 0.0, 1.0], [3.5, 0.0, 0.0],
                            [2.0, 1.5, -1.0]]),
            covs=np.stack([np.diag([0.1, 0.4, 0.2]), 0.3 * np.eye(3),
                           np.array([[0.5, 0.2, 0.0], [0.2, 0.3, 0.1],
                                     [0.0, 0.1, 0.2]])])),
], ids=["normal3", "gmm2d", "k3d3"])
def test_full_from_the_analytic_jacobian(spec):
    counter = EvalCounter()
    field = analytic_handle(spec, counter)
    x = np.linspace(0.3, 1.7, spec.dim)
    probes = draw_rademacher(RngState(5), spec.dim, 6)
    for t in (0.1, 0.5, 0.9):
        est = cov_closed_form(field, x, t, probes, materialize_full=True)
        assert (counter.forwards, counter.jvps) == (0, spec.dim)
        assert np.array_equal(est.full, _old_full(field, x, t))
        counter.jvps = 0


class RecordingField:
    """A field that records the name of each method asked of it."""

    def __init__(self, field):
        self.field = field
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.field, name)


def test_full_estimate_reads_the_jacobian_once():
    field = RecordingField(analytic_handle(default_gmm_task().spec))
    probes = draw_rademacher(RngState(6), 2, 50)
    cov_closed_form(field, np.array([0.4, -0.3]), 0.5, probes,
                    materialize_full=True)
    assert field.calls == ["jacobian"]
    field.calls.clear()
    cov_closed_form(field, np.array([0.4, -0.3]), 0.5, probes)
    assert field.calls == ["jvp"]


@pytest.mark.parametrize("make, d, s", [
    (lambda c: analytic_handle(default_gmm_task().spec, c), 2, 50),
    (lambda c: _mlp_field(64, 128, "tanh", c), 64, 64),
], ids=["gmm2d", "bars8"])
def test_full_estimate_keeps_the_probe_estimate_bits(make, d, s):
    """On the analytic field, and on a bars8-shaped model at S = d, a full
    estimate's probe products from the dense Jacobian are the jvp block's
    bits, and ``full`` is the covariance of a separate ``jacobian`` call;
    the counter books the d basis tangents alone."""
    counter = EvalCounter()
    field = make(counter)
    x = RngState(7).generator().standard_normal(d)
    probes = draw_rademacher(RngState(8), d, s)
    for t in (0.1, 0.5, 0.9):
        est = cov_closed_form(field, x, t, probes, materialize_full=True)
        assert (counter.forwards, counter.jvps) == (0, d)
        ref = cov_closed_form(field, x, t, probes)
        assert est.diag_raw.tobytes() == ref.diag_raw.tobytes()
        assert est.u_raw == ref.u_raw
        full = (1.0 - t) ** 2 / t * (np.eye(d)
                                      + (1.0 - t) * field.jacobian(x, t))
        assert est.full.tobytes() == full.tobytes()
        counter.jvps = 0


@pytest.mark.parametrize("d, hidden", [(2, 32), (8, 4), (64, 128)])
def test_a_bare_model_is_a_field(d, hidden):
    field = _mlp_field(d, hidden, "tanh", EvalCounter())
    x = RngState(3).generator().standard_normal(d)
    for s in (3, d + 5):
        probes = draw_rademacher(RngState(s), d, s)
        for full in (False, True):
            got = cov_closed_form(field.model, x, 0.4, probes, full)
            ref = cov_closed_form(field, x, 0.4, probes, full)
            assert got.diag_raw.tobytes() == ref.diag_raw.tobytes()
            assert (got.u_raw, got.floored) == (ref.u_raw, ref.floored)
            if full:
                assert got.full.tobytes() == ref.full.tobytes()
