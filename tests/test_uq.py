import numpy as np
import pytest

from flowvar.models import EvalCounter, ModelField, analytic_handle
from flowvar.numerics import RngState, draw_rademacher, exhaustive_sign_probes
from flowvar.oracle import GmmSpec, conditional_score, gmm_posterior
from flowvar.uq import (DEFAULT_EPSILON, UqError, cov_closed_form,
                        one_step_cov, posterior_mean_from_velocity,
                        prior_baseline, shift_time_grid, trajectory_uq,
                        tweedie_posterior_mean)


class LinearField:
    """v(x, t) = A x: a velocity field with a known constant Jacobian."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=np.float64)

    def velocity(self, x, t):
        return np.atleast_2d(x) @ self.A.T

    def jvp(self, x, t, u):
        return np.atleast_2d(u) @ self.A.T


def test_tweedie_posterior_mean_examples():
    xt = np.array([0.3, -0.8])
    # known x1: substituting the conditional score recovers x1 exactly
    x1 = np.array([1.0, 2.0])
    t = 0.4
    score = conditional_score(xt, x1, t)
    assert np.allclose(tweedie_posterior_mean(xt, t, score), x1, atol=1e-10)
    # zero score at t = 0.5 doubles the state
    assert np.allclose(tweedie_posterior_mean(xt, 0.5, np.zeros(2)), 2 * xt)
    with pytest.raises((UqError, Exception)):
        tweedie_posterior_mean(xt, 1.0, np.zeros(2))


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
    assert DEFAULT_EPSILON == pytest.approx(1e-2)


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
