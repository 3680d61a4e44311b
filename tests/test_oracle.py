import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowvar.models import EvalCounter, analytic_handle
from flowvar.numerics import RngState, draw_rademacher, finite_diff_jvp
from flowvar.oracle import (_SYSTEM_SLOTS, GmmSpec, OracleError,
                            conditional_score, gmm_posterior,
                            gmm_posterior_batch, interpolate,
                            marginal_moments, marginal_score,
                            optimal_velocity, optimal_velocity_batch,
                            posterior_mean_jacobian, sample_pairs,
                            single_gaussian_posterior,
                            single_gaussian_velocity_jacobian)
from flowvar.uq import cov_closed_form


def _two_comp():
    return GmmSpec.isotropic([[-1.0, 0.0], [1.5, 0.5]], 0.4)


def test_interpolate_endpoints_and_midpoint():
    x0 = np.array([1.0, 2.0])
    x1 = np.array([-3.0, 4.0])
    assert np.array_equal(interpolate(x0, x1, 0.0), x0)
    assert np.array_equal(interpolate(x0, x1, 1.0), x1)
    assert np.allclose(interpolate(x0, x1, 0.25), 0.75 * x0 + 0.25 * x1)
    with pytest.raises(OracleError):
        interpolate(x0, x1, 1.2)


def test_conditional_score_value_and_degenerate_time():
    xt = np.array([0.2, -0.1])
    x1 = np.array([1.0, 1.0])
    t = 0.6
    expected = -(xt - t * x1) / (1.0 - t) ** 2
    assert np.allclose(conditional_score(xt, x1, t), expected)
    with pytest.raises(OracleError, match="degenerate"):
        conditional_score(xt, x1, 1.0)


def test_spec_validation():
    with pytest.raises(OracleError):
        GmmSpec(weights=np.array([0.7, 0.2]), means=np.zeros((2, 1)),
                covs=np.stack([np.eye(1)] * 2))
    with pytest.raises(OracleError):
        GmmSpec(weights=np.array([1.0]), means=np.zeros((1, 2)),
                covs=-np.eye(2)[None])
    # an all-zero covariance is called zero, not asymmetric
    with pytest.raises(OracleError, match="covariance 1 is zero"):
        GmmSpec(weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)),
                covs=np.stack([np.eye(2), np.zeros((2, 2))]))
    # weights whose sum overflows are refused without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OracleError, match="sum to 1"):
            GmmSpec(weights=np.array([1e308, 1e308]), means=np.zeros((2, 1)),
                    covs=np.stack([np.eye(1)] * 2))


@pytest.mark.parametrize("field, kwargs", [
    ("weights", {"weights": [np.nan, 1.0]}),
    ("means", {"means": [[np.nan, 0.0], [3.5, 0.0]]}),
    ("means", {"means": [[np.inf, 0.0], [3.5, 0.0]]}),
    ("covs", {"covs": [np.eye(2), np.full((2, 2), np.inf)]}),
    ("covs", {"covs": [np.eye(2), np.diag([1.0, np.nan])]}),
])
def test_spec_rejects_non_finite_values(field, kwargs):
    good = {"weights": [0.5, 0.5], "means": [[0.5, 0.0], [3.5, 0.0]],
            "covs": [np.eye(2), np.eye(2)]}
    with pytest.raises(OracleError, match=f"{field} must be finite"):
        GmmSpec(**{**good, **kwargs})


def test_spec_is_a_read_only_copy():
    means = np.array([[-1.0, 0.0], [1.5, 0.5]])
    spec = GmmSpec.isotropic(means, 0.4)
    xt = np.array([0.2, -0.3])
    before = gmm_posterior(spec, xt, 0.4)
    assert not np.shares_memory(spec.means, means)
    for a in (spec.weights, spec.means, spec.covs):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    means[0] = 7.0
    after = gmm_posterior(spec, xt, 0.4)
    assert np.array_equal(after.covariance, before.covariance)
    assert np.array_equal(after.mean, before.mean)
    # a pickled copy is rebuilt: read-only again, same posterior
    copy = pickle.loads(pickle.dumps(spec))
    assert not copy.means.flags.writeable
    assert np.array_equal(gmm_posterior(copy, xt, 0.4).covariance,
                          before.covariance)


def _three_comp():
    return GmmSpec(weights=np.array([0.2, 0.5, 0.3]),
                   means=np.array([[0.0, 1.0, 2.0], [-1.0, 0.5, 0.0],
                                   [2.0, -1.0, 1.0]]),
                   covs=np.stack([0.3 * np.eye(3), np.diag([0.2, 0.5, 1.0]),
                                  np.array([[1.0, 0.3, 0.0], [0.3, 0.5, 0.1],
                                            [0.0, 0.1, 0.4]])]))


def _queries(spec, x, t, probes):
    """Every oracle output at (x, t), each from a call of its own."""
    est = cov_closed_form(analytic_handle(spec), x[0], t, probes,
                          materialize_full=True)
    single = x.shape[0] == 1
    return (
        *gmm_posterior_batch(spec, x, t),
        posterior_mean_jacobian(spec, x, t),
        optimal_velocity_batch(spec, x, t),
        *(marginal_score(spec, xi, t) for xi in x),
        est.diag_raw, est.full, est.min_eigenvalue,
        *((gmm_posterior(spec, x[0], t).covariance,) if single else ()),
    )


@pytest.mark.parametrize("make", [_two_comp, _three_comp],
                         ids=["k2d2", "k3d3"])
def test_memoised_spec_matches_a_fresh_one(make):
    spec = make()
    d = spec.dim
    gen = np.random.default_rng(3)
    points = [gen.standard_normal((1, d)) for _ in range(3)]
    points += [gen.standard_normal((4, d)), points[0]]
    times = [0.3, 0.7, 0.31, 0.5, 0.7, 0.9, 0.3]
    for i, t in enumerate(times):
        for j, x in enumerate(points):
            probes = draw_rademacher(RngState(i).split(j), d, 6)
            warm = _queries(spec, x, t, probes)
            cold = _queries(make(), x, t, probes)
            assert len(warm) == len(cold)
            for a, b in zip(warm, cold):
                assert np.array_equal(a, b)
            # the caller owns what it gets: writing into it changes nothing
            for a in warm:
                if isinstance(a, np.ndarray):
                    a[...] = np.nan
            again = _queries(spec, x, t, probes)
            for a, b in zip(again, cold):
                assert np.array_equal(a, b)


def test_memos_stay_bounded_over_distinct_times():
    spec = _two_comp()
    field = analytic_handle(spec)
    x = np.array([0.1, 0.2])
    for t in np.linspace(0.01, 0.99, 1000):
        x = x + 1e-3 * field.velocity(x, t)
    assert 0 < len(spec._systems) <= _SYSTEM_SLOTS
    assert len(spec._states) == 1


def test_analytic_counts_unchanged_on_a_memo_hit():
    spec = _two_comp()
    xt, t = np.array([0.3, -0.2]), 0.6
    probes = draw_rademacher(RngState(4), 2, 7)
    for _ in range(2):  # a cold spec, then every term from the memo
        counter = EvalCounter()
        field = analytic_handle(spec, counter)
        cov_closed_form(field, xt, t, probes, materialize_full=True)
        assert (counter.forwards, counter.jvps) == (0, 7 + 2)
        counter = EvalCounter()
        field = analytic_handle(spec, counter)
        field.value_and_jvp(xt, t, probes.probes)
        assert (counter.forwards, counter.jvps) == (1, 7)


def test_single_gaussian_matches_mixture_k1():
    rng = np.random.default_rng(0)
    cov = np.array([[0.5, 0.2], [0.2, 0.4]])
    mean = np.array([0.3, -0.7])
    spec = GmmSpec(weights=np.array([1.0]), means=mean[None], covs=cov[None])
    for t in (0.1, 0.5, 0.9):
        xt = rng.standard_normal(2)
        post = gmm_posterior(spec, xt, t)
        m2, c2 = single_gaussian_posterior(mean, cov, xt, t)
        assert np.allclose(post.mean, m2, atol=1e-10)
        assert np.allclose(post.covariance, c2, atol=1e-10)


def test_standard_normal_posterior_closed_form():
    spec = GmmSpec.standard_normal(3)
    xt = np.array([0.4, -1.0, 2.0])
    for t in (0.25, 0.5, 0.75):
        q = t * t + (1 - t) ** 2
        post = gmm_posterior(spec, xt, t)
        assert np.allclose(post.covariance, (1 - t) ** 2 / q * np.eye(3),
                           atol=1e-12)
        assert np.allclose(post.mean, t * xt / q, atol=1e-12)


@pytest.mark.parametrize("sigma", [0.15, 1e5, 1e7, 1e9, 1e50])
def test_isotropic_posterior_covariance_at_large_sigma(sigma):
    """One isotropic component's posterior covariance is
    sigma^2 (1-t)^2 / (t^2 sigma^2 + (1-t)^2) I, with no cancellation."""
    spec = GmmSpec.isotropic([[0.5, 0.0]], sigma)
    for t in (0.3, 0.9):
        cov = gmm_posterior(spec, np.array([0.2, -0.3]), t).covariance
        var = sigma**2 * (1 - t) ** 2 / (t * t * sigma**2 + (1 - t) ** 2)
        np.testing.assert_allclose(cov, var * np.eye(2), rtol=1e-12, atol=0)


def test_responsibilities_shift_invariance_of_covariance():
    # translating the whole mixture translates means but not covariances
    spec = _two_comp()
    shifted = GmmSpec(weights=spec.weights, means=spec.means + 5.0,
                      covs=spec.covs)
    xt = np.array([0.3, 0.1])
    t = 0.5
    a = gmm_posterior(spec, xt, t)
    b = gmm_posterior(shifted, xt + 5.0 * t, t)
    assert np.allclose(a.covariance, b.covariance, atol=1e-9)
    assert np.allclose(a.mean + 5.0, b.mean, atol=1e-9)


def test_mixture_covariance_dominates_within_component_part():
    # law of total variance: mixture cov minus averaged component cov is PSD
    spec = _two_comp()
    xt = np.array([0.2, 0.0])
    post = gmm_posterior(spec, xt, 0.4)
    evs = np.linalg.eigvalsh(post.covariance)
    assert np.all(evs > -1e-12)


def test_posterior_batch_matches_single():
    spec = _two_comp()
    xts = np.random.default_rng(1).standard_normal((5, 2))
    means, covs, _ = gmm_posterior_batch(spec, xts, 0.35)
    for i in range(5):
        one = gmm_posterior(spec, xts[i], 0.35)
        assert np.allclose(one.mean, means[i], atol=1e-12)
        assert np.allclose(one.covariance, covs[i], atol=1e-12)


def test_negligible_density_region_raises():
    spec = GmmSpec.isotropic([[0.0]], 1e-3)
    with pytest.raises(OracleError, match="negligible"):
        gmm_posterior(spec, np.array([1e200]), 0.9)


@given(st.floats(0.05, 0.95), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_tweedie_identity_between_score_and_mean(t, seed):
    spec = _two_comp()
    xt = RngState(seed).generator().standard_normal(2)
    post = gmm_posterior(spec, xt, t)
    score = marginal_score(spec, xt, t)
    lifted = xt / t + (1.0 - t) ** 2 / t * score
    assert np.allclose(lifted, post.mean, atol=1e-8)


def test_optimal_velocity_identity():
    spec = _two_comp()
    xt = np.array([0.1, -0.4])
    t = 0.3
    v = optimal_velocity(spec, xt, t)
    post = gmm_posterior(spec, xt, t)
    assert np.allclose(xt + (1 - t) * v, post.mean, atol=1e-10)
    batch = optimal_velocity_batch(spec, xt[None], t)
    assert np.allclose(batch[0], v, atol=1e-12)


def test_posterior_mean_jacobian_vs_finite_differences():
    spec = _two_comp()
    t = 0.45
    xt = np.array([0.25, -0.2])
    jac = posterior_mean_jacobian(spec, xt[None], t)[0]
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1.0
        fd = finite_diff_jvp(
            lambda z: gmm_posterior_batch(spec, np.atleast_2d(z), t)[0][0],
            xt, e)
        assert np.allclose(jac[:, k], fd, atol=1e-6)


def test_single_gaussian_velocity_jacobian_k1_consistency():
    cov = np.array([[0.3, 0.1], [0.1, 0.5]])
    spec = GmmSpec(weights=np.array([1.0]), means=np.zeros((1, 2)),
                   covs=cov[None])
    t = 0.6
    jv = single_gaussian_velocity_jacobian(cov, t)
    jm = posterior_mean_jacobian(spec, np.array([[0.2, -0.1]]), t)[0]
    assert np.allclose(jv, (jm - np.eye(2)) / (1 - t), atol=1e-10)


def test_marginal_moments_match_sampling():
    spec = _two_comp()
    mean, cov = marginal_moments(spec)
    _, x1 = sample_pairs(spec, RngState(9), 200_000)
    assert np.allclose(x1.mean(axis=0), mean, atol=0.02)
    assert np.allclose(np.cov(x1.T, ddof=0), cov, atol=0.03)


def test_sample_pairs_deterministic_and_shaped():
    spec = _two_comp()
    a0, a1 = sample_pairs(spec, RngState(4), 32)
    b0, b1 = sample_pairs(spec, RngState(4), 32)
    assert np.array_equal(a0, b0) and np.array_equal(a1, b1)
    assert a0.shape == (32, 2) and a1.shape == (32, 2)
