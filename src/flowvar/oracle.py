"""A mixture of isotropic Gaussians as the data distribution, and the
closed-form posterior moments of its linear interpolant.

Component k of the mixture is N(mu_k, v_k I). For x1 drawn from it and
xt = t*x1 + (1-t)*x0 with x0 ~ N(0, I), the posterior p(x1 | xt) is again a
mixture of isotropic Gaussians, whose moments follow from standard conjugacy
through the K scalars s_k = t^2 v_k + (1-t)^2:

    component marginal of xt:  N(t*mu_k, s_k I)
    responsibilities:          r_k proportional to w_k * that density at xt
    component posterior:       mean mu_k + (t v_k / s_k)(xt - t*mu_k),
                               covariance (1-t)^2 v_k / s_k I
    mixture mean/cov:          law of total expectation/variance

These exact moments are the ground truth against which the velocity-Jacobian
covariance formula is verified. A variance of 0 is a point mass, so a finite
set of images is a mixture too, whose posterior mean is a softmax over the
set. The component covariance is written (1-t)^2 v_k / s_k, not
v_k - t^2 v_k^2 / s_k, whose subtraction cancels when v_k is large.

Each term is one array expression over all K components: (K,) scalars and
(K, n, d) offsets; no matrix is factored or solved. A ``GmmSpec`` keeps the
posterior terms of the last single point it evaluated (responsibilities,
offsets, component means and posterior mean), keyed on t and the bytes of
xt, so one oracle state (the analytic field's dense Jacobian and the
conjugacy posterior at the same point) computes them once. A miss computes
exactly what an uncached call would, so every output bit is the same, and
callers always receive fresh arrays. The spec holds read-only copies of its
weights, means and variances: a caller's later write into its own arrays
cannot reach the spec, and nothing can leave the memo stale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngState

__all__ = [
    "GmmSpec",
    "PosteriorOracle",
    "gmm_posterior",
    "gmm_posterior_batch",
    "posterior_mean_jacobian",
    "optimal_velocity_batch",
    "sample_pairs",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


class OracleError(ValueError):
    pass


def check_unit_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0 or t > 1.0:
        raise OracleError(f"flow time must lie in [0, 1], got {t}")
    return t


def check_interior_time(t: float) -> float:
    t = check_unit_time(t)
    if t == 0.0 or t == 1.0:
        raise OracleError(f"flow-time out of open interval (0, 1): t={t}")
    return t


@dataclass(frozen=True)
class GmmSpec:
    """Mixture weights/means/variances defining the data distribution p1;
    component k is N(means[k], variances[k] I).

    weights:   (K,) positive, summing to 1 within 1e-12
    means:     (K, d)
    variances: (K,) non-negative; a variance of 0 is a point mass
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        var = np.asarray(self.variances, dtype=np.float64).reshape(-1)
        if w.shape != (mu.shape[0],) or var.shape != w.shape:
            raise OracleError(
                f"inconsistent mixture shapes: weights {w.shape}, "
                f"means {mu.shape}, variances {var.shape}"
            )
        arrays = {"weights": w, "means": mu, "variances": var}
        for name, a in arrays.items():
            if not np.isfinite(a).all():
                raise OracleError(f"mixture {name} must be finite")
        # weights above 1 fail before their sum can overflow
        if np.any(w <= 0.0) or np.any(w > 1.0) or abs(w.sum() - 1.0) > 1e-12:
            raise OracleError("weights must be positive and sum to 1")
        if np.any(var < 0.0):
            raise OracleError("mixture variances must be non-negative")
        for name, a in arrays.items():
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_states", {})  # (t, xt bytes) -> terms

    def __reduce__(self):
        # pickled and copied by value; the copy starts with an empty memo
        return GmmSpec, (self.weights, self.means, self.variances)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @staticmethod
    def isotropic(means, sigma: float, weights=None) -> "GmmSpec":
        """Equal-shape components N(mu_k, sigma^2 I); equal weights unless given."""
        mu = np.atleast_2d(np.asarray(means, dtype=np.float64))
        k = mu.shape[0]
        if weights is None:
            weights = np.full(k, 1.0 / k)
        return GmmSpec(weights=weights, means=mu,
                       variances=np.full(k, sigma**2))

    @staticmethod
    def standard_normal(d: int) -> "GmmSpec":
        return GmmSpec.isotropic(np.zeros((1, d)), 1.0)


@dataclass(frozen=True)
class PosteriorOracle:
    """Exact posterior moments of x1 given xt at time t."""

    mean: np.ndarray  # (d,)
    covariance: np.ndarray  # (d, d), symmetric PSD


def _marginal_variances(spec: GmmSpec, t: float) -> np.ndarray:
    """s_k = t^2 v_k + (1-t)^2, each component's marginal variance of xt."""
    return t * t * spec.variances + (1.0 - t) ** 2


def _posterior_terms(spec: GmmSpec, xts: np.ndarray, t: float):
    """Responsibilities (n, K), offsets xt - t mu_k (K, n, d), component
    means (K, n, d) and the posterior mean (n, d) at interior time t and
    (n, d) points xts; a single point's are kept on the spec for the next
    call at the same (xt, t). Callers copy what they return."""
    if xts.shape[1] != spec.dim:
        raise OracleError(f"xt dimension {xts.shape[1]} != spec dim {spec.dim}")
    key = (t, xts.tobytes()) if xts.shape[0] == 1 else None
    terms = spec._states.get(key)
    if terms is not None:
        return terms
    s = _marginal_variances(spec, t)
    diff = xts - (t * spec.means)[:, None, :]
    # overflow to -inf is caught below as a degenerate-region error
    with np.errstate(over="ignore"):
        logj = (np.log(spec.weights)[:, None]
                - 0.5 * (diff * diff).sum(axis=2) / s[:, None]
                - 0.5 * spec.dim * (np.log(s) + _LOG_2PI)[:, None]).T
    # log posterior mixture weights, max-subtracted for stability
    peak = logj.max(axis=1)
    if not np.all(np.isfinite(peak)):
        raise OracleError("xt in negligible-density region")
    shifted = np.exp(logj - peak[:, None])
    resp = shifted / shifted.sum(axis=1, keepdims=True)
    # outside the errstate, so an overflow in a component mean still warns
    gains = t * spec.variances / s
    comp_means = spec.means[:, None, :] + gains[:, None, None] * diff
    terms = resp, diff, comp_means, np.einsum("nk,knd->nd", resp, comp_means)
    if key is not None:
        spec._states.clear()
        spec._states[key] = terms
    return terms


def _score_and_jacobian(spec: GmmSpec, xts: np.ndarray, t: float):
    """The marginal score (n, d) and the mean-Jacobian (n, d, d), from the
    component scores g_k = -(xt - t mu_k) / s_k."""
    resp, diff, comp_means, mean = _posterior_terms(spec, xts, t)
    s = _marginal_variances(spec, t)
    # huge means overflow these to inf or nan without a warning; the
    # oracle check's finite test reports that on one line
    with np.errstate(over="ignore", invalid="ignore"):
        comp_scores = -diff / s[:, None, None]
        score = np.einsum("nk,knd->nd", resp, comp_scores)
        jac = np.einsum("nk,knd,kne->nde", resp, comp_means, comp_scores)
        jac -= np.einsum("nd,ne->nde", mean, score)
        gain = resp @ (t * spec.variances / s)
        jac += gain[:, None, None] * np.eye(spec.dim)
    return score, jac


def _points(xts) -> np.ndarray:
    return np.atleast_2d(np.asarray(xts, dtype=np.float64))


def gmm_posterior_batch(spec: GmmSpec, xts: np.ndarray, t: float):
    """Posterior mean/covariance/responsibilities at a batch of points.

    Returns (means (n,d), covs (n,d,d), resp (n,K)).
    """
    t = check_interior_time(t)
    resp, _, comp_means, means = _posterior_terms(spec, _points(xts), t)
    # law of total variance: between-means spread plus within-component part
    dev = comp_means - means[None, :, :]  # (k, n, d)
    covs = np.einsum("nk,knd,kne->nde", resp, dev, dev)
    within = resp @ ((1.0 - t) ** 2 * spec.variances
                     / _marginal_variances(spec, t))
    covs += within[:, None, None] * np.eye(spec.dim)
    return means.copy(), covs, resp.copy()


def gmm_posterior(spec: GmmSpec, xt: np.ndarray, t: float) -> PosteriorOracle:
    """Exact posterior of the mixture at a single point."""
    xt = np.asarray(xt, dtype=np.float64).reshape(-1)
    means, covs, _ = gmm_posterior_batch(spec, xt[None, :], t)
    return PosteriorOracle(mean=means[0], covariance=covs[0])


def posterior_mean_jacobian(spec: GmmSpec, xts: np.ndarray, t: float) -> np.ndarray:
    """Exact Jacobian d E[x1|xt] / d xt, shape (n, d, d).

    Obtained by differentiating the conjugacy formulas directly: with
    responsibilities r_k, gains t v_k / s_k, component means m_k(x) and
    component scores g_k(x) = -(x - t mu_k) / s_k,

        grad r_k = r_k (g_k - sum_j r_j g_j)
        J = sum_k r_k (t v_k / s_k) I + sum_k r_k m_k g_k^T - m gbar^T

    No covariance identity is used, so this is an independent reference for
    the Jacobian-based covariance formula.
    """
    t = check_interior_time(t)
    return _score_and_jacobian(spec, _points(xts), t)[1]


def optimal_velocity_batch(spec: GmmSpec, xts: np.ndarray, t: float) -> np.ndarray:
    """Population-optimal velocity (E[x1|xt] - xt)/(1-t) at a batch of points."""
    t = check_interior_time(t)
    xts = _points(xts)
    return (_posterior_terms(spec, xts, t)[3] - xts) / (1.0 - t)


def sample_pairs(spec: GmmSpec, rng: RngState, n: int):
    """n independent (x0, x1) pairs: x0 ~ N(0, I), x1 ~ mixture.

    The two endpoints use separate child streams of ``rng`` so they stay
    independent and individually reproducible.
    """
    if n < 1:
        raise OracleError("n must be >= 1")
    d = spec.dim
    g0 = rng.split(0).generator()
    g1 = rng.split(1).generator()
    x0 = g0.standard_normal((n, d))
    comps = g1.choice(spec.n_components, size=n, p=spec.weights)
    z = g1.standard_normal((n, d))
    return x0, spec.means[comps] + np.sqrt(spec.variances)[comps, None] * z
