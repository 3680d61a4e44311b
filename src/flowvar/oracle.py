"""Linear interpolant, its conditional Gaussian law, and a Gaussian-mixture
data distribution with closed-form posterior moments.

For x1 drawn from a GMM and xt = t*x1 + (1-t)*x0 with x0 ~ N(0, I), the
posterior p(x1 | xt) is again a Gaussian mixture whose moments follow from
standard conjugacy:

    component marginal of xt:  N(t*mu_k, t^2 Sigma_k + (1-t)^2 I)
    responsibilities:          r_k proportional to w_k * that density at xt
    per-component posterior:   Gaussian conditioning of (x1, xt)
    mixture mean/cov:          law of total expectation/variance

These exact moments are the ground truth against which the velocity-Jacobian
covariance formula is verified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngState

__all__ = [
    "GmmSpec",
    "PosteriorOracle",
    "interpolate",
    "conditional_score",
    "gmm_posterior",
    "gmm_posterior_batch",
    "marginal_score",
    "marginal_moments",
    "posterior_mean_jacobian",
    "optimal_velocity",
    "optimal_velocity_batch",
    "single_gaussian_posterior",
    "single_gaussian_velocity_jacobian",
    "sample_pair",
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


def interpolate(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """Linear interpolant t*x1 + (1-t)*x0; endpoints allowed."""
    t = check_unit_time(t)
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise OracleError(f"dimension mismatch: {x0.shape} vs {x1.shape}")
    return t * x1 + (1.0 - t) * x0


def conditional_score(xt: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """Gradient in xt of log N(xt; t*x1, (1-t)^2 I) = -(xt - t*x1)/(1-t)^2."""
    t = check_unit_time(t)
    if t == 1.0:
        raise OracleError("degenerate conditional: t=1 has zero noise scale")
    xt = np.asarray(xt, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if xt.shape != x1.shape:
        raise OracleError(f"dimension mismatch: {xt.shape} vs {x1.shape}")
    return -(xt - t * x1) / (1.0 - t) ** 2


@dataclass(frozen=True)
class GmmSpec:
    """Mixture weights/means/covariances defining the data distribution p1.

    weights: (K,) positive, summing to 1 within 1e-12
    means:   (K, d)
    covs:    (K, d, d) symmetric positive definite
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        cov = np.asarray(self.covs, dtype=np.float64)
        if cov.ndim == 2:
            cov = cov[None, :, :]
        k, d = mu.shape
        if w.shape != (k,) or cov.shape != (k, d, d):
            raise OracleError(
                f"inconsistent mixture shapes: weights {w.shape}, "
                f"means {mu.shape}, covs {cov.shape}"
            )
        if np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise OracleError("weights must be positive and sum to 1")
        for j in range(k):
            a = cov[j]
            scale = np.abs(a).max()
            if scale == 0.0 or np.abs(a - a.T).max() > 1e-9 * scale:
                raise OracleError(f"covariance {j} is not symmetric")
            try:
                np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                raise OracleError(f"covariance {j} is not positive definite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cov)

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
        k, d = mu.shape
        if weights is None:
            weights = np.full(k, 1.0 / k)
        covs = np.repeat((sigma**2 * np.eye(d))[None, :, :], k, axis=0)
        return GmmSpec(weights=weights, means=mu, covs=covs)

    @staticmethod
    def standard_normal(d: int) -> "GmmSpec":
        return GmmSpec.isotropic(np.zeros((1, d)), 1.0)


@dataclass(frozen=True)
class PosteriorOracle:
    """Exact posterior moments of x1 given xt at time t."""

    mean: np.ndarray  # (d,)
    covariance: np.ndarray  # (d, d), symmetric PSD
    responsibilities: np.ndarray  # (K,), sums to 1


def _component_system(spec: GmmSpec, t: float):
    """Per-component marginal factor L_k (chol of S_k = t^2 Sig_k + (1-t)^2 I)
    and gain G_k = t Sig_k S_k^{-1}."""
    k, d = spec.n_components, spec.dim
    eye = np.eye(d)
    chols = np.empty((k, d, d))
    gains = np.empty((k, d, d))
    for j in range(k):
        s = t * t * spec.covs[j] + (1.0 - t) ** 2 * eye
        chols[j] = np.linalg.cholesky(s)
        # G_k = t Sig S^{-1}; S and Sig need not commute, solve on the right:
        # (S^{-1} Sig)^T = Sig S^{-1} since both are symmetric.
        gains[j] = t * np.linalg.solve(s, spec.covs[j]).T
    return chols, gains


def _log_responsibilities(spec: GmmSpec, xts: np.ndarray, t: float, chols):
    """Log posterior mixture weights at each xt, max-subtracted for stability."""
    n = xts.shape[0]
    k, d = spec.n_components, spec.dim
    logj = np.empty((n, k))
    # overflow to -inf is caught below as a degenerate-region error
    with np.errstate(over="ignore"):
        for j in range(k):
            diff = xts - t * spec.means[j]
            y = np.linalg.solve(chols[j], diff.T).T
            logdet = np.log(np.diag(chols[j])).sum()
            logj[:, j] = (
                np.log(spec.weights[j])
                - 0.5 * (y * y).sum(axis=1)
                - logdet
                - 0.5 * d * _LOG_2PI
            )
    peak = logj.max(axis=1)
    if not np.all(np.isfinite(peak)):
        raise OracleError("xt in negligible-density region")
    shifted = np.exp(logj - peak[:, None])
    return shifted / shifted.sum(axis=1, keepdims=True)


def gmm_posterior_batch(spec: GmmSpec, xts: np.ndarray, t: float):
    """Posterior mean/covariance/responsibilities at a batch of points.

    Returns (means (n,d), covs (n,d,d), resp (n,K)).
    """
    t = check_interior_time(t)
    xts = np.atleast_2d(np.asarray(xts, dtype=np.float64))
    if xts.shape[1] != spec.dim:
        raise OracleError(f"xt dimension {xts.shape[1]} != spec dim {spec.dim}")
    n = xts.shape[0]
    k, d = spec.n_components, spec.dim

    chols, gains = _component_system(spec, t)
    resp = _log_responsibilities(spec, xts, t, chols)

    comp_means = np.empty((k, n, d))
    comp_covs = np.empty((k, d, d))
    for j in range(k):
        comp_means[j] = spec.means[j] + (xts - t * spec.means[j]) @ gains[j].T
        cj = spec.covs[j] - t * gains[j] @ spec.covs[j]
        comp_covs[j] = 0.5 * (cj + cj.T)

    means = np.einsum("nk,knd->nd", resp, comp_means)
    # law of total variance: within-component plus between-means spread
    covs = np.einsum("nk,kde->nde", resp, comp_covs)
    dev = comp_means - means[None, :, :]  # (k, n, d)
    covs += np.einsum("nk,knd,kne->nde", resp, dev, dev)
    return means, covs, resp


def gmm_posterior(spec: GmmSpec, xt: np.ndarray, t: float) -> PosteriorOracle:
    """Exact posterior of the mixture at a single point."""
    xt = np.asarray(xt, dtype=np.float64).reshape(-1)
    means, covs, resp = gmm_posterior_batch(spec, xt[None, :], t)
    return PosteriorOracle(mean=means[0], covariance=covs[0], responsibilities=resp[0])


def posterior_mean_jacobian(spec: GmmSpec, xts: np.ndarray, t: float) -> np.ndarray:
    """Exact Jacobian d E[x1|xt] / d xt, shape (n, d, d).

    Obtained by differentiating the conjugacy formulas directly: with
    responsibilities r_k, gains G_k, component means m_k(x) and component
    scores g_k(x) = -S_k^{-1}(x - t mu_k),

        grad r_k = r_k (g_k - sum_j r_j g_j)
        J = sum_k r_k G_k + sum_k r_k m_k g_k^T - m gbar^T

    No covariance identity is used, so this is an independent reference for
    the Jacobian-based covariance formula.
    """
    t = check_interior_time(t)
    xts = np.atleast_2d(np.asarray(xts, dtype=np.float64))
    n = xts.shape[0]
    k, d = spec.n_components, spec.dim
    chols, gains = _component_system(spec, t)
    resp = _log_responsibilities(spec, xts, t, chols)

    comp_means = np.empty((k, n, d))
    comp_scores = np.empty((k, n, d))
    for j in range(k):
        diff = xts - t * spec.means[j]
        comp_means[j] = spec.means[j] + diff @ gains[j].T
        y = np.linalg.solve(chols[j], diff.T)
        comp_scores[j] = -np.linalg.solve(chols[j].T, y).T

    mean = np.einsum("nk,knd->nd", resp, comp_means)
    sbar = np.einsum("nk,knd->nd", resp, comp_scores)
    jac = np.einsum("nk,kde->nde", resp, gains)
    jac += np.einsum("nk,knd,kne->nde", resp, comp_means, comp_scores)
    jac -= np.einsum("nd,ne->nde", mean, sbar)
    return jac


def marginal_score(spec: GmmSpec, xt: np.ndarray, t: float) -> np.ndarray:
    """Score of the interpolant marginal p_t: sum_k r_k * (-S_k^{-1}(xt - t mu_k))."""
    t = check_interior_time(t)
    xt = np.asarray(xt, dtype=np.float64).reshape(-1)
    chols, _ = _component_system(spec, t)
    resp = _log_responsibilities(spec, xt[None, :], t, chols)[0]
    out = np.zeros_like(xt)
    for j in range(spec.n_components):
        diff = xt - t * spec.means[j]
        y = np.linalg.solve(chols[j], diff)
        out -= resp[j] * np.linalg.solve(chols[j].T, y)
    return out


def marginal_moments(spec: GmmSpec):
    """Mean and covariance of the mixture itself (the t->0 posterior limit)."""
    mean = spec.weights @ spec.means
    cov = np.einsum("k,kde->de", spec.weights, spec.covs)
    dev = spec.means - mean
    cov = cov + np.einsum("k,kd,ke->de", spec.weights, dev, dev)
    return mean, cov


def optimal_velocity_batch(spec: GmmSpec, xts: np.ndarray, t: float) -> np.ndarray:
    """Population-optimal velocity (E[x1|xt] - xt)/(1-t) at a batch of points."""
    t = check_interior_time(t)
    xts = np.atleast_2d(np.asarray(xts, dtype=np.float64))
    means, _, _ = gmm_posterior_batch(spec, xts, t)
    return (means - xts) / (1.0 - t)


def optimal_velocity(spec: GmmSpec, xt: np.ndarray, t: float) -> np.ndarray:
    xt = np.asarray(xt, dtype=np.float64).reshape(-1)
    return optimal_velocity_batch(spec, xt[None, :], t)[0]


def single_gaussian_posterior(mean, cov, xt, t: float):
    """K=1 posterior via the precision (information-filter) form.

    Independent of the conjugacy route in :func:`gmm_posterior_batch`:
        precision = Sigma^{-1} + t^2/(1-t)^2 I
        post mean = precision^{-1} (Sigma^{-1} mu + t/(1-t)^2 xt)
    Used as a cross-check against the general mixture path.
    """
    t = check_interior_time(t)
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    cov = np.asarray(cov, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64).reshape(-1)
    d = mean.shape[0]
    noise = (1.0 - t) ** 2
    prec = np.linalg.inv(cov) + (t * t / noise) * np.eye(d)
    post_cov = np.linalg.inv(prec)
    post_cov = 0.5 * (post_cov + post_cov.T)
    post_mean = post_cov @ (np.linalg.solve(cov, mean) + (t / noise) * xt)
    return post_mean, post_cov


def single_gaussian_velocity_jacobian(cov, t: float) -> np.ndarray:
    """x-independent Jacobian of the K=1 optimal velocity: (G - I)/(1-t)
    with gain G = t Sigma (t^2 Sigma + (1-t)^2 I)^{-1}."""
    t = check_interior_time(t)
    cov = np.asarray(cov, dtype=np.float64)
    d = cov.shape[0]
    s = t * t * cov + (1.0 - t) ** 2 * np.eye(d)
    gain = t * np.linalg.solve(s, cov).T
    return (gain - np.eye(d)) / (1.0 - t)


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
    x1 = np.empty((n, d))
    for j in range(spec.n_components):
        idx = comps == j
        if not np.any(idx):
            continue
        chol = np.linalg.cholesky(spec.covs[j])
        x1[idx] = spec.means[j] + z[idx] @ chol.T
    return x0, x1


def sample_pair(spec: GmmSpec, rng: RngState):
    x0, x1 = sample_pairs(spec, rng, 1)
    return x0[0], x1[0]
