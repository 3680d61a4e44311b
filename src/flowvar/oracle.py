"""A Gaussian-mixture data distribution and the closed-form posterior
moments of its linear interpolant.

For x1 drawn from a GMM and xt = t*x1 + (1-t)*x0 with x0 ~ N(0, I), the
posterior p(x1 | xt) is again a Gaussian mixture whose moments follow from
standard conjugacy:

    component marginal of xt:  N(t*mu_k, t^2 Sigma_k + (1-t)^2 I)
    responsibilities:          r_k proportional to w_k * that density at xt
    per-component posterior:   Gaussian conditioning of (x1, xt)
    mixture mean/cov:          law of total expectation/variance

These exact moments are the ground truth against which the velocity-Jacobian
covariance formula is verified.

Each term is computed for all K components at once: one stacked Cholesky
factorization or solve over the (K, d, d) factors and one array expression
over the (K, n, d) offsets. A stacked call runs the same LAPACK routine on
each matrix, and every term is kept in C order, so each bit is the one a
per-component loop gives.

A ``GmmSpec`` memoises the work its queries repeat. It keeps the component
system of each time t it was asked about (the Cholesky factors and gains of
S_k = t^2 Sigma_k + (1-t)^2 I, the component covariances and
log-determinants), keyed on the float t, in at most ``_SYSTEM_SLOTS`` slots,
emptied when full. It also keeps the posterior terms of the last single
point it evaluated (responsibilities, component means, posterior mean and,
once asked for, the score and mean-Jacobian), keyed on t and the bytes of
xt. One oracle state (the analytic field's dense Jacobian and the
conjugacy posterior at the same point) then computes them once. A miss
computes exactly what an uncached call would, so every output bit is the
same, and callers always receive fresh arrays. The spec holds read-only
copies of its weights, means and covariances, and the Cholesky factors of
the covariances that its validation computes: a caller's later write into
its own arrays cannot reach the spec, and nothing can leave a memo stale.
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

# a time grid has a handful of times; an Euler trajectory brings a new one at
# every step and cycles through the slots
_SYSTEM_SLOTS = 8


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
        arrays = {"weights": w, "means": mu, "covs": cov}
        for name, a in arrays.items():
            if not np.isfinite(a).all():
                raise OracleError(f"mixture {name} must be finite")
        # weights above 1 fail before their sum can overflow
        if np.any(w <= 0.0) or np.any(w > 1.0) or abs(w.sum() - 1.0) > 1e-12:
            raise OracleError("weights must be positive and sum to 1")
        chols = np.empty((k, d, d))
        for j in range(k):
            a = cov[j]
            scale = np.abs(a).max()
            if scale == 0.0:
                raise OracleError(f"covariance {j} is zero")
            if np.abs(a - a.T).max() > 1e-9 * scale:
                raise OracleError(f"covariance {j} is not symmetric")
            try:
                chols[j] = np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                raise OracleError(f"covariance {j} is not positive definite")
        # the covariances' own factors, which sample_pairs draws through
        arrays["_chols"] = chols
        for name, a in arrays.items():
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_systems", {})  # t -> component system
        object.__setattr__(self, "_states", {})  # (t, xt bytes) -> terms

    def __reduce__(self):
        # pickled and copied by value; the copy refactors its covariances
        # and starts with empty memos
        return GmmSpec, (self.weights, self.means, self.covs)

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


def _component_system(spec: GmmSpec, t: float):
    """Per-component marginal factor L_k (chol of S_k = t^2 Sig_k + (1-t)^2 I),
    gain G_k = t Sig_k S_k^{-1}, posterior covariance (1-t)^2 Sig_k S_k^{-1}
    and log det L_k, from the spec's slots or computed into them.

    The covariance equals Sig_k - t G_k Sig_k, but that form's subtraction
    cancels when Sig_k is large."""
    systems = spec._systems
    system = systems.get(t)
    if system is not None:
        return system
    s = t * t * spec.covs + (1.0 - t) ** 2 * np.eye(spec.dim)
    chols = np.linalg.cholesky(s)
    # Sig S^{-1}, solved on the right: (S^{-1} Sig)^T = Sig S^{-1} since both
    # are symmetric; C-order, as the products that read it need for their bits
    sig_sinv = np.linalg.solve(s, spec.covs).swapaxes(1, 2).copy()
    gains = t * sig_sinv
    cj = (1.0 - t) ** 2 * sig_sinv
    comp_covs = 0.5 * (cj + cj.swapaxes(1, 2))
    logdets = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    if len(systems) >= _SYSTEM_SLOTS:
        systems.clear()
    systems[t] = system = (chols, gains, comp_covs, logdets)
    return system


class _Terms:
    """Posterior terms at n points: responsibilities r (n, K), whitened
    offsets L_k^{-1}(x - t mu_k) (K, d, n), component means (K, n, d) and the
    posterior mean (n, d); then, once asked for, the score (n, d) and the
    mean-Jacobian (n, d, d)."""

    __slots__ = ("resp", "white", "comp_means", "mean", "score", "jac")

    def __init__(self, resp, white, comp_means):
        self.resp = resp
        self.white = white
        self.comp_means = comp_means
        self.mean = np.einsum("nk,knd->nd", resp, comp_means)
        self.score = self.jac = None


def _posterior_terms(spec: GmmSpec, xts: np.ndarray, t: float,
                     derivatives: bool = False) -> _Terms:
    """The terms at interior time t and (n, d) points xts; a single point's
    are kept on the spec for the next call at the same (xt, t). Callers copy
    what they return."""
    if xts.shape[1] != spec.dim:
        raise OracleError(f"xt dimension {xts.shape[1]} != spec dim {spec.dim}")
    chols, gains, _, logdets = _component_system(spec, t)
    key = (t, xts.tobytes()) if xts.shape[0] == 1 else None
    terms = spec._states.get(key)
    if terms is None:
        terms = _mixture_terms(spec, xts, t, chols, gains, logdets)
        if key is not None:
            spec._states.clear()
            spec._states[key] = terms
    if derivatives and terms.jac is None:
        _add_derivatives(terms, chols, gains)
    return terms


def _mixture_terms(spec: GmmSpec, xts, t, chols, gains, logdets) -> _Terms:
    diff = xts - (t * spec.means)[:, None, :]  # (K, n, d)
    white = np.linalg.solve(chols, diff.swapaxes(1, 2))
    y = white.swapaxes(1, 2)
    # overflow to -inf is caught below as a degenerate-region error
    with np.errstate(over="ignore"):
        logj = (np.log(spec.weights)[:, None] - 0.5 * (y * y).sum(axis=2)
                - logdets[:, None] - 0.5 * spec.dim * _LOG_2PI).T.copy()
    # log posterior mixture weights, max-subtracted for stability
    peak = logj.max(axis=1)
    if not np.all(np.isfinite(peak)):
        raise OracleError("xt in negligible-density region")
    shifted = np.exp(logj - peak[:, None])
    # outside the errstate, so an overflow in a component mean still warns
    comp_means = spec.means[:, None, :] + diff @ gains.swapaxes(1, 2)
    return _Terms(shifted / shifted.sum(axis=1, keepdims=True), white,
                  comp_means)


def _add_derivatives(terms: _Terms, chols, gains) -> None:
    """Score and mean-Jacobian from the component scores
    g_k = -S_k^{-1}(x - t mu_k) = -L_k^{-T} (whitened offset)."""
    comp_scores = -np.linalg.solve(chols.swapaxes(1, 2),
                                   terms.white).swapaxes(1, 2)
    resp = terms.resp
    # huge means overflow these to inf or nan without a warning; the
    # oracle check's finite test reports that on one line
    with np.errstate(over="ignore", invalid="ignore"):
        terms.score = np.einsum("nk,knd->nd", resp, comp_scores)
        jac = np.einsum("nk,kde->nde", resp, gains)
        jac += np.einsum("nk,knd,kne->nde", resp, terms.comp_means,
                         comp_scores)
        jac -= np.einsum("nd,ne->nde", terms.mean, terms.score)
    terms.jac = jac


def _points(xts) -> np.ndarray:
    return np.atleast_2d(np.asarray(xts, dtype=np.float64))


def gmm_posterior_batch(spec: GmmSpec, xts: np.ndarray, t: float):
    """Posterior mean/covariance/responsibilities at a batch of points.

    Returns (means (n,d), covs (n,d,d), resp (n,K)).
    """
    t = check_interior_time(t)
    terms = _posterior_terms(spec, _points(xts), t)
    comp_covs = _component_system(spec, t)[2]
    resp, means = terms.resp, terms.mean
    # law of total variance: within-component plus between-means spread
    covs = np.einsum("nk,kde->nde", resp, comp_covs)
    dev = terms.comp_means - means[None, :, :]  # (k, n, d)
    covs += np.einsum("nk,knd,kne->nde", resp, dev, dev)
    return means.copy(), covs, resp.copy()


def gmm_posterior(spec: GmmSpec, xt: np.ndarray, t: float) -> PosteriorOracle:
    """Exact posterior of the mixture at a single point."""
    xt = np.asarray(xt, dtype=np.float64).reshape(-1)
    means, covs, _ = gmm_posterior_batch(spec, xt[None, :], t)
    return PosteriorOracle(mean=means[0], covariance=covs[0])


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
    return _posterior_terms(spec, _points(xts), t, derivatives=True).jac.copy()


def optimal_velocity_batch(spec: GmmSpec, xts: np.ndarray, t: float) -> np.ndarray:
    """Population-optimal velocity (E[x1|xt] - xt)/(1-t) at a batch of points."""
    t = check_interior_time(t)
    xts = _points(xts)
    return (_posterior_terms(spec, xts, t).mean - xts) / (1.0 - t)


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
        x1[idx] = spec.means[j] + z[idx] @ spec._chols[j].T
    return x0, x1
