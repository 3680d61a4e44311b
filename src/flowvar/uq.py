"""Closed-form posterior statistics from a velocity field.

The central identity: for the linear interpolant with standard-normal x0, the
posterior covariance of the data given the current state is an affine
function of the velocity Jacobian,

    Cov(x1 | xt) = (1-t)^2/t * [I + (1-t) J_v(xt, t)],

so the trace (scalar uncertainty U) needs only the divergence of the velocity
field, and the divergence plus the Jacobian diagonal come from a handful of
Hutchinson probes. No sampling, no ensembles, no extra training.

Estimates carry both raw and floored values: a trained field's Jacobian can
produce slightly negative variances, and the sign of those entries is a
diagnostic of model misfit rather than noise to be hidden.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelField
from .numerics import (ProbeSet, RngState, draw_rademacher,
                       hutchinson_diagonal)
from .oracle import check_interior_time, check_unit_time

__all__ = [
    "PosteriorEstimate",
    "UncertaintyMapSeries",
    "UqError",
    "tweedie_posterior_mean",
    "posterior_mean_from_velocity",
    "cov_closed_form",
    "prior_baseline",
    "one_step_cov",
    "trajectory_uq",
    "shift_time_grid",
]

FULL_COV_DIM_LIMIT = 64
DEFAULT_EPSILON = 1e-2


class UqError(ValueError):
    pass


def tweedie_posterior_mean(xt, t: float, score) -> np.ndarray:
    """Posterior mean through the marginal score: xt/t + [(1-t)^2/t] score."""
    t = check_interior_time(t)
    xt = np.asarray(xt, dtype=np.float64)
    score = np.asarray(score, dtype=np.float64)
    if xt.shape != score.shape:
        raise UqError(f"shape mismatch: xt {xt.shape} vs score {score.shape}")
    return xt / t + ((1.0 - t) ** 2 / t) * score


def posterior_mean_from_velocity(xt, t: float, v) -> np.ndarray:
    """Posterior mean through the velocity: xt + (1-t) v. Valid up to t=1."""
    t = check_unit_time(t)
    xt = np.asarray(xt, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if xt.shape != v.shape:
        raise UqError(f"shape mismatch: xt {xt.shape} vs v {v.shape}")
    return xt + (1.0 - t) * v


def prior_baseline(t: float, d: int) -> float:
    """Uncertainty of a divergence-free field: (1-t)^2 d / t."""
    t = check_interior_time(t)
    if d < 1:
        raise UqError("d must be >= 1")
    return (1.0 - t) ** 2 * d / t


@dataclass(frozen=True)
class PosteriorEstimate:
    """Scalar/per-pixel posterior variance at one (state, time) point.

    ``u`` and ``diag`` are floored at zero; the raw values are kept alongside
    because negative mass diagnoses the gap between the trained field and the
    population optimum. ``full`` (when materialized) stays unfloored, with the
    smallest eigenvalue of its symmetric part reported rather than clipped.
    """

    t: float
    u: float
    diag: np.ndarray
    u_raw: float
    diag_raw: np.ndarray
    divergence: float
    floored: bool
    probe_seed: RngState | None
    full: np.ndarray | None = None
    min_eigenvalue: float | None = None

    @property
    def dim(self) -> int:
        return self.diag.shape[0]


@dataclass(frozen=True)
class UncertaintyMapSeries:
    """Per-time posterior estimates along one generation trajectory."""

    entries: tuple  # of (t, PosteriorEstimate)

    def __post_init__(self):
        ts = [t for t, _ in self.entries]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise UqError("series times must be strictly increasing")

    @property
    def times(self):
        return tuple(t for t, _ in self.entries)

    @property
    def estimates(self):
        return tuple(e for _, e in self.entries)


def _as_field(field):
    # accept a bare model where a counting handle was not needed
    return field if hasattr(field, "jvp") else ModelField(field)


def cov_closed_form(field, xt, t: float, probes: ProbeSet,
                    materialize_full: bool = False) -> PosteriorEstimate:
    """Posterior covariance statistics from velocity-Jacobian probes.

    The divergence and Jacobian diagonal are Hutchinson estimates on the
    shared ``probes`` (exact when the probes enumerate all sign vectors), so
    the scalar u equals the diagonal sum identically. ``materialize_full``
    additionally assembles the exact d x d covariance from d basis-vector
    JVPs; it is refused above dimension 64.
    """
    field = _as_field(field)
    t = check_interior_time(t)
    xt = np.asarray(xt, dtype=np.float64).reshape(-1)
    d = xt.shape[0]
    if probes is None:
        raise UqError("a ProbeSet is required")
    if probes.dim != d:
        raise UqError(f"probe dimension mismatch: {probes.dim} != {d}")

    # the ufunc reductions behind ndarray.sum and np.any, without their
    # Python wrappers
    jdiag = hutchinson_diagonal(lambda u: field.jvp(xt, t, u), probes)
    div = float(np.add.reduce(jdiag))

    pref = (1.0 - t) ** 2 / t
    diag_raw = (1.0 - t) * jdiag
    diag_raw += 1.0
    diag_raw *= pref
    u_raw = float(np.add.reduce(diag_raw))
    floored = bool(np.logical_or.reduce(diag_raw < 0.0))
    diag = np.maximum(diag_raw, 0.0)
    u = max(u_raw, 0.0)

    full = None
    min_eig = None
    if materialize_full:
        if d > FULL_COV_DIM_LIMIT:
            raise UqError(
                f"full covariance limited to d <= {FULL_COV_DIM_LIMIT}, got {d}"
            )
        basis = np.atleast_2d(field.jvp(xt, t, np.eye(d)))
        jac = basis.T
        full = pref * (np.eye(d) + (1.0 - t) * jac)
        min_eig = float(np.linalg.eigvalsh(0.5 * (full + full.T)).min())

    return PosteriorEstimate(
        t=t, u=u, diag=diag, u_raw=u_raw, diag_raw=diag_raw,
        divergence=div, floored=floored, probe_seed=probes.seed,
        full=full, min_eigenvalue=min_eig,
    )


def one_step_cov(field, x0, epsilon: float = DEFAULT_EPSILON,
                 probes: ProbeSet = None) -> PosteriorEstimate:
    """Uncertainty of a one-step (average-velocity) generator.

    Evaluates the same covariance pipeline on the generator input x0 at a
    small time epsilon, so the entire estimate costs exactly one JVP per
    probe and touches no sampler.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 0.1:
        raise UqError(f"epsilon must lie in (0, 0.1], got {epsilon}")
    return cov_closed_form(field, x0, epsilon, probes)


def shift_time_grid(times, eps: float = 1e-3):
    """Pull grid times into [eps, 1 - eps], where the formulas hold.

    Only the endpoints 0 and 1 need the pull: an empty grid, or a time that
    is not finite or lies outside [0, 1], raises UqError.
    """
    times = [float(t) for t in times]
    if not times:
        raise UqError("time grid is empty")
    for t in times:
        if not 0.0 <= t <= 1.0:  # NaN fails the comparison too
            raise UqError(f"time grid values must lie in [0, 1], got {t:g}")
    out = tuple(min(max(t, eps), 1.0 - eps) for t in times)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise UqError("time grid not strictly increasing after endpoint shift")
    return out


def trajectory_uq(field, states, times, n_probes: int,
                  rng: RngState) -> UncertaintyMapSeries:
    """One posterior estimate per (state, time) pair along a trajectory.

    Each point draws a fresh ProbeSet from its own child stream of ``rng``
    (recorded in the estimate), so points can be recomputed independently.
    """
    states = [np.asarray(s, dtype=np.float64).reshape(-1) for s in states]
    times = [float(t) for t in times]
    if len(states) != len(times):
        raise UqError(f"{len(states)} states vs {len(times)} times")
    if n_probes < 1:
        raise UqError("need at least one probe per point")
    entries = []
    for x, t, r in zip(states, times, rng.split_many(range(len(states)))):
        probes = draw_rademacher(r, x.shape[0], n_probes)
        entries.append((t, cov_closed_form(field, x, t, probes)))
    return UncertaintyMapSeries(entries=tuple(entries))
