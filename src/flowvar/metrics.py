"""The uncertainty methods, the agreement metrics between uncertainty and
error, and the corruption consistency protocol.

``METHODS`` is the one table of the four methods (closed form on an fm
model, closed form on a one-step model, deep ensemble, MC dropout): how each
is trained, stored, run on one state and reported. The CLI, the config
validation and the test fixtures all read it.

Rank metrics follow the usual conventions: Spearman is the Pearson
correlation of average ranks, and HitRate@K is the overlap fraction of the
top-K percent sets. A constant input has no ranking, so the correlation is
reported as missing rather than silently coerced to zero; degenerate late-t
baseline maps then show up as gaps in the tables instead of fake zeros.
``consistency_protocol`` runs each method once per sample, in sample order,
then scores the cell's maps as one batch; ``spearman`` and ``hitrate_at_k``
are the one-row case of the same rank, centre and top-K helpers. Its
``sample_spearman`` column is the one sample-level score: at
``noise_level = 0`` it ranks each method's scalar against the clean-data
error of the reference posterior mean.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baselines import ensemble_uq, mc_dropout_uq
from .numerics import RngState, draw_rademacher
from .uq import cov_closed_form, one_step_cov, posterior_mean_from_velocity

__all__ = [
    "MetricsError",
    "ConsistencyRow",
    "spearman",
    "hitrate_at_k",
    "corrupt",
    "consistency_protocol",
    "tweedie_method",
    "one_step_method",
    "ensemble_method",
    "dropout_method",
    "Method",
    "METHODS",
]

DEFAULT_HITRATE_PERCENT = 30.0


class MetricsError(ValueError):
    pass


def _ranks(x) -> np.ndarray:
    """1-based average ranks along the last axis; a row holding a NaN is all
    NaN (scipy's ``rankdata(method="average")``, row by row).
    """
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, axis=-1)  # tied entries share a rank: any order
    xs = np.take_along_axis(x, order, axis=-1)
    tied = np.zeros(x.shape, dtype=bool)  # sorted entry equals the previous
    tied[..., 1:] = xs[..., 1:] == xs[..., :-1]
    # a tie group covering sorted positions [a, b) has mean 1-based rank
    # (a+b+1)/2: a is the last group start up to an entry, b the first group
    # end after it (an entry ends a group unless the next one ties it)
    pos = np.arange(x.shape[-1])
    a = np.maximum.accumulate(np.where(tied, 0, pos), axis=-1)
    ends = np.where(np.roll(tied, -1, axis=-1), pos.size, pos + 1)
    b = np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, 0.5 * (a + b + 1), axis=-1)
    return np.where(np.isnan(x).any(axis=-1, keepdims=True), np.nan, ranks)


def _centred_ranks(x):
    """Each row's average ranks minus their mean, and the norm of that row."""
    r = _ranks(x)
    d = r - r.mean(axis=-1, keepdims=True)
    return d, np.sqrt((d * d).sum(axis=-1))


def _rank_corr(cu, ce):
    """Row-wise Spearman from two _centred_ranks results, and whether each
    row's is defined (neither row constant); undefined rows hold NaN."""
    (du, su), (de, se) = cu, ce
    defined = (su != 0.0) & (se != 0.0)
    rho = np.divide((du * de).sum(axis=-1), su * se,
                    out=np.full(defined.shape, np.nan), where=defined)
    return rho, defined


def _top_mask(x, kc: int) -> np.ndarray:
    """Each row's kc largest entries, ties broken by ascending index."""
    top = np.argsort(-x, axis=-1, kind="stable")[..., :kc]
    mask = np.zeros(x.shape, dtype=bool)
    np.put_along_axis(mask, top, True, axis=-1)
    return mask


def _pair(u, e, min_len: int, message: str):
    # two maps as one-row arrays
    u = np.asarray(u, dtype=np.float64).reshape(1, -1)
    e = np.asarray(e, dtype=np.float64).reshape(1, -1)
    if u.shape != e.shape or u.shape[1] < min_len:
        raise MetricsError(message)
    return u, e


def spearman(u, e) -> float:
    """Rank correlation with average-rank ties; raises on constant input."""
    u, e = _pair(u, e, 2, "need two equal-length sequences of length >= 2")
    rho, defined = _rank_corr(_centred_ranks(u), _centred_ranks(e))
    if not defined[0]:
        raise MetricsError("undefined correlation: constant input")
    return float(rho[0])


def _top_count(n: int, k_percent: float) -> int:
    if not 0.0 < k_percent < 100.0:
        raise MetricsError("k_percent must lie in (0, 100)")
    return max(1, int(np.floor(n * k_percent / 100.0)))


def hitrate_at_k(u, e, k_percent: float = DEFAULT_HITRATE_PERCENT) -> float:
    """Overlap fraction of the top-k-percent sets of two maps.

    The set size is floor(N * k / 100), at least 1. Ties are broken by
    ascending index among equal values (stable sort on descending value).
    """
    u, e = _pair(u, e, 1, "need two equal-length nonempty maps")
    kc = _top_count(u.shape[1], k_percent)
    return float((_top_mask(u, kc) & _top_mask(e, kc)).sum() / kc)


def corrupt(x1, noise_level: float, rng: RngState) -> np.ndarray:
    """Convex mixing with unit Gaussian noise: (1-lam) x1 + lam n."""
    if not 0.0 <= noise_level <= 1.0:
        raise MetricsError("noise_level must lie in [0, 1]")
    x1 = np.asarray(x1, dtype=np.float64)
    if noise_level == 0.0:
        return x1.copy()
    n = rng.generator().standard_normal(x1.shape)
    return (1.0 - noise_level) * x1 + noise_level * n


# ---- the uncertainty methods ------------------------------------------------
# A method's runner maps (xt, t, rng) to (per-pixel map, scalar score) for one
# state; rng is that state's own probe or dropout stream. Its ``estimate``
# attribute returns the whole estimate instead (``diag``, ``u``, ``floored``).
# Tests inject stubs with the call shape.


def _runner(estimate):
    def run(xt, t, rng):
        est = estimate(xt, t, rng)
        return est.diag, est.u

    run.estimate = estimate
    return run


def tweedie_method(field, n_probes: int):
    return _runner(lambda xt, t, rng: cov_closed_form(
        field, xt, t, draw_rademacher(rng, xt.shape[0], n_probes)))


def one_step_method(field, n_probes: int, epsilon: float):
    """One-step uncertainty ignores t: it always reads the generator input
    at t = epsilon."""
    return _runner(lambda x0, t, rng: one_step_cov(
        field, x0, epsilon, draw_rademacher(rng, x0.shape[0], n_probes)))


def ensemble_method(models):
    return _runner(lambda xt, t, rng: ensemble_uq(models, xt, t))


def dropout_method(model, passes: int):
    return _runner(lambda xt, t, rng: mc_dropout_uq(model, xt, t, passes, rng))


@dataclass(frozen=True)
class Method:
    """How one uncertainty method is trained, stored, run and reported.

    ``streams`` are the master-stream keys (init, train). An ensemble has
    no init key of its own (``ensemble_jobs`` derives each member's from the
    train stream), keeps one model file ``{file}_{i}`` per member and labels
    their training rows ``{row}{i}``. ``size`` names the config field
    written in the S column. ``bind(cfg, fields)`` returns the method's
    runner on its loaded velocity fields.
    """

    name: str  # config and CSV label
    uq: str  # `flowvar uq` argument
    variant: str  # the `flowvar train` variant that trains it
    row: str  # training CSV label
    file: str  # model file stem
    objective: str
    streams: tuple
    dropout: bool  # trained at the configured dropout rate
    size: str
    bind: Callable

    @property
    def reads_x0(self) -> bool:
        # a one-step model is a generator of x0, so its uncertainty reads x0
        return self.objective == "one-step"


METHODS = {m.name: m for m in (
    Method(name="tweedie-fm", uq="tweedie", variant="fm", row="fm",
           file="fm", objective="fm", streams=(1, 2), dropout=False,
           size="probes",
           bind=lambda cfg, fields: tweedie_method(fields[0], cfg.probes)),
    Method(name="tweedie-onestep", uq="onestep", variant="one-step",
           row="one-step", file="onestep", objective="one-step",
           streams=(3, 4), dropout=False, size="probes",
           bind=lambda cfg, fields: one_step_method(fields[0], cfg.probes,
                                                    cfg.epsilon)),
    Method(name="ensemble", uq="ensemble", variant="ensemble", row="member",
           file="member", objective="fm", streams=(None, 7),
           dropout=False, size="ensemble_members",
           bind=lambda cfg, fields: ensemble_method(fields)),
    Method(name="mc-dropout", uq="mc-dropout", variant="fm", row="fm-dropout",
           file="dropout", objective="fm", streams=(5, 6), dropout=True,
           size="dropout_passes",
           bind=lambda cfg, fields: dropout_method(fields[0],
                                                   cfg.dropout_passes)),
)}


@dataclass(frozen=True)
class ConsistencyRow:
    """One (time, method) cell of the corruption-consistency table.

    Metrics are None when undefined for every sample (or, for the sample-level
    correlation, when either score sequence is constant). ``n_missing`` counts
    samples whose pixel metrics were undefined.
    """

    t: float
    method: str
    pixel_spearman: float | None
    hitrate: float | None
    sample_spearman: float | None
    n_samples: int
    n_missing: int


def _mean_or_none(values):
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def consistency_protocol(reference, methods, task, t_grid, noise_level: float,
                         rng: RngState, n_samples: int = 64,
                         k_percent: float = DEFAULT_HITRATE_PERCENT):
    """Corrupt data, embed it at each t, and score every method against the
    reconstruction error of the reference field.

    For each sample the clean pair (x0, x1) is drawn from the task, x1 is
    mixed with noise at ``noise_level``, the interpolant state is built from
    the corrupted x1, and the per-pixel error map is the squared difference
    between the reference posterior mean and the clean x1. Returns one
    ConsistencyRow per (t, method).

    In each (t, method) cell the method runs once per sample, in sample
    order; after the calls the cell's maps are ranked, centred and cut to
    their top K as one (n, d) array, row i against sample i's error map.
    """
    if n_samples < 2:
        raise MetricsError("need at least 2 samples")
    x0s, x1s = task.sample_pairs(rng.split(0), n_samples)
    corrupt_rng = rng.split(1)
    x1_corr = np.stack([corrupt(x, noise_level, corrupt_rng.split(i))
                        for i, x in enumerate(x1s)])

    kc = _top_count(x1s.shape[1], k_percent)
    rows = []
    for ti, t in enumerate(t_grid):
        xts = t * x1_corr + (1.0 - t) * x0s
        vhat = np.atleast_2d(reference.velocity(xts, t))
        x1_hat = posterior_mean_from_velocity(xts, t, vhat)
        # a reference far off the data overflows the squares: refused below
        with np.errstate(over="ignore"):
            err_maps = (x1_hat - x1s) ** 2
            err_scalars = err_maps.sum(axis=1)
        if not np.isfinite(err_scalars).all():
            raise MetricsError(f"reference error map is not finite at "
                               f"t = {t:g}")
        # each t's error maps are ranked and ordered once, for every method
        err_ranks = _centred_ranks(err_maps)
        err_top = _top_mask(err_maps, kc)
        for mi, (name, method) in enumerate(methods.items()):
            cell_rng = rng.split(2 + mi).split(ti)
            # a map of the wrong length leaves a constant row: no metrics
            maps = np.zeros(err_maps.shape)
            scalars = []
            for i in range(n_samples):
                umap, uscalar = method(xts[i], t, cell_rng.split(i))
                scalars.append(uscalar)
                u = np.asarray(umap, dtype=np.float64).reshape(-1)
                if u.shape == err_maps.shape[1:]:
                    maps[i] = u
            pix, defined = _rank_corr(_centred_ranks(maps), err_ranks)
            hits = (_top_mask(maps, kc) & err_top).sum(axis=1) / kc
            try:
                samp = spearman(scalars, err_scalars)
            except MetricsError:
                samp = None
            rows.append(ConsistencyRow(
                t=float(t), method=name,
                pixel_spearman=_mean_or_none(pix[defined]),
                hitrate=_mean_or_none(hits[defined]),
                sample_spearman=samp,
                n_samples=n_samples,
                n_missing=int(n_samples - defined.sum()),
            ))
    return rows

