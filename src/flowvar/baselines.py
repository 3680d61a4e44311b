"""Sampling-based uncertainty baselines: deep-ensemble variance and
MC-dropout variance of the posterior mean.

Both report the population variance (divide by the number of members or
passes, not by count minus one): the member/pass counts are protocol
constants, not samples whose variance needs unbiasing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import MlpVelocity, ModelField
from .numerics import RngState
from .oracle import check_unit_time

__all__ = [
    "BaselineEstimate",
    "BaselineError",
    "ensemble_uq",
    "mc_dropout_uq",
]


class BaselineError(ValueError):
    pass


@dataclass(frozen=True)
class BaselineEstimate:
    """Per-pixel variance of the posterior mean across members or passes.

    It has the fields of a closed-form estimate that the CLI reads; a
    variance across members is never negative, so nothing is ever floored.
    """

    diag: np.ndarray  # (d,), >= 0
    u: float  # sum of per-pixel variances
    floored = False

    @property
    def dim(self) -> int:
        return self.diag.shape[0]


def _population_var(means: np.ndarray) -> np.ndarray:
    """``np.var(means, axis=0)``, bit for bit: its ufunc sum, divide,
    subtract, square, sum and divide, without its Python wrappers."""
    count = means.shape[0]
    mean = np.add.reduce(means, axis=0, keepdims=True)
    mean /= count
    dev = np.subtract(means, mean)
    np.square(dev, out=dev)
    var = np.add.reduce(dev, axis=0)
    var /= count
    return var


def _finish(means, xt, t):
    """The estimate from the (count, d) velocities in ``means``, which
    become the posterior means xt + (1 - t) v in place. Velocities near
    the float range (a damaged model's) can overflow the variance; that is
    refused on one line, not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        means *= 1.0 - t
        means += xt
        var = _population_var(means)
        # a pixel every member agrees on has no spread, not rounding noise
        var[np.logical_and.reduce(means == means[0], axis=0)] = 0.0
        u = float(np.add.reduce(var))
    if not math.isfinite(u):
        raise BaselineError(f"variance of the posterior means is not finite "
                            f"at t = {t:g}")
    return BaselineEstimate(diag=var, u=u)


def ensemble_uq(models, xt, t: float) -> BaselineEstimate:
    """Variance of the posterior mean across independently trained models.

    ``models`` holds at least two velocity fields (counting handles or bare
    models); each contributes one forward evaluation.
    """
    if len(models) < 2:
        raise BaselineError("ensemble variance needs at least 2 members")
    t = check_unit_time(t)
    xt = np.asarray(xt, dtype=np.float64).reshape(-1)
    means = np.empty((len(models), len(xt)))
    for k, m in enumerate(models):
        v = m.velocity(xt, t)
        if np.shape(v) != xt.shape:
            raise BaselineError(f"ensemble member {k} gave a velocity of "
                                f"shape {np.shape(v)} for a state of shape "
                                f"{xt.shape}")
        means[k] = v
    return _finish(means, xt, t)


def mc_dropout_uq(model, xt, t: float, passes: int,
                  rng: RngState) -> BaselineEstimate:
    """Variance of the posterior mean across stochastic dropout passes.

    The passes run as the model's ``dropout_velocities`` of the state: its
    first layer runs once, since no mask reaches it, and the later layers
    run one row per pass, with masks from one (depth, passes, hidden)
    uniform draw of ``rng``'s generator (pass p's masks are row p of each
    layer's block). The estimate is reproducible per ``rng``, and its masks
    depend on the pass count. A counting handle's counter gets one forward
    per pass, the shared first layer included. With dropout rate zero every
    pass coincides and the variance is zero.
    """
    if passes < 2:
        raise BaselineError("need at least 2 dropout passes")
    if not isinstance(rng, RngState):
        raise BaselineError(f"mc dropout draws its masks from an RngState, "
                            f"got {type(rng).__name__}")
    if isinstance(model, ModelField):
        net, counter = model.model, model.counter
    elif isinstance(model, MlpVelocity):
        net, counter = model, None
    else:
        raise BaselineError("mc dropout needs an MLP model or its handle")
    t = check_unit_time(t)
    xt = np.asarray(xt, dtype=np.float64).reshape(-1)
    means = net.dropout_velocities(xt, t, passes, rng)
    if counter is not None:
        counter.forwards += passes
    return _finish(means, xt, t)
