"""Euler integration of a velocity field from noise to data."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Trajectory",
    "SamplerError",
    "euler_generate",
]


class SamplerError(RuntimeError):
    pass


@dataclass(frozen=True)
class Trajectory:
    """States of one Euler integration on the uniform grid t_k = k/N.

    ``states`` has the grid on axis 0; each state may itself be a batch, so
    states.shape is (N+1, d) for a single sample or (N+1, n, d) for n.
    """

    times: np.ndarray
    states: np.ndarray
    steps: int

    def __post_init__(self):
        if self.states.shape[0] != self.times.shape[0]:
            raise SamplerError(
                f"{self.states.shape[0]} states vs {self.times.shape[0]} times"
            )

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def at(self, requested):
        """Snapshots at the nearest grid node at or after each requested time.

        Returns (grid_times, states) arrays; each returned time is within one
        step of its request.
        """
        req = np.asarray(requested, dtype=np.float64)
        idx = np.searchsorted(self.times, req - 1e-12, side="left")
        idx = np.minimum(idx, self.times.shape[0] - 1)
        return self.times[idx], self.states[idx]


def euler_generate(field, x0, steps: int, t0: float = 0.0,
                   t1: float = 1.0) -> Trajectory:
    """Integrate x' = v(x, t) with N uniform Euler steps from t0 to t1.

    x0 may be a single state (d,) or a batch (n, d); batches share the time
    grid and advance together. A non-finite state aborts with an error
    naming its step and time.
    """
    if steps < 1:
        raise SamplerError("steps must be >= 1")
    if not t0 < t1:
        raise SamplerError(f"need t0 < t1, got {t0} >= {t1}")
    x = np.asarray(x0, dtype=np.float64)
    times = t0 + (t1 - t0) * np.arange(steps + 1) / steps
    dt = (t1 - t0) / steps
    counter = getattr(field, "counter", None)
    states = [x]
    for k in range(steps):
        v = field.velocity(x, times[k])
        x = x + dt * np.asarray(v, dtype=np.float64)
        if counter is not None:
            counter.sampler_steps += 1
        if not np.all(np.isfinite(x)):
            raise SamplerError(
                f"non-finite state at step {k + 1} (t={times[k + 1]:.4f})")
        states.append(x)
    return Trajectory(times=times, states=np.stack(states), steps=steps)
