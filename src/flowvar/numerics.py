"""Seeded randomness, Rademacher probes, and stochastic trace/diagonal estimation.

All vectors and matrices in this package are plain float64 numpy arrays.
Every random draw flows through an explicit :class:`RngState`; there is no
global RNG anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngState",
    "ProbeSet",
    "draw_rademacher",
    "exhaustive_sign_probes",
    "finite_diff_jvp",
    "hutchinson_trace",
    "hutchinson_diagonal",
]


class NumericsError(ValueError):
    pass


@dataclass(frozen=True)
class RngState:
    """A (seed, stream) pair that deterministically identifies a bit stream.

    Identical (seed, stream) values produce identical draw sequences across
    runs and platforms (PCG64 behind a SeedSequence, both of which are
    platform-stable integer algorithms).
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        )

    def split(self, key: int) -> "RngState":
        """Derive an independent child state; pure in (seed, stream, key)."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream, key))
        child = int(ss.generate_state(1, np.uint64)[0])
        return RngState(seed=child, stream=0)


@dataclass(frozen=True)
class ProbeSet:
    """S sign vectors in {-1,+1}^d plus the state they were drawn from.

    ``seed`` is None for exhaustively enumerated sets, which are not random.
    """

    probes: np.ndarray  # (S, d), entries exactly -1.0 or +1.0
    seed: RngState | None

    def __post_init__(self):
        p = np.asarray(self.probes, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1:
            raise NumericsError("probes must be a nonempty (S, d) array")
        if not np.all(np.abs(p) == 1.0):
            raise NumericsError("probe entries must be exactly -1 or +1")
        object.__setattr__(self, "probes", p)

    @property
    def count(self) -> int:
        return self.probes.shape[0]

    @property
    def dim(self) -> int:
        return self.probes.shape[1]


def draw_rademacher(rng: RngState, d: int, s: int) -> ProbeSet:
    """Draw S independent Rademacher sign vectors in {-1,+1}^d."""
    if d < 1 or s < 1:
        raise NumericsError(f"need d >= 1 and S >= 1, got d={d}, S={s}")
    g = rng.generator()
    probes = 2.0 * g.integers(0, 2, size=(s, d)).astype(np.float64) - 1.0
    return ProbeSet(probes=probes, seed=rng)


def exhaustive_sign_probes(d: int) -> ProbeSet:
    """All 2^d sign vectors; averages over this set reproduce traces and
    diagonals exactly (off-diagonal contributions cancel pairwise)."""
    if d < 1:
        raise NumericsError("d must be >= 1")
    if d > 16:
        raise NumericsError(f"refusing to enumerate 2^{d} sign vectors")
    grid = np.array(
        np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij")
    ).reshape(d, -1).T
    return ProbeSet(probes=grid, seed=None)


def finite_diff_jvp(f, x: np.ndarray, u: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference directional derivative (f(x+hu) - f(x-hu)) / 2h.

    Serves as the independent oracle for every hand-written JVP in this
    package. ``f`` maps (d,) -> (d,).
    """
    if h <= 0:
        raise NumericsError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.shape != u.shape:
        raise NumericsError(f"shape mismatch: x {x.shape} vs u {u.shape}")
    hi = np.asarray(f(x + h * u), dtype=np.float64)
    lo = np.asarray(f(x - h * u), dtype=np.float64)
    out = (hi - lo) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise NumericsError("field evaluation failed: non-finite output")
    return out


def _apply_jvp(jvp, probes: ProbeSet) -> np.ndarray:
    out = np.asarray(jvp(probes.probes), dtype=np.float64)
    if out.shape != probes.probes.shape:
        raise NumericsError(
            f"jvp returned shape {out.shape}, expected {probes.probes.shape}"
        )
    return out


def hutchinson_diagonal(jvp, probes: ProbeSet) -> np.ndarray:
    """Per-coordinate diagonal estimate (1/S) sum_s eps_i^(s) [J eps^(s)]_i.

    ``jvp`` maps a (S, d) batch of tangents to (S, d) products J u. Shares
    its probes with :func:`hutchinson_trace`, so the two estimates satisfy
    sum(diagonal) == trace exactly.
    """
    products = probes.probes * _apply_jvp(jvp, probes)
    return products.mean(axis=0)


def hutchinson_trace(jvp, probes: ProbeSet) -> float:
    """Stochastic trace estimate (1/S) sum_s eps_s^T (J eps_s)."""
    return float(hutchinson_diagonal(jvp, probes).sum())
