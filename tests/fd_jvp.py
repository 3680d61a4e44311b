"""The finite-difference JVP: the independent oracle that the tests hold
every hand-written tangent of the package to."""
import numpy as np

from flowvar.numerics import NumericsError


def finite_diff_jvp(f, x: np.ndarray, u: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference directional derivative (f(x+hu) - f(x-hu)) / 2h.

    ``f`` maps (d,) -> (d,).
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
