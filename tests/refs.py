"""Independent references and fixtures for the tests.

Each reference derives a quantity by a route the package does not take, so
that a test can hold the package's own result to it: the central-difference
JVP, the information-filter form of a one-component posterior, the
general-covariance conjugacy posterior of a mixture, the exact bar-coverage
law of the toy images. The fixtures build inputs (the default
mixture task, IDX containers, a training step's buffers, a small cost
run's config) or read outputs (graymaps, the cost files) the way a user's
own tools would.
"""
import struct
from pathlib import Path

import numpy as np

from flowvar.cli import main
from flowvar.data import GmmTask
from flowvar.models import StepBuffers
from flowvar.numerics import NumericsError
from flowvar.oracle import GmmSpec
from flowvar.reporting import ReportError


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


def single_gaussian_posterior(mean, cov, xt, t: float):
    """K=1 posterior via the precision (information-filter) form.

    Independent of the conjugacy route in ``gmm_posterior_batch``:
        precision = Sigma^{-1} + t^2/(1-t)^2 I
        post mean = precision^{-1} (Sigma^{-1} mu + t/(1-t)^2 xt)
    """
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
    cov = np.asarray(cov, dtype=np.float64)
    d = cov.shape[0]
    s = t * t * cov + (1.0 - t) ** 2 * np.eye(d)
    gain = t * np.linalg.solve(s, cov).T
    return (gain - np.eye(d)) / (1.0 - t)


def general_posterior_terms(weights, means, covs, xts, t: float):
    """Responsibilities (n, K), posterior mean (n, d) and covariance
    (n, d, d), marginal score (n, d) and mean-Jacobian (n, d, d) of the
    mixture of components N(means[k], covs[k]) at interior time t and the
    (n, d) points xts.

    The general-covariance conjugacy algebra that the package's isotropic
    oracle specialises, one component at a time: the Cholesky factor L_k of
    S_k = t^2 Sigma_k + (1-t)^2 I whitens the offset xt - t mu_k, the gain
    is t Sigma_k S_k^{-1}, the component covariance (1-t)^2 Sigma_k S_k^{-1}
    and the component score -S_k^{-1}(xt - t mu_k).
    """
    (k, d), n = means.shape, xts.shape[0]
    logj = np.empty((n, k))
    comp_means, comp_scores = np.empty((k, n, d)), np.empty((k, n, d))
    gains, comp_covs = np.empty((k, d, d)), np.empty((k, d, d))
    for j in range(k):
        s = t * t * covs[j] + (1.0 - t) ** 2 * np.eye(d)
        chol = np.linalg.cholesky(s)
        sig_sinv = np.linalg.solve(s, covs[j]).T
        gains[j] = t * sig_sinv
        cj = (1.0 - t) ** 2 * sig_sinv
        comp_covs[j] = 0.5 * (cj + cj.T)
        diff = xts - t * means[j]
        white = np.linalg.solve(chol, diff.T)
        logj[:, j] = (np.log(weights[j]) - 0.5 * (white * white).sum(axis=0)
                      - np.log(np.diag(chol)).sum()
                      - 0.5 * d * np.log(2.0 * np.pi))
        comp_means[j] = means[j] + diff @ gains[j].T
        comp_scores[j] = -np.linalg.solve(chol.T, white).T
    shifted = np.exp(logj - logj.max(axis=1)[:, None])
    resp = shifted / shifted.sum(axis=1, keepdims=True)
    mean = np.einsum("nk,knd->nd", resp, comp_means)
    dev = comp_means - mean[None, :, :]
    cov = np.einsum("nk,kde->nde", resp, comp_covs)
    cov += np.einsum("nk,knd,kne->nde", resp, dev, dev)
    score = np.einsum("nk,knd->nd", resp, comp_scores)
    jac = np.einsum("nk,kde->nde", resp, gains)
    jac += np.einsum("nk,knd,kne->nde", resp, comp_means, comp_scores)
    jac -= np.einsum("nd,ne->nde", mean, score)
    return resp, mean, cov, score, jac


def marginal_moments(spec: GmmSpec):
    """Mean and covariance of the mixture itself (the t->0 posterior limit)."""
    mean = spec.weights @ spec.means
    cov = (spec.weights @ spec.variances) * np.eye(spec.dim)
    dev = spec.means - mean
    cov = cov + np.einsum("k,kd,ke->de", spec.weights, dev, dev)
    return mean, cov


def bar_coverage_profile(side: int) -> np.ndarray:
    """Per-column probability that a uniformly placed bar covers the column.

    The bar is vertical with width side // 2 and its left edge is uniform
    over the feasible offsets; counting placements that cover column j gives
    the exact coverage law.
    """
    width = side // 2
    n_pos = side - width + 1
    prob = np.empty(side)
    for j in range(side):
        lo = max(0, j - width + 1)
        hi = min(side - width, j)
        prob[j] = max(0, hi - lo + 1) / n_pos
    return prob


def step_buffers(model, rows: int = 1) -> StepBuffers:
    """A fresh buffer set for ``forward_cache`` and ``backward`` on batches
    of up to ``rows`` rows of ``model``, for a test that runs the training
    step's passes as a reference."""
    return StepBuffers(model.arch, rows)


def default_gmm_task() -> GmmTask:
    # well separated isotropic pair; posterior covariance is shift invariant
    return GmmTask(GmmSpec.isotropic([[0.5, 0.0], [3.5, 0.0]], 0.15))


def write_idx(magic: int, dims, payload: bytes) -> bytes:
    """An IDX container: big-endian magic, then each dimension, then the
    payload."""
    return (struct.pack(">I", magic) + struct.pack(f">{len(dims)}I", *dims)
            + payload)


def read_pgm(path) -> np.ndarray:
    """The raster of a binary (P5) graymap of maxval 255."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ReportError("not a binary graymap")
    # header: magic then three whitespace-separated ints, then one byte of
    # whitespace before the raster
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ReportError("truncated graymap header")
        fields.append(int(data[start:pos]))
    pos += 1
    w, h, maxval = fields
    if maxval != 255:
        raise ReportError(f"unsupported maxval {maxval}")
    raster = data[pos:]
    if len(raster) != w * h:
        raise ReportError(f"raster size mismatch: expected {w * h}, "
                          f"got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


COST_INI = """
[experiment]
seed = 3

[task]
kind = gmm
means = 0.5 0 ; 3.5 0
sigma = 0.15

[model]
hidden = 16

[training]
epochs = 1
pairs_per_epoch = 256
batch_size = 64

[methods]
use = {use}
ensemble_members = 2
dropout_passes = 6
"""


def cost_run(root, use, capsys):
    """(cost.csv rows, cost_summary.txt lines, stdout) of one cost run."""
    ini = root.parent / f"{root.name}.ini"
    ini.write_text(COST_INI.format(use=use))
    capsys.readouterr()
    assert main(["cost", "--config", str(ini), "--out", str(root)]) == 0
    rows = [line.split(",") for line in
            (root / "cost.csv").read_text().splitlines()]
    return (rows, (root / "cost_summary.txt").read_text().splitlines(),
            capsys.readouterr().out)
