"""Datasets and the IDX container.

Three task families feed the experiments: analytic Gaussian mixtures, toy
images whose randomness lives only at object boundaries, and an optional
MNIST path loaded from IDX files. Every task exposes ``dim`` and
``sample_pairs(rng, n) -> (x0, x1)`` with x0 drawn from a unit Gaussian.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import RngState
from .oracle import GmmSpec, sample_pairs as _gmm_sample_pairs

__all__ = [
    "DataError",
    "IdxTensor",
    "parse_idx",
    "write_idx",
    "idx_to_float",
    "toy_image_dataset",
    "bar_coverage_profile",
    "GmmTask",
    "ImageTask",
    "MnistTask",
    "default_gmm_task",
]

IDX_LABELS = 0x00000801
IDX_IMAGES = 0x00000803

MIN_SIDE, MAX_SIDE = 4, 32


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class IdxTensor:
    magic: int
    dims: tuple
    payload: bytes

    def __post_init__(self):
        if int(np.prod(self.dims, dtype=np.int64)) != len(self.payload):
            raise DataError("size mismatch: dims "
                            f"{self.dims} imply {int(np.prod(self.dims))} "
                            f"bytes, got {len(self.payload)}")


def parse_idx(data: bytes) -> IdxTensor:
    """Parse a big-endian IDX container (unsigned-byte payloads only)."""
    if len(data) < 4:
        raise DataError("truncated IDX header: need at least 4 bytes, "
                        f"got {len(data)}")
    (magic,) = struct.unpack(">I", data[:4])
    if magic not in (IDX_LABELS, IDX_IMAGES):
        raise DataError(f"not an IDX file: magic 0x{magic:08x}")
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise DataError("truncated IDX header: dimension fields cut short")
    dims = struct.unpack(f">{ndim}I", data[4:header_end])
    expected = int(np.prod(dims, dtype=np.int64))
    payload = data[header_end:]
    if len(payload) != expected:
        raise DataError(f"size mismatch: expected {expected} payload bytes, "
                        f"got {len(payload)}")
    return IdxTensor(magic=magic, dims=tuple(int(d) for d in dims),
                     payload=bytes(payload))


def write_idx(tensor: IdxTensor) -> bytes:
    out = struct.pack(">I", tensor.magic)
    out += struct.pack(f">{len(tensor.dims)}I", *tensor.dims)
    return out + tensor.payload


def idx_to_float(tensor: IdxTensor) -> np.ndarray:
    """Byte payload reshaped to dims and rescaled from [0,255] to [-1,1]."""
    arr = np.frombuffer(tensor.payload, dtype=np.uint8).reshape(tensor.dims)
    return arr.astype(np.float64) / 127.5 - 1.0


def _check_side(side: int) -> int:
    side = int(side)
    if not MIN_SIDE <= side <= MAX_SIDE:
        raise DataError(f"side must lie in [{MIN_SIDE}, {MAX_SIDE}]")
    return side


def bar_coverage_profile(side: int) -> np.ndarray:
    """Per-column probability that a uniformly placed bar covers the column.

    The bar is vertical with width side // 2 and its left edge is uniform
    over the feasible offsets; counting placements that cover column j gives
    the exact coverage law used by the variance tests.
    """
    side = _check_side(side)
    width = side // 2
    n_pos = side - width + 1
    prob = np.empty(side)
    for j in range(side):
        lo = max(0, j - width + 1)
        hi = min(side - width, j)
        prob[j] = max(0, hi - lo + 1) / n_pos
    return prob


def toy_image_dataset(kind: str, side: int, n: int, rng: RngState) -> np.ndarray:
    """Generate n flattened side x side images with values in {-1, +1}.

    bars: one vertical +1 bar of width side // 2 on a -1 background, left
    edge uniform over feasible positions. blobs: a fixed-radius +1 disc whose
    center jitters by at most one pixel around the image center, so interior
    pixels are deterministic and only the rim fluctuates.
    """
    side = _check_side(side)
    if n < 1:
        raise DataError("need at least one image")
    g = rng.generator()
    if kind == "bars":
        width = side // 2
        lefts = g.integers(0, side - width + 1, size=n)[:, None, None]
        cols = np.arange(side)
        on = (cols >= lefts) & (cols < lefts + width)
        imgs = np.where(np.broadcast_to(on, (n, side, side)), 1.0, -1.0)
    elif kind == "blobs":
        # radius must beat the jitter so the disc core never flickers
        radius = side / 3.0
        jitter = g.integers(-1, 2, size=(n, 2)).astype(np.float64)
        centers = (side - 1) / 2.0 + jitter
        pos = np.arange(side, dtype=np.float64)
        dy2 = (pos - centers[:, 0:1]) ** 2
        dx2 = (pos - centers[:, 1:2]) ** 2
        dist2 = dy2[:, :, None] + dx2[:, None, :]
        imgs = np.where(dist2 <= radius * radius, 1.0, -1.0)
    else:
        raise DataError(f"unknown toy image kind: {kind!r}")
    return imgs.reshape(n, side * side)


class GmmTask:
    """Analytic mixture task; keeps the spec around for oracle checks."""

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self.dim = spec.dim

    def sample_pairs(self, rng: RngState, n: int):
        return _gmm_sample_pairs(self.spec, rng, n)


class ImageTask:
    def __init__(self, kind: str, side: int):
        self.kind = kind
        self.side = _check_side(side)
        self.dim = self.side * self.side
        if kind not in ("bars", "blobs"):
            raise DataError(f"unknown toy image kind: {kind!r}")

    def sample_pairs(self, rng: RngState, n: int):
        x0 = rng.split(0).generator().standard_normal((n, self.dim))
        x1 = toy_image_dataset(self.kind, self.side, n, rng.split(1))
        return x0, x1


class MnistTask:
    """Digits loaded from an IDX image file, pooled down to 8 x 8.

    28 x 28 inputs are center-cropped to 24 x 24 and average-pooled with a
    3 x 3 window; the first ``subsample`` images form the training pool.
    """

    side = 8

    def __init__(self, path, subsample: int = 2048):
        raw = parse_idx(Path(path).read_bytes())
        if raw.magic != IDX_IMAGES or len(raw.dims) != 3:
            raise DataError("not an IDX image file")
        imgs = idx_to_float(raw)[:subsample]
        n, h, w = imgs.shape
        if h < 24 or w < 24:
            raise DataError(f"images too small to pool: {h}x{w}")
        r0, c0 = (h - 24) // 2, (w - 24) // 2
        crop = imgs[:, r0:r0 + 24, c0:c0 + 24]
        pooled = crop.reshape(n, 8, 3, 8, 3).mean(axis=(2, 4))
        self.images = pooled.reshape(n, 64)
        self.dim = 64

    def sample_pairs(self, rng: RngState, n: int):
        x0 = rng.split(0).generator().standard_normal((n, self.dim))
        idx = rng.split(1).generator().integers(0, len(self.images), size=n)
        return x0, self.images[idx]


def default_gmm_task() -> GmmTask:
    # well separated isotropic pair; posterior covariance is shift invariant
    return GmmTask(GmmSpec.isotropic([[0.5, 0.0], [3.5, 0.0]], 0.15))
