"""Datasets and the IDX container.

Three task families feed the experiments: analytic Gaussian mixtures, toy
images whose randomness lives only at object boundaries, and an optional
MNIST path loaded from IDX files. Every task exposes ``dim``,
``pair_batches(rng, n, batch)``, which yields an epoch's n (x0, x1) pairs in
blocks of ``batch`` rows (the last may be short), and ``sample_pairs(rng, n)
-> (x0, x1)``, the bits of those blocks concatenated. x0 is drawn from a unit
Gaussian.

Image and MNIST tasks draw an epoch's randomness in two parts: x0 from one
standard-normal generator, a (rows, dim) block per batch, whose blocks give
the bits of one call; and x1's per-image integers (bar offsets, blob
jitters, pool indices) in one call per epoch, since chunked bounded-integer
draws need not give the bits of one call. Each batch's images are rendered
from its slice, so a batch costs batch-sized memory. The mixture task keeps
its epoch whole (see ``GmmTask.pair_batches``).
"""
from __future__ import annotations

import math
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
    "idx_to_float",
    "GmmTask",
    "ImageTask",
    "MnistTask",
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
        # the exact product: fixed-width integers would wrap
        size = math.prod(self.dims)
        if size != len(self.payload):
            raise DataError(f"size mismatch: dims {self.dims} imply {size} "
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
    expected = math.prod(dims)
    payload = data[header_end:]
    if len(payload) != expected:
        raise DataError(f"size mismatch: expected {expected} payload bytes, "
                        f"got {len(payload)}")
    return IdxTensor(magic=magic, dims=tuple(int(d) for d in dims),
                     payload=bytes(payload))


def idx_to_float(tensor: IdxTensor) -> np.ndarray:
    """Byte payload reshaped to dims and rescaled from [0,255] to [-1,1]."""
    arr = np.frombuffer(tensor.payload, dtype=np.uint8).reshape(tensor.dims)
    return arr.astype(np.float64) / 127.5 - 1.0


def _check_side(side: int) -> int:
    side = int(side)
    if not MIN_SIDE <= side <= MAX_SIDE:
        raise DataError(f"side must lie in [{MIN_SIDE}, {MAX_SIDE}]")
    return side


def _image_placements(kind: str, side: int, n: int, rng: RngState) -> np.ndarray:
    """The random part of n toy images: bars' left edges (n,), or blobs'
    center jitters (n, 2), drawn in one call."""
    g = rng.generator()
    if kind == "bars":
        return g.integers(0, side - side // 2 + 1, size=n)
    if kind == "blobs":
        return g.integers(-1, 2, size=(n, 2))
    raise DataError(f"unknown toy image kind: {kind!r}")


def _render_images(kind: str, side: int, placements: np.ndarray) -> np.ndarray:
    """The flattened images of ``_image_placements`` rows; each row's image
    depends on that row alone."""
    n = placements.shape[0]
    if kind == "bars":
        width = side // 2
        lefts = placements[:, None, None]
        cols = np.arange(side)
        on = (cols >= lefts) & (cols < lefts + width)
        imgs = np.where(np.broadcast_to(on, (n, side, side)), 1.0, -1.0)
    else:
        # radius must beat the jitter so the disc core never flickers
        radius = side / 3.0
        centers = (side - 1) / 2.0 + placements.astype(np.float64)
        pos = np.arange(side, dtype=np.float64)
        dy2 = (pos - centers[:, 0:1]) ** 2
        dx2 = (pos - centers[:, 1:2]) ** 2
        dist2 = dy2[:, :, None] + dx2[:, None, :]
        imgs = np.where(dist2 <= radius * radius, 1.0, -1.0)
    return imgs.reshape(n, side * side)


def _blocks(n: int, batch: int) -> list:
    """(lo, hi) row bounds of n rows in blocks of ``batch``; the last block
    may be short."""
    if n < 1 or batch < 1:
        raise DataError(f"need at least one pair and a batch of at least "
                        f"one, got {n} pairs in batches of {batch}")
    return [(lo, min(lo + batch, n)) for lo in range(0, n, batch)]


class GmmTask:
    """Analytic mixture task; keeps the spec around for oracle checks."""

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self.dim = spec.dim

    def sample_pairs(self, rng: RngState, n: int):
        return _gmm_sample_pairs(self.spec, rng, n)

    def pair_batches(self, rng: RngState, n: int, batch: int):
        """Views of one whole-epoch draw. The component choices and the
        standard normals come from one generator, one call each, so a
        per-batch draw would interleave them and not give ``sample_pairs``'
        bits; at the mixture's small d the epoch is small too."""
        blocks = _blocks(n, batch)
        x0, x1 = self.sample_pairs(rng, n)
        for lo, hi in blocks:
            yield x0[lo:hi], x1[lo:hi]


class _RenderedTask:
    """A task whose x1 rows are rendered from one per-epoch draw (``_draw``,
    from ``rng.split(1)``) and whose x0 comes from ``rng.split(0)``.

    Each subclass defines its own ``sample_pairs``, the one-batch case, so
    that perfbench's tracer, which wraps the methods a public class defines,
    books it under the subclass's name."""

    def pair_batches(self, rng: RngState, n: int, batch: int):
        blocks = _blocks(n, batch)
        g0 = rng.split(0).generator()
        draw = self._draw(rng.split(1), n)
        for lo, hi in blocks:
            yield (g0.standard_normal((hi - lo, self.dim)),
                   self._render(draw[lo:hi]))


class ImageTask(_RenderedTask):
    def __init__(self, kind: str, side: int):
        self.kind = kind
        self.side = _check_side(side)
        self.dim = self.side * self.side
        if kind not in ("bars", "blobs"):
            raise DataError(f"unknown toy image kind: {kind!r}")

    def sample_pairs(self, rng: RngState, n: int):
        return next(self.pair_batches(rng, n, n))

    def _draw(self, rng: RngState, n: int) -> np.ndarray:
        return _image_placements(self.kind, self.side, n, rng)

    def _render(self, placements: np.ndarray) -> np.ndarray:
        return _render_images(self.kind, self.side, placements)


class MnistTask(_RenderedTask):
    """Digits loaded from an IDX image file, pooled down to 8 x 8.

    28 x 28 inputs are center-cropped to 24 x 24 and average-pooled with a
    3 x 3 window; the first ``subsample`` images form the training pool.
    """

    side = 8

    def __init__(self, path, subsample: int):
        try:
            blob = Path(path).read_bytes()
        except OSError as ex:  # a directory at the path, or no permission
            raise DataError(f"cannot read IDX file {path}: "
                            f"{ex.strerror}") from None
        raw = parse_idx(blob)
        if raw.magic != IDX_IMAGES or len(raw.dims) != 3:
            raise DataError("not an IDX image file")
        imgs = idx_to_float(raw)[:subsample]
        n, h, w = imgs.shape
        if n == 0:
            raise DataError(f"IDX file {path} holds no images")
        if h < 24 or w < 24:
            raise DataError(f"images too small to pool: {h}x{w}")
        r0, c0 = (h - 24) // 2, (w - 24) // 2
        crop = imgs[:, r0:r0 + 24, c0:c0 + 24]
        pooled = crop.reshape(n, 8, 3, 8, 3).mean(axis=(2, 4))
        self.images = pooled.reshape(n, 64)
        self.dim = 64

    def sample_pairs(self, rng: RngState, n: int):
        return next(self.pair_batches(rng, n, n))

    def _draw(self, rng: RngState, n: int) -> np.ndarray:
        return rng.generator().integers(0, len(self.images), size=n)

    def _render(self, idx: np.ndarray) -> np.ndarray:
        return self.images[idx]
