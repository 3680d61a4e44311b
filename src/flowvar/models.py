"""Velocity-field models and evaluation handles.

The workhorse is a small MLP taking [x, sinusoidal(t)] and returning a
velocity in data space. Training needs parameter gradients and uncertainty
needs Jacobian-vector products in x, so the network carries its own
reverse-mode backward pass and forward-mode tangent propagation. Tangents go
through the exact same cached activations (and dropout masks, when active) as
the primal values, which keeps the two modes consistent to machine precision.

Dropout is the inverted kind: keep mask / (1 - rate), drawn from an explicit
RngState per call. No call mutates hidden RNG state.

A batch-1 pass (an Euler step, one estimate's primal) costs its GEMMs and
little else. The clock frequencies and the tangent pass's transposed weight
views (W0's x columns, then the later layers) are made once per model, as
views that follow in-place writes to ``params``. One input row at a scalar
float time gets its sin and cos written straight into the row, the same
bits as :func:`time_features`; arrays of times and multi-row batches go
through :func:`time_features`. A training step's forward and backward write
their (batch, hidden) arrays into a :class:`StepBuffers` set made once per
run.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import RngState, uniform_draws

__all__ = [
    "MlpArch",
    "MlpVelocity",
    "EvalCounter",
    "ModelField",
    "AnalyticField",
    "analytic_handle",
    "time_features",
    "save_model",
    "load_model",
]

_ACTIVATIONS = ("tanh", "relu")


class ModelError(ValueError):
    pass


def time_features(t, n_freq: int) -> np.ndarray:
    """Sinusoidal clock features [sin(2^j pi t), cos(2^j pi t)], j < n_freq.

    t may be a scalar or a (n,) array; output is (n, 2*n_freq) with n=1 for
    scalars.
    """
    tv = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if tv.ndim != 1:
        raise ModelError(f"time must be scalar or 1-d, got shape {tv.shape}")
    freqs = np.pi * (2.0 ** np.arange(n_freq))
    ang = tv[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@dataclass(frozen=True)
class MlpArch:
    """Width/depth/activation choices for the velocity MLP."""

    dim: int
    hidden: int = 128
    depth: int = 2
    n_freq: int = 8
    activation: str = "tanh"
    dropout: float = 0.0

    def __post_init__(self):
        if self.dim < 1 or self.hidden < 1 or self.depth < 1 or self.n_freq < 1:
            raise ModelError("dim, hidden, depth and n_freq must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ModelError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError("dropout rate must lie in [0, 1)")

    @property
    def in_dim(self) -> int:
        return self.dim + 2 * self.n_freq

    def layer_shapes(self):
        """Weight shapes input->output: depth hidden layers plus linear head."""
        sizes = [self.in_dim] + [self.hidden] * self.depth + [self.dim]
        return [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]

    @property
    def n_params(self) -> int:
        return sum(rows * cols + rows for rows, cols in self.layer_shapes())


def _layer_views(flat: np.ndarray, arch: MlpArch):
    """(weights, biases) views of a flat vector in container order:
    w0 (row-major), b0, w1, b1, ..."""
    weights, biases, off = [], [], 0
    for rows, cols in arch.layer_shapes():
        weights.append(flat[off:off + rows * cols].reshape(rows, cols))
        off += rows * cols
        biases.append(flat[off:off + rows])
        off += rows
    return weights, biases


def _act(name: str, z: np.ndarray, out=None) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z, out=out)
    return np.maximum(z, 0.0, out=out)


def _scale_by_act_deriv(name: str, dz: np.ndarray, z: np.ndarray,
                        h: np.ndarray, tmp=None) -> None:
    """dz *= act'(z) in place; h = act(z) is already cached and tanh'
    reuses it, through ``tmp`` (shaped like dz) when given."""
    if name == "tanh":
        d = h * h if tmp is None else np.multiply(h, h, out=tmp)
        np.subtract(1.0, d, out=d)
        dz *= d
    else:
        dz *= z > 0.0


class StepBuffers:
    """The (rows, hidden) arrays of a training step, made once for batches
    of up to ``rows`` rows and passed to ``forward_cache`` and ``backward``.

    They hold each layer's pre-activations, activations and, with dropout,
    dropped-out activations and masks (the masks' uniform draw is made in
    place), plus two arrays that ``backward`` alternates between its deltas
    and the tanh-derivative temporary. A batch of m rows uses the first m
    rows of each. A cache made with the buffers holds views of them, so it
    lasts only until the next pass writes them.
    """

    def __init__(self, arch: MlpArch, rows: int):
        shape = (arch.depth, rows, arch.hidden)
        self.rows = rows
        self.pre = np.empty(shape)
        self.post = np.empty(shape)
        self.work = np.empty((2, rows, arch.hidden))
        self.dropped = self.uniform = None
        if arch.dropout > 0.0:
            self.dropped = np.empty(shape)
            # flat, so the first m rows of every layer are one contiguous
            # block, as ``Generator.random(out=)`` needs
            self.uniform = np.empty(arch.depth * rows * arch.hidden)

    def masks(self, rows: int) -> np.ndarray:
        """The (depth, rows, hidden) block for a batch's dropout masks."""
        depth, _, hidden = self.pre.shape
        return self.uniform[:depth * rows * hidden].reshape(depth, rows,
                                                            hidden)


def _rows_of(buf, i: int, rows: int):
    """Layer i's first ``rows`` rows of a buffer, or None without one."""
    return None if buf is None else buf[i, :rows]


class MlpVelocity:
    """MLP velocity field with explicit forward, backward, and JVP passes.

    All parameters live in ``params``, one contiguous float64 vector in the
    container's order (w0 row-major, b0, w1, b1, ...); ``weights`` and
    ``biases`` are views into it, so writing through either changes the
    model. Nothing is hidden behind a framework, which is what makes the
    hand-rolled tangent pass auditable.
    """

    def __init__(self, arch: MlpArch, weights, biases):
        shapes = arch.layer_shapes()
        if len(weights) != len(shapes) or len(biases) != len(shapes):
            raise ModelError("wrong number of parameter arrays")
        for w, b, s in zip(weights, biases, shapes):
            if w.shape != s or b.shape != (s[0],):
                raise ModelError(f"parameter shape mismatch: {w.shape} vs {s}")
        self._adopt(arch, np.concatenate(
            [np.ravel(a) for wb in zip(weights, biases) for a in wb]
        ).astype(np.float64, copy=False))

    @classmethod
    def from_params(cls, arch: MlpArch, params: np.ndarray) -> "MlpVelocity":
        """Wrap a flat float64 vector in container order, without a copy."""
        if (not isinstance(params, np.ndarray) or params.dtype != np.float64
                or params.shape != (arch.n_params,)
                or not params.flags.c_contiguous):
            raise ModelError(f"need a contiguous float64 vector of "
                             f"{arch.n_params} parameters")
        model = cls.__new__(cls)
        model._adopt(arch, params)
        return model

    def _adopt(self, arch: MlpArch, params: np.ndarray) -> None:
        self.arch = arch
        self.params = params
        self.weights, self.biases = _layer_views(params, arch)
        # the transposed weights ``tangent`` multiplies by, made once
        self._tangent_wt = tuple(w.T for w in [self.weights[0][:, :arch.dim],
                                               *self.weights[1:]])
        self._freqs = np.pi * (2.0 ** np.arange(arch.n_freq))

    # ---- construction -----------------------------------------------------

    @staticmethod
    def init(arch: MlpArch, rng: RngState) -> "MlpVelocity":
        """Fan-in scaled Gaussian init (He gain for relu, Xavier for tanh)
        with a zero output head, so the initial field is identically zero."""
        g = rng.generator()
        gain = 2.0 if arch.activation == "relu" else 1.0
        weights, biases = [], []
        for rows, cols in arch.layer_shapes():
            std = np.sqrt(gain / cols)
            weights.append(g.standard_normal((rows, cols)) * std)
            biases.append(np.zeros(rows))
        weights[-1][:] = 0.0
        return MlpVelocity(arch, weights, biases)

    def copy(self) -> "MlpVelocity":
        return MlpVelocity.from_params(self.arch, self.params.copy())

    @property
    def n_params(self) -> int:
        return self.params.size

    def checksum(self) -> str:
        """sha256 over all parameters as little-endian float64 bytes, in
        container order."""
        return hashlib.sha256(
            self.params.astype("<f8", copy=False).tobytes()).hexdigest()

    # ---- forward / backward ----------------------------------------------

    def _input_features(self, x: np.ndarray, t) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        dim = self.arch.dim
        if x2.shape[1] != dim:
            raise ModelError(f"x dim {x2.shape[1]} != model dim {dim}")
        n = x2.shape[0]
        if n == 1 and isinstance(t, float):  # np.float64 is a float too
            # time_features' angles and bits, written into the row
            feats = np.empty((1, self.arch.in_dim))
            feats[0, :dim] = x2[0]
            ang = t * self._freqs
            mid = dim + self.arch.n_freq
            np.sin(ang, out=feats[0, dim:mid])
            np.cos(ang, out=feats[0, mid:])
            return feats
        emb = time_features(t, self.arch.n_freq)
        m = emb.shape[0]
        if m != n and (m != 1 or n == 0):
            raise ModelError(f"time batch {m} incompatible with x batch {n}")
        feats = np.empty((n, self.arch.in_dim))
        feats[:, :dim] = x2
        feats[:, dim:] = emb  # one time row broadcasts over the batch
        return feats

    def _dropout_masks(self, n: int, dropout_rng, bufs=None):
        p = self.arch.dropout
        if dropout_rng is None or p == 0.0:
            return None
        # one draw per stream covers every layer in order, the same bits as
        # one (rows, hidden) draw per layer
        shape = (self.arch.depth, self.arch.hidden)
        keep = 1.0 - p
        if isinstance(dropout_rng, RngState):
            g = dropout_rng.generator()
            if bufs is None:
                u = g.random((shape[0], n, shape[1]))
            else:
                u = g.random(out=bufs.masks(n))
            # the bits of (u < keep).astype(np.float64) / keep, in place
            np.less(u, keep, out=u)
            u /= keep
            return list(u)
        # (rows, depth, hidden): layer i's masks are the view m[:, i]
        m = (uniform_draws(dropout_rng, shape) < keep) / keep
        return [m[:, i] for i in range(shape[0])]

    def forward_cache(self, x, t, dropout_rng=None, *,
                      bufs: StepBuffers | None = None):
        """Full forward pass returning (velocity, cache) for backward/JVP.

        ``dropout_rng`` is one RngState for the whole batch, or a sequence of
        them, one per output row: row p then gets exactly the masks a batch-1
        pass on stream p would draw. A single input row is shared by all the
        streams, and its first layer runs once before the masks fan it out.
        With ``bufs`` the hidden layers' arrays are written into them, with
        the same bits.
        """
        feats = self._input_features(x, t)
        rows = feats.shape[0]
        if dropout_rng is not None and not isinstance(dropout_rng, RngState):
            if len(dropout_rng) < 1 or rows not in (1, len(dropout_rng)):
                raise ModelError(f"{len(dropout_rng)} dropout streams for a "
                                 f"batch of {rows}")
            rows = len(dropout_rng)
        if bufs is not None and rows > bufs.rows:
            raise ModelError(f"a batch of {rows} in buffers of {bufs.rows} "
                             f"rows")
        masks = self._dropout_masks(rows, dropout_rng, bufs)
        inputs = [feats]
        if masks is not None and rows != feats.shape[0]:
            inputs[0] = np.broadcast_to(feats, (rows, feats.shape[1]))
        pre, post = [], []
        h = feats
        act = self.arch.activation
        z_buf = a_buf = drop_buf = None
        if bufs is not None:
            z_buf, a_buf, drop_buf = bufs.pre, bufs.post, bufs.dropped
        # overflow surfaces as the explicit divergence error, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(self.arch.depth):
                n_in = h.shape[0]
                z = np.matmul(h, self.weights[i].T,
                              out=_rows_of(z_buf, i, n_in))
                z += self.biases[i]
                if not np.isfinite(z).all():
                    raise ModelError(
                        "forward pass diverged: non-finite activations")
                a = _act(act, z, _rows_of(a_buf, i, n_in))
                pre.append(z)
                post.append(a)  # pre-dropout, feeds the activation derivative
                if masks is not None:
                    a = np.multiply(a, masks[i],
                                    out=_rows_of(drop_buf, i, rows))
                inputs.append(a)
                h = a
            out = h @ self.weights[-1].T
            out += self.biases[-1]
        if not np.isfinite(out).all():
            raise ModelError("forward pass diverged: non-finite output")
        if out.shape[0] != rows:  # rate zero: every stream gives this row
            out = np.repeat(out, rows, axis=0)
        cache = {"inputs": inputs, "pre": pre, "post": post, "masks": masks}
        return out, cache

    def velocity(self, x, t, dropout_rng=None) -> np.ndarray:
        out, _ = self.forward_cache(x, t, dropout_rng)
        return out[0] if np.ndim(x) < 2 and out.shape[0] == 1 else out

    def __call__(self, x, t) -> np.ndarray:
        return self.velocity(x, t)

    def backward(self, cache, dout: np.ndarray, out: np.ndarray | None = None,
                 *, bufs: StepBuffers | None = None):
        """Parameter gradients for sum(dout * output); returns (dWs, dbs).

        The gradients are written into ``out``, a flat vector laid out like
        ``params`` (allocated when None), and returned as its per-layer views.
        With ``bufs`` the hidden-layer deltas are written into them.
        """
        if out is None:
            out = np.empty_like(self.params)
        elif out.shape != self.params.shape:
            raise ModelError(f"gradient buffer of shape {out.shape} for "
                             f"{self.params.size} parameters")
        d_ws, d_bs = _layer_views(out, self.arch)
        act = self.arch.activation
        masks = cache["masks"]
        np.matmul(dout.T, cache["inputs"][-1], out=d_ws[-1])
        np.sum(dout, axis=0, out=d_bs[-1])
        # the delta and the derivative temporary swap work arrays each layer
        work = None if bufs is None else bufs.work
        rows, k = dout.shape[0], 0
        dz = np.matmul(dout, self.weights[-1], out=_rows_of(work, k, rows))
        for i in range(self.arch.depth - 1, -1, -1):
            if masks is not None:
                dz *= masks[i]
            _scale_by_act_deriv(act, dz, cache["pre"][i], cache["post"][i],
                                _rows_of(work, 1 - k, rows))
            np.matmul(dz.T, cache["inputs"][i], out=d_ws[i])
            np.sum(dz, axis=0, out=d_bs[i])
            if i > 0:
                k = 1 - k
                dz = np.matmul(dz, self.weights[i],
                               out=_rows_of(work, k, rows))
        return d_ws, d_bs

    # ---- forward-mode tangents ---------------------------------------------

    def tangent(self, cache, u: np.ndarray) -> np.ndarray:
        """Propagate x-tangents through a cached forward pass.

        u is (m, dim): either one tangent per cached batch row (m equal to the
        batch size) or many tangents against a single cached row (batch 1).
        Time is held fixed, so the first layer acts through its x columns
        only: the embedding block would contribute zero tangent.
        """
        u2 = np.atleast_2d(np.asarray(u, dtype=np.float64))
        n = cache["inputs"][0].shape[0]
        if u2.shape[1] != self.arch.dim:
            raise ModelError(f"tangent dim {u2.shape[1]} != model dim {self.arch.dim}")
        if n != 1 and u2.shape[0] != n:
            raise ModelError(
                f"tangent batch {u2.shape[0]} incompatible with cached batch {n}"
            )
        act = self.arch.activation
        masks = cache["masks"]
        wt = self._tangent_wt
        du = u2
        for i in range(self.arch.depth):
            du = du @ wt[i]
            _scale_by_act_deriv(act, du, cache["pre"][i], cache["post"][i])
            if masks is not None:
                du *= masks[i]
        return du @ wt[-1]

    def value_and_jvp(self, x, t, u, dropout_rng: RngState | None = None):
        """Velocity and J_v u in one cached pass. x: (d,), u: (d,) or (m, d).

        ``tangent`` converts and checks u; this pass only reads its rank.
        """
        xv = np.asarray(x, dtype=np.float64).reshape(1, -1)
        out, cache = self.forward_cache(xv, t, dropout_rng)
        ju = self.tangent(cache, u)
        return out[0], (ju if np.ndim(u) == 2 else ju[0])

    def jacobian(self, x, t, dropout_rng: RngState | None = None) -> np.ndarray:
        """Dense d x d velocity Jacobian from d basis tangents."""
        _, ju = self.value_and_jvp(x, t, np.eye(self.arch.dim), dropout_rng)
        return ju.T


@dataclass
class EvalCounter:
    """Tally of field work, used by the cost audit.

    One tangent propagation costs about one forward pass, so the audit
    reports forwards + jvps as forward-equivalents. A fused batch of S
    tangents counts as S: the single primal pass it shares is amortized
    across the batch and is not billed separately unless the caller actually
    consumes the primal value (value_and_jvp does, jvp does not).
    """

    forwards: int = 0
    jvps: int = 0
    sampler_steps: int = 0

    @property
    def forward_equivalents(self) -> int:
        return self.forwards + self.jvps


class ModelField:
    """Counting wrapper presenting an MlpVelocity as a velocity field.

    Each output row counts as one forward; each tangent row as one JVP,
    counted from the result, so the probe block is converted only once, in
    the model's tangent pass. An optional dropout stream turns the wrapper into a single stochastic
    sub-network pass, the unit the MC-dropout baseline averages over; a
    sequence of streams runs one such pass per stream, each counted.
    """

    def __init__(self, model: MlpVelocity, counter: EvalCounter | None = None,
                 dropout_rng: RngState | None = None):
        self.model = model
        self.counter = counter if counter is not None else EvalCounter()
        self.dropout_rng = dropout_rng

    @property
    def dim(self) -> int:
        return self.model.arch.dim

    def velocity(self, x, t) -> np.ndarray:
        out = self.model.velocity(x, t, dropout_rng=self.dropout_rng)
        self.counter.forwards += np.atleast_2d(out).shape[0]
        return out

    def value_and_jvp(self, x, t, u):
        v, ju = self.model.value_and_jvp(x, t, u, dropout_rng=self.dropout_rng)
        self.counter.forwards += 1
        self.counter.jvps += ju.shape[0] if ju.ndim == 2 else 1
        return v, ju

    def jvp(self, x, t, u) -> np.ndarray:
        _, ju = self.model.value_and_jvp(x, t, u, dropout_rng=self.dropout_rng)
        self.counter.jvps += ju.shape[0] if ju.ndim == 2 else 1
        return ju


class AnalyticField:
    """Population-optimal velocity of a known mixture, with exact tangents.

    The Jacobian comes from differentiating the posterior-mean formulas, so
    this field is exact and lets estimator code be tested with zero model
    error.
    """

    def __init__(self, spec, counter: EvalCounter | None = None):
        from . import oracle

        self._oracle = oracle
        self.spec = spec
        self.counter = counter if counter is not None else EvalCounter()

    @property
    def dim(self) -> int:
        return self.spec.dim

    def velocity(self, x, t) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self.counter.forwards += x2.shape[0]
        out = self._oracle.optimal_velocity_batch(self.spec, x2, t)
        return out if np.ndim(x) == 2 else out[0]

    def _jacobian(self, x, t) -> np.ndarray:
        xv = np.asarray(x, dtype=np.float64).reshape(-1)
        jm = self._oracle.posterior_mean_jacobian(self.spec, xv[None, :], t)[0]
        return (jm - np.eye(self.dim)) / (1.0 - t)

    def value_and_jvp(self, x, t, u):
        xv = np.asarray(x, dtype=np.float64).reshape(-1)
        u2 = np.atleast_2d(np.asarray(u, dtype=np.float64))
        self.counter.forwards += 1
        self.counter.jvps += u2.shape[0]
        v = self._oracle.optimal_velocity(self.spec, xv, t)
        ju = u2 @ self._jacobian(xv, t).T
        return v, (ju if np.ndim(u) == 2 else ju[0])

    def jvp(self, x, t, u) -> np.ndarray:
        xv = np.asarray(x, dtype=np.float64).reshape(-1)
        u2 = np.atleast_2d(np.asarray(u, dtype=np.float64))
        self.counter.jvps += u2.shape[0]
        ju = u2 @ self._jacobian(xv, t).T
        return ju if np.ndim(u) == 2 else ju[0]


def analytic_handle(spec, counter: EvalCounter | None = None) -> AnalyticField:
    return AnalyticField(spec, counter)


# ---- on-disk container ------------------------------------------------------

_MAGIC = b"FVAR"
_VERSION = 1
_KIND_MLP = 0
_ACT_CODES = {"tanh": 0, "relu": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


def save_model(path, model: MlpVelocity) -> None:
    """Write the binary model container (magic FVAR, version 1).

    Layout: magic, u32 version, u32 model kind (0 = mlp), u32 activation
    code, u32 dim, u32 hidden, u32 depth, u32 n_freq, f64 dropout, u32 layer
    count, per-layer u32 rows/cols, then the parameter vector as
    little-endian float64 (weights row-major, bias after its weight).
    Integers are little-endian. Round-trips bit-exact.
    """
    a = model.arch
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIIIII", _VERSION, _KIND_MLP,
                             _ACT_CODES[a.activation],
                             a.dim, a.hidden, a.depth, a.n_freq))
        fh.write(struct.pack("<d", a.dropout))
        fh.write(struct.pack("<I", len(model.weights)))
        for w in model.weights:
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
        fh.write(model.params.astype("<f8", copy=False).tobytes())


def _unpack(blob: bytes, off: int, fmt: str, what: str):
    """struct.unpack_from that names the field a short container lacks;
    returns (values, offset after them)."""
    size = struct.calcsize(fmt)
    if len(blob) - off < size:
        raise ModelError(f"truncated container: {what} needs {size} bytes at "
                         f"offset {off}, {max(len(blob) - off, 0)} left")
    return struct.unpack_from(fmt, blob, off), off + size


def load_model(path) -> MlpVelocity:
    """Read a container written by :func:`save_model`.

    Every read is bounds-checked: a truncated, padded or malformed container
    raises :class:`ModelError` naming what is wrong.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    (magic,), off = _unpack(blob, 0, "4s", "magic")
    if magic != _MAGIC:
        raise ModelError("not a model container: bad magic")
    header, off = _unpack(blob, off, "<IIIIIII", "header")
    version, kind, act, dim, hidden, depth, n_freq = header
    if version != _VERSION:
        raise ModelError(f"unsupported container version {version}")
    if kind != _KIND_MLP:
        raise ModelError(f"unsupported model kind {kind}")
    if act not in _ACT_NAMES:
        raise ModelError(f"unknown activation code {act}")
    (dropout,), off = _unpack(blob, off, "<d", "dropout rate")
    (n_layers,), off = _unpack(blob, off, "<I", "layer count")
    if n_layers != depth + 1:
        raise ModelError(f"layer count {n_layers} does not match depth {depth}")
    table, off = _unpack(blob, off, f"<{2 * n_layers}I", "layer table")
    shapes = list(zip(table[0::2], table[1::2]))
    arch = MlpArch(dim=dim, hidden=hidden, depth=depth, n_freq=n_freq,
                   activation=_ACT_NAMES[act], dropout=dropout)
    if shapes != arch.layer_shapes():
        raise ModelError("layer table does not match architecture header")
    size = 8 * arch.n_params
    if len(blob) - off < size:
        raise ModelError(f"truncated container: parameter block needs {size} "
                         f"bytes at offset {off}, {len(blob) - off} left")
    if len(blob) - off > size:
        raise ModelError("trailing bytes after parameter block")
    params = np.frombuffer(blob, dtype="<f8", count=arch.n_params, offset=off)
    return MlpVelocity.from_params(arch, params.astype(np.float64))
