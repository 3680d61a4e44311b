"""Velocity-field models and evaluation handles.

A velocity field, to the estimators, is anything with three methods:
``velocity(x, t)``, ``jvp(x, t, u)``, the products J u of a tangent or a
block of them, and ``jacobian(x, t)``, the dense d x d J. The MLP has them;
:class:`ModelField` wraps one to count its work on an :class:`EvalCounter`,
and :class:`AnalyticField` gives a known mixture's exact field.

The workhorse is a small MLP taking [x, sinusoidal(t)] and returning a
velocity in data space. Training needs parameter gradients and uncertainty
needs Jacobian-vector products in x, so the network carries its own
reverse-mode backward pass and forward-mode tangent propagation. It has two
forward passes, one per job.

The training step's pass, ``forward_cache``, keeps what ``backward`` reads.
Both write their (batch, hidden) arrays into a :class:`StepBuffers` set made
once per run, and ``backward`` its gradients into one flat vector. Dropout
is the inverted kind: keep mask / (1 - rate), drawn from an explicit
RngState per call, one draw for the whole batch. No call mutates hidden RNG
state.

Every other call takes the inference pass, which keeps no cache and runs
the input rows its caller built: one row (an Euler step, one estimate's
tangents, MC dropout's state) as 1-D products with the bits of the (1, k)
ones, or a batch (the consistency reference) with ``forward_cache``'s bits.
Its primal products are ``ndarray.dot`` calls, which make the same BLAS call
as ``@`` with less dispatch and give the same bits; a row's finiteness
check is a dot too. Either tangents or MC dropout's masks ride along, each
applied after every activation.

Tangents are scaled by the same activations as the primal values, which
keeps the two modes consistent to machine precision; their blocks keep
``@`` and copy-then-scale, since ``dot`` there moved bits (a zero's sign at
relu and d = hidden = 1; the product with the strided x-column view). No
other code propagates x-tangents. A tangent block enters at the first
layer's pre-activations and is scaled in place by each layer's activation
derivative. It is either the d basis rows, a C-order copy of the first
layer's x-column weight view (its product with I), which end as J^T, or the
caller's (m, d) block times that view. ``jacobian`` carries the basis.
``jvp`` carries it for a block of m >= d tangents at d <= hidden and forms
u @ J^T, for no more multiply-adds than the m-row pass; it carries any other
block as it is. The choice reads array shapes only; :class:`EvalCounter`
counts m products either way.

MC dropout's passes of one row (``dropout_velocities``) carry one (depth,
passes, hidden) block of masks. The first layer, which no mask reaches,
runs once as the row's 1-D product; its masked activation broadcasts to one
row per pass, and the later layers run as passes-row products.

The clock frequencies, the activation function and the transposed weight
views the passes read are made once per model, the views following in-place
writes to ``params``. A row's scalar float time has its sin and cos written
straight into the row, the same bits as :func:`time_features`; a batch
builds its inputs through :func:`time_features`. A time that is not finite
is refused with one ``ModelError`` line before sin and cos see it.
"""
from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import RngState

__all__ = [
    "MAX_DEPTH",
    "MAX_HIDDEN",
    "MAX_N_FREQ",
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
# the largest MLP: hidden x hidden weights, with their gradients and AdamW
# moments, in each of depth layers
MAX_HIDDEN = 1024
MAX_DEPTH = 8
# the most clock frequencies: pi 2^k overflows float64 from k = 1023, and
# from about k = 50 the angle t pi 2^k no longer resolves t in [0, 1]
MAX_N_FREQ = 32


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
    finite = np.isfinite(tv)
    if not np.logical_and.reduce(finite):
        # refused before sin and cos warn on it
        raise ModelError(f"time must be finite, got {tv[~finite][0]}")
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
        for name, top in (("hidden", MAX_HIDDEN), ("depth", MAX_DEPTH),
                          ("n_freq", MAX_N_FREQ)):
            if getattr(self, name) > top:
                raise ModelError(f"{name} must be at most {top}, "
                                 f"got {getattr(self, name)}")
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


def _relu(z: np.ndarray, out=None) -> np.ndarray:
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
    rows of each. A cache holds views of them, so it lasts only until the
    next pass writes them.
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


def _all_finite(v: np.ndarray) -> bool:
    """Whether every entry of v, a row or a block, is finite. A row's v . v
    is finite only then; its entry-wise check runs only when it is not, to
    tell squares that overflow from an entry that is not finite. A block is
    checked entry by entry."""
    if v.ndim == 1:
        return (math.isfinite(v.dot(v))
                or bool(np.logical_and.reduce(np.isfinite(v))))
    return bool(np.isfinite(v).all())


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
        # the transposed weights the inference pass multiplies by, made once,
        # and W0's x columns, where x-tangents enter
        self._forward_wt = tuple(w.T for w in self.weights)
        self._w0x = self._forward_wt[0][:arch.dim]
        self._freqs = np.pi * (2.0 ** np.arange(arch.n_freq))
        self._act = np.tanh if arch.activation == "tanh" else _relu

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
        emb = time_features(t, self.arch.n_freq)
        m = emb.shape[0]
        if m != n and (m != 1 or n == 0):
            raise ModelError(f"time batch {m} incompatible with x batch {n}")
        feats = np.empty((n, self.arch.in_dim))
        feats[:, :dim] = x2
        feats[:, dim:] = emb  # one time row broadcasts over the batch
        return feats

    def _dropout_masks(self, dropout_rng: RngState, u: np.ndarray):
        """The masks (u < keep) / keep, made in place in the (depth, rows,
        hidden) block u from one uniform draw of ``dropout_rng``'s
        generator. The draw covers every layer in order, the same bits as
        one (rows, hidden) draw per layer."""
        keep = 1.0 - self.arch.dropout
        dropout_rng.generator().random(out=u)
        # the bits of (u < keep).astype(np.float64) / keep, in place: an
        # entry of 0.0 or 1.0 times the rounded 1 / keep is that quotient
        np.less(u, keep, out=u)
        u *= 1.0 / keep
        return u

    def forward_cache(self, x, t, dropout_rng, bufs: StepBuffers):
        """The training step's forward pass: (velocity, cache) for
        ``backward``, the hidden layers' arrays written into ``bufs``.

        ``dropout_rng`` is None (no dropout) or one RngState for the whole
        batch: its generator's ``random((depth, rows, hidden))`` draw gives
        layer i's masks as block i, row r's as row r of it.
        """
        if dropout_rng is not None and not isinstance(dropout_rng, RngState):
            raise ModelError(f"dropout_rng must be an RngState or None, got "
                             f"{type(dropout_rng).__name__}")
        feats = self._input_features(x, t)
        rows = feats.shape[0]
        if rows > bufs.rows:
            raise ModelError(f"a batch of {rows} in buffers of {bufs.rows} "
                             f"rows")
        masks = None
        if dropout_rng is not None and self.arch.dropout > 0.0:
            masks = self._dropout_masks(dropout_rng, bufs.masks(rows))
        pre, post = bufs.pre[:, :rows], bufs.post[:, :rows]
        inputs = [feats]
        h = feats
        act = self._act
        # overflow surfaces as the explicit divergence error, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(self.arch.depth):
                z = np.matmul(h, self.weights[i].T, out=pre[i])
                z += self.biases[i]
                if not _all_finite(z):
                    raise ModelError(
                        "forward pass diverged: non-finite activations")
                # post keeps the pre-dropout activation for the derivative
                h = act(z, out=post[i])
                if masks is not None:
                    h = np.multiply(h, masks[i], out=bufs.dropped[i, :rows])
                inputs.append(h)
            out = h @ self.weights[-1].T
            out += self.biases[-1]
            if not _all_finite(out):
                raise ModelError("forward pass diverged: non-finite output")
        cache = {"inputs": inputs, "pre": pre, "post": post, "masks": masks}
        return out, cache

    def _row_features(self, x, t) -> np.ndarray:
        """The input row [x, time_features(t)] of one state, 1-D.

        x holds the model's d entries in any shape. A float time (np.float64
        is a float too) gets time_features' angles and bits written straight
        into the row; any other time goes through :func:`time_features` and
        must be one time.
        """
        arch = self.arch
        dim = arch.dim
        xv = np.asarray(x, dtype=np.float64)
        if xv.size != dim:
            raise ModelError(f"x dim {xv.size} != model dim {dim}")
        row = np.empty(arch.in_dim)
        row[:dim] = xv if xv.ndim == 1 else xv.reshape(-1)
        if isinstance(t, float):
            if not math.isfinite(t):  # refused before sin and cos warn on it
                raise ModelError(f"time must be finite, got {t}")
            ang = t * self._freqs
            mid = dim + arch.n_freq
            np.sin(ang, out=row[dim:mid])
            np.cos(ang, out=row[mid:])
            return row
        emb = time_features(t, arch.n_freq)
        if emb.shape[0] != 1:
            raise ModelError(f"time batch {emb.shape[0]} incompatible with x "
                             f"batch 1")
        row[dim:] = emb[0]
        return row

    def _infer(self, h, du=None, masks=None):
        """The inference pass: velocities of the input rows h, a 1-D row
        (``_row_features``) or a (rows, k) batch (``_input_features``), and,
        with ``du``, a row's output tangents (m, dim); else None.

        ``du`` is the (m, hidden) tangent of the first layer's
        pre-activations: a C-order copy of the x-column weight view for the
        d basis rows (the output is then J^T), or u @ that view for a block
        u. It is scaled in place and carried through the later layers.
        ``masks``, a (depth, passes, hidden) block that is overwritten, is
        MC dropout's: each layer's block multiplies its activation, so a
        row's first activation broadcasts to one row per pass. Without
        masks, the same bits as ``forward_cache`` on the rows, with the
        tangents scaled by its activations.
        """
        act, name = self._act, self.arch.activation
        wt, biases = self._forward_wt, self.biases
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(self.arch.depth):
                z = h.dot(wt[i])
                z += biases[i]
                if not _all_finite(z):
                    raise ModelError(
                        "forward pass diverged: non-finite activations")
                h = act(z)
                if du is not None:
                    if i > 0:
                        du = du @ wt[i]
                    _scale_by_act_deriv(name, du, z, h)
                elif masks is not None:
                    h = np.multiply(masks[i], h, out=masks[i])
            out = h.dot(wt[-1])
            out += biases[-1]
            if not _all_finite(out):
                raise ModelError("forward pass diverged: non-finite output")
        return out, (None if du is None else du @ wt[-1])

    def velocity(self, x, t) -> np.ndarray:
        """Velocity (dim,) of one row or (rows, dim) of a batch, from the
        inference pass; neither drops out."""
        if np.ndim(x) < 2:
            return self._infer(self._row_features(x, t))[0]
        return self._infer(self._input_features(x, t))[0]

    def dropout_velocities(self, x, t, passes: int,
                           dropout_rng: RngState) -> np.ndarray:
        """Velocities (passes, dim) of one row x under ``passes`` dropout
        passes.

        The masks are ``forward_cache``'s one (depth, passes, hidden) draw
        of ``dropout_rng``'s generator, pass p's being row p of each block,
        and ride the inference pass on the row. At rate zero every row is
        the row's velocity.
        """
        if not isinstance(dropout_rng, RngState):
            raise ModelError(f"dropout_rng must be an RngState, got "
                             f"{type(dropout_rng).__name__}")
        arch = self.arch
        row = self._row_features(x, t)
        if arch.dropout == 0.0:  # every pass is the row's velocity
            return np.tile(self._infer(row)[0], (passes, 1))
        masks = self._dropout_masks(
            dropout_rng, np.empty((arch.depth, passes, arch.hidden)))
        return self._infer(row, masks=masks)[0]

    def backward(self, cache, dout: np.ndarray, out: np.ndarray,
                 bufs: StepBuffers):
        """Parameter gradients for sum(dout * output); returns (dWs, dbs).

        The gradients are written into ``out``, a flat vector laid out like
        ``params``, and returned as its per-layer views; the hidden-layer
        deltas go into ``bufs``.
        """
        if out.shape != self.params.shape:
            raise ModelError(f"gradient buffer of shape {out.shape} for "
                             f"{self.params.size} parameters")
        d_ws, d_bs = _layer_views(out, self.arch)
        act = self.arch.activation
        masks = cache["masks"]
        np.matmul(dout.T, cache["inputs"][-1], out=d_ws[-1])
        np.sum(dout, axis=0, out=d_bs[-1])
        # the delta and the derivative temporary swap work arrays each layer
        work = bufs.work[:, :dout.shape[0]]
        k = 0
        dz = np.matmul(dout, self.weights[-1], out=work[k])
        for i in range(self.arch.depth - 1, -1, -1):
            if masks is not None:
                dz *= masks[i]
            _scale_by_act_deriv(act, dz, cache["pre"][i], cache["post"][i],
                                work[1 - k])
            np.matmul(dz.T, cache["inputs"][i], out=d_ws[i])
            np.sum(dz, axis=0, out=d_bs[i])
            if i > 0:
                k = 1 - k
                dz = np.matmul(dz, self.weights[i], out=work[k])
        return d_ws, d_bs

    # ---- forward-mode tangents ---------------------------------------------

    def jvp(self, x, t, u) -> np.ndarray:
        """J_v u from one inference pass on x. x: (d,), u: (d,) or (m, d).

        Time is held fixed, so the tangents enter through the first layer's
        x columns only. A block of m >= d tangents at d <= hidden is u @ J^T
        from the d basis rows; any other block is carried as it is.
        """
        u2 = np.asarray(u, dtype=np.float64)
        ndim = u2.ndim
        if ndim < 2:
            u2 = u2.reshape(1, -1)
        dim = self.arch.dim
        if u2.shape[1] != dim:
            raise ModelError(f"tangent dim {u2.shape[1]} != model dim {dim}")
        row = self._row_features(x, t)
        if u2.shape[0] >= dim and dim <= self.arch.hidden:
            ju = u2 @ self._infer(row, self._w0x.copy())[1]
        else:
            ju = self._infer(row, u2 @ self._w0x)[1]
        return ju if ndim == 2 else ju[0]

    def jacobian(self, x, t) -> np.ndarray:
        """Dense d x d velocity Jacobian from d basis tangents."""
        return self._infer(self._row_features(x, t), self._w0x.copy())[1].T


@dataclass
class EvalCounter:
    """Tally of field work, used by the cost audit.

    One tangent row costs about one forward pass, so the audit reports
    forwards + jvps as forward-equivalents. A block of S tangents rides one
    inference pass and counts as S: the primal pass it shares is amortized
    across the block and is not billed.

    jvps counts the tangent products delivered, not the rows propagated: a
    block of m >= d tangents (at d <= hidden) carries d basis rows and
    forms its m products from J^T, and still counts m. A field's dense
    ``jacobian`` counts d, the products with the d basis vectors. In the
    same way MC dropout's P passes count P forwards, though the first
    layer they share runs once.
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
    the model's inference pass. ``jacobian`` counts d JVPs, its d basis
    tangents.
    Passes run in inference mode, with no dropout;
    the MC-dropout baseline runs its stochastic passes on the model itself
    and counts them on this handle's counter.
    """

    def __init__(self, model: MlpVelocity, counter: EvalCounter | None = None):
        self.model = model
        self.counter = counter if counter is not None else EvalCounter()

    @property
    def dim(self) -> int:
        return self.model.arch.dim

    def velocity(self, x, t) -> np.ndarray:
        out = self.model.velocity(x, t)
        self.counter.forwards += out.shape[0] if out.ndim == 2 else 1
        return out

    def jvp(self, x, t, u) -> np.ndarray:
        ju = self.model.jvp(x, t, u)
        self.counter.jvps += ju.shape[0] if ju.ndim == 2 else 1
        return ju

    def jacobian(self, x, t) -> np.ndarray:
        jac = self.model.jacobian(x, t)
        self.counter.jvps += jac.shape[0]
        return jac


class AnalyticField:
    """Population-optimal velocity of a known mixture, with exact tangents.

    The Jacobian comes from differentiating the posterior-mean formulas, so
    this field is exact and lets estimator code be tested with zero model
    error. ``jacobian`` returns it and counts d JVPs, as many as the basis
    tangents it stands for.
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

    def jacobian(self, x, t) -> np.ndarray:
        self.counter.jvps += self.dim
        return self._jacobian(x, t)

    def jvp(self, x, t, u) -> np.ndarray:
        u2 = np.atleast_2d(np.asarray(u, dtype=np.float64))
        self.counter.jvps += u2.shape[0]
        ju = u2 @ self._jacobian(x, t).T
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
