"""Seeded randomness, Rademacher probes, and stochastic trace/diagonal estimation.

All vectors and matrices in this package are plain float64 numpy arrays.
Every random draw flows through an explicit :class:`RngState`; there is no
global RNG anywhere.

Callers that need many sibling streams at once (one per MC-dropout pass, one
per sample of a protocol) derive them as one batch: :meth:`RngState.split_many`
and :func:`uniform_draws` run numpy's SeedSequence mixing as vectorised
uint32 arithmetic over all the streams and seed one reused PCG64 from the
result, with the same bits as :meth:`RngState.split` and
:meth:`RngState.generator` give one stream at a time. The tests pin the two
paths to each other, bit for bit.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngState",
    "uniform_draws",
    "ProbeSet",
    "draw_rademacher",
    "exhaustive_sign_probes",
    "finite_diff_jvp",
    "hutchinson_trace",
    "hutchinson_diagonal",
]


class NumericsError(ValueError):
    pass


class _NotAnInteger(NumericsError, TypeError):
    """A seed, stream or key that is not an integer; a TypeError too, as
    ``operator.index`` raises."""


def _index(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise _NotAnInteger(f"seed, stream and key must be integers, "
                            f"got {x!r}") from None


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
        """Derive an independent child state; pure in (seed, stream, key).

        The key must be an integer (anything ``operator.index`` takes).
        """
        key = _index(key)
        try:
            ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream, key))
        except ValueError as ex:  # a negative seed, stream or key
            raise NumericsError(f"cannot split {self} by key {key!r}: {ex}") \
                from None
        child = int(ss.generate_state(1, np.uint64)[0])
        return RngState(seed=child, stream=0)

    def split_many(self, keys) -> list:
        """``[self.split(k) for k in keys]``, derived as one batch.

        Integer keys only; any size, each taking as many 32-bit entropy words
        as ``split`` gives it.
        """
        head = _entropy(self.seed, self.stream)
        states = _seed_state([head + _words(k) for k in keys], 1)
        return [RngState(seed=state[0]) for state in states]


# ---- batched stream seeding ---------------------------------------------------
# numpy's SeedSequence (pool size 4) and PCG64 seeding, restated as vectorised
# uint32 arithmetic over many entropy rows; constants from numpy's
# bit_generator and pcg64 sources.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashmix constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hash constants
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.lru_cache(maxsize=32)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult^j mod 2^32 for j = 0..n, as a read-only column."""
    steps = np.full(n + 1, mult, dtype=np.uint32)
    steps[0] = init
    out = np.cumprod(steps, dtype=np.uint32)[:, None]
    out.flags.writeable = False
    return out


_OTHERS = [np.array([d for d in range(4) if d != s]) for s in range(4)]


def _words(x) -> list:
    """SeedSequence's coding of a non-negative integer: 32-bit words, low
    word first, one zero word for 0."""
    x = _index(x)
    if 0 <= x <= _MASK32:
        return [x]
    if x < 0:
        raise NumericsError(f"seed, stream and key must be non-negative, "
                            f"got {x}")
    out = []
    while x:
        out.append(x & _MASK32)
        x >>= 32
    return out


def _entropy(seed, *spawn_key) -> list:
    """The entropy words of SeedSequence(seed, spawn_key=spawn_key): the seed
    padded to the 4-word pool, then the spawn key."""
    out = _words(seed)
    out += [0] * (4 - len(out))
    for x in spawn_key:
        out += _words(x)
    return out


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed 4-word pool, as a (4, n) array, for each column
    of an (L, n) uint32 entropy array, L >= 4."""
    n_src = entropy.shape[0]
    a = _hash_consts(_INIT_A, _MULT_A, 4 * n_src)
    # hashmix call j xors with constant j and multiplies by constant j+1
    v = (entropy[:4] ^ a[0:4]) * a[1:5]
    pool = v ^ (v >> 16)
    j = 4
    for src in range(4):
        # mixer[src] is fixed while it is mixed into the three other words
        dst = _OTHERS[src]
        h = (pool[src] ^ a[j:j + 3]) * a[j + 1:j + 4]
        h ^= h >> 16
        r = pool[dst] * _MIX_L - h * _MIX_R
        pool[dst] = r ^ (r >> 16)
        j += 3
    for src in range(4, n_src):
        h = (entropy[src] ^ a[j:j + 4]) * a[j + 1:j + 5]
        h ^= h >> 16
        pool = pool * _MIX_L - h * _MIX_R
        pool ^= pool >> 16
        j += 4
    return pool


def _seed_state(entropies, n: int) -> list:
    """``SeedSequence.generate_state(n, np.uint64)``, as a list of n ints,
    for each list of entropy words; rows of equal length share the
    vectorised mixing."""
    out = [None] * len(entropies)
    rows_of = {}
    for i, e in enumerate(entropies):
        rows_of.setdefault(len(e), []).append(i)
    b = _hash_consts(_INIT_B, _MULT_B, 2 * n)
    for rows in rows_of.values():
        pool = _pool(np.array([entropies[i] for i in rows], dtype=np.uint32).T)
        v = (pool[np.arange(2 * n) % 4] ^ b[:-1]) * b[1:]
        v = (v ^ (v >> 16)).astype(np.uint64)
        # each uint64 is two uint32 words, low word first
        for i, w in zip(rows, (v[0::2] | v[1::2] << np.uint64(32)).T.tolist()):
            out[i] = w
    return out


def uniform_draws(states, shape: tuple) -> np.ndarray:
    """``np.stack([s.generator().random(shape) for s in states])``, bit for bit.

    Each state's PCG64 is seeded as numpy seeds it: its SeedSequence's four
    uint64 words are the 128-bit initstate and initseq, high half first;
    ``inc = 2 initseq + 1``, and the state takes two LCG steps with
    initstate added between them. The result is set on one reused bit
    generator, so no per-state Generator or SeedSequence is built.
    """
    shape = tuple(shape)
    seeds = _seed_state([_entropy(s.seed, s.stream) for s in states], 4)
    out = np.empty((len(states),) + shape)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    bitgen_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0,
                    "uinteger": 0}
    rows = out.reshape(len(states), int(np.prod(shape)))
    for row, (state_hi, state_lo, seq_hi, seq_lo) in zip(rows, seeds):
        initstate = state_hi << 64 | state_lo
        inc = pcg["inc"] = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        bitgen.state = bitgen_state
        gen.random(out=row)
    return out


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
        if not (np.abs(p) == 1.0).all():
            raise NumericsError("probe entries must be exactly -1 or +1")
        object.__setattr__(self, "probes", p)

    @property
    def count(self) -> int:
        return self.probes.shape[0]

    @property
    def dim(self) -> int:
        return self.probes.shape[1]


def draw_rademacher(rng: RngState, d: int, s: int) -> ProbeSet:
    """Draw S independent Rademacher sign vectors in {-1,+1}^d.

    The signs are the bits ``rng.generator().integers(0, 2, size=(s, d))``
    draws, read straight from the raw 64-bit outputs: the top bit of each
    32-bit half, low half first, with the last high half unused when S*d is
    odd.
    """
    if d < 1 or s < 1:
        raise NumericsError(f"need d >= 1 and S >= 1, got d={d}, S={s}")
    n = s * d
    raw = rng.generator().bit_generator.random_raw((n + 1) // 2)
    halves = raw.astype("<u8", copy=False).view("<u4")
    probes = (halves[:n] >> 31).astype(np.float64)
    probes *= 2.0
    probes -= 1.0
    return ProbeSet(probes=probes.reshape(s, d), seed=rng)


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
    # ndarray.mean's sum and divide, without its Python wrapper; products is
    # a fresh array, never one the jvp returned
    products = probes.probes * _apply_jvp(jvp, probes)
    diag = np.add.reduce(products, axis=0)
    diag /= probes.count
    return diag


def hutchinson_trace(jvp, probes: ProbeSet) -> float:
    """Stochastic trace estimate (1/S) sum_s eps_s^T (J eps_s)."""
    return float(hutchinson_diagonal(jvp, probes).sum())
