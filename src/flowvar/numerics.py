"""Seeded randomness, Rademacher probes, and stochastic diagonal estimation.

All vectors and matrices in this package are plain float64 numpy arrays.
Every random draw flows through an explicit :class:`RngState`; there is no
global RNG anywhere.

An ``RngState(seed, stream)`` is the stream of numpy's
``default_rng(SeedSequence(seed, spawn_key=(stream,)))``, and ``split(key)``
is ``RngState(SeedSequence(seed, spawn_key=(stream, key))
.generate_state(1, np.uint64)[0])``. Every stream starts from the entropy
words SeedSequence assembles from the integers, as one uint32 array
(``_entropy``). A draw hands them to numpy's own ``PCG64`` and reads its
raw output; :meth:`RngState.generator` hands the same words to
``default_rng``, which builds the same bit generator.

``RngState.split`` builds numpy's ``SeedSequence`` over a parent's entropy
words once per parent: ``_parent_pool`` keeps the last few parents' mixed
pools, keyed on the int (seed, stream), and each child's key word is mixed
into that pool and its one output word hashed as Python ints
(``_child_seed``). Keys, seeds or streams past one word, or past the 4-word
seed pad, and keys or parents that are not Python ints build a whole
``SeedSequence`` for every split. Sibling streams are derived one at a
time, one ``split`` or ``draw_rademacher`` call each. The tests pin each
path to numpy's ``SeedSequence`` and ``default_rng``, bit for bit.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngState",
    "ProbeSet",
    "draw_rademacher",
    "exhaustive_sign_probes",
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
        return np.random.default_rng(_entropy(self.seed, self.stream))

    def split(self, key: int) -> "RngState":
        """Derive an independent child state; pure in (seed, stream, key).

        The key must be an integer (anything ``operator.index`` takes).
        """
        seed, stream = self.seed, self.stream
        if (type(key) is int and 0 <= key <= _MASK32 and type(seed) is int
                and type(stream) is int):
            pool = _parent_pool(seed, stream)
            if pool is not None:
                return RngState(_child_seed(pool, key))
        seq = np.random.SeedSequence(_entropy(seed, stream, key))
        return RngState(int(seq.generate_state(1, np.uint64)[0]))


# ---- stream seeding ---------------------------------------------------------
# numpy's SeedSequence (pool size 4) key mixing and first output word, in
# Python ints; constants from numpy's bit_generator source.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashmix constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hash constants
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, n: int) -> list:
    """init * mult^j mod 2^32 for j = 0..n."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


_OUT_B = _hash_consts(_INIT_B, _MULT_B, 2)
_KEY_A = _hash_consts(_INIT_A, _MULT_A, 22)[20:]


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


def _entropy(seed, *spawn_key) -> np.ndarray:
    """The entropy words of SeedSequence(seed, spawn_key=spawn_key), as a
    uint32 array: the seed padded to the 4-word pool, then the spawn key."""
    try:
        # a seed below 2^128 is its own padded coding, and a spawn key entry
        # below 2^32 one word
        data = seed.to_bytes(16, "little")
        for x in spawn_key:
            data += x.to_bytes(4, "little")
        return np.frombuffer(data, dtype="<u4")
    except (AttributeError, OverflowError):  # larger, negative or not an int
        pass
    out = _words(seed)
    out += [0] * (4 - len(out))
    for x in spawn_key:
        out += _words(x)
    return np.array(out, dtype=np.uint32)


@functools.lru_cache(maxsize=32)
def _parent_pool(seed: int, stream: int) -> tuple | None:
    """The mixed pool of SeedSequence(seed, spawn_key=(stream,)), as 4 ints,
    for a seed below 2^128 and a stream below 2^32, whose entropy is 5 words;
    None for any larger ones. Memoised on the ints: the parents of a round's
    splits repeat."""
    head = _entropy(seed, stream)
    return (tuple(np.random.SeedSequence(head).pool.tolist())
            if len(head) == 5 else None)


def _child_seed(pool: tuple, key: int) -> int:
    """The seed of ``split(key)`` of the parent whose mixed pool is ``pool``,
    for a key below 2^32: the key word mixed into the pool, as SeedSequence
    mixes the sixth entropy word (hash constants from 20), then the first
    uint64 output word, low half first, all in Python ints. That word reads
    pool words 0 and 1 only, so only they are mixed."""
    halves = []
    for dst in range(2):
        h = (key ^ _KEY_A[dst]) * _KEY_A[dst + 1] & _MASK32
        h ^= h >> 16
        w = (pool[dst] * _MIX_L - h * _MIX_R) & _MASK32
        w ^= w >> 16
        h = (w ^ _OUT_B[dst]) * _OUT_B[dst + 1] & _MASK32
        halves.append(h ^ h >> 16)
    return halves[0] | halves[1] << 32


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

    @classmethod
    def _of_signs(cls, probes: np.ndarray, seed: RngState | None):
        """A set of float64 entries already made from sign bits, without
        the entry scan that cannot fail on them."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "probes", probes)
        object.__setattr__(ps, "seed", seed)
        return ps

    @property
    def count(self) -> int:
        return self.probes.shape[0]

    @property
    def dim(self) -> int:
        return self.probes.shape[1]


def _check_probe_shape(d: int, s: int) -> None:
    if d < 1 or s < 1:
        raise NumericsError(f"need d >= 1 and S >= 1, got d={d}, S={s}")


def _signs(raw: np.ndarray, n: int) -> np.ndarray:
    """The first n signs of each row of raw 64-bit outputs, as float64 -1.0
    or +1.0: the top bit of each 32-bit half, low half first."""
    # the top bit of a half is its int32 sign bit
    halves = raw.astype("<u8", copy=False).view("<i4")
    signs = np.multiply(halves[..., :n] < 0, 2.0)
    signs -= 1.0
    return signs


def draw_rademacher(rng: RngState, d: int, s: int) -> ProbeSet:
    """Draw S independent Rademacher sign vectors in {-1,+1}^d.

    The signs are the bits ``rng.generator().integers(0, 2, size=(s, d))``
    draws, read straight from the raw 64-bit outputs: the top bit of each
    32-bit half, low half first, with the last high half unused when S*d is
    odd.
    """
    _check_probe_shape(d, s)
    n = s * d
    bitgen = np.random.PCG64(_entropy(rng.seed, rng.stream))
    raw = bitgen.random_raw((n + 1) // 2)
    return ProbeSet._of_signs(_signs(raw, n).reshape(s, d), rng)


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


def hutchinson_diagonal(products, probes: ProbeSet) -> np.ndarray:
    """Per-coordinate diagonal estimate (1/S) sum_s eps_i^(s) [J eps^(s)]_i.

    ``products`` is the (S, d) block of products J eps^(s), one row per
    probe of ``probes``.
    """
    if np.shape(products) != probes.probes.shape:
        raise NumericsError(f"products of shape {np.shape(products)} for "
                            f"probes of shape {probes.probes.shape}")
    # ndarray.mean's sum and divide, without its Python wrapper, on a fresh
    # array, never the products the caller holds
    diag = np.add.reduce(probes.probes * products, axis=0)
    diag /= probes.count
    return diag
