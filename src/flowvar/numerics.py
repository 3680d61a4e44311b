"""Seeded randomness, Rademacher probes, and stochastic diagonal estimation.

All vectors and matrices in this package are plain float64 numpy arrays.
Every random draw flows through an explicit :class:`RngState`; there is no
global RNG anywhere.

An ``RngState(seed, stream)`` is the stream of numpy's
``default_rng(SeedSequence(seed, spawn_key=(stream,)))``, and ``split(key)``
is ``RngState(SeedSequence(seed, spawn_key=(stream, key))
.generate_state(1, np.uint64)[0])``. Every derivation takes one path to those
bits:

1. the entropy words SeedSequence assembles from the integers, as one uint32
   array (``_entropy``);
2. the mixed 4-word pool: numpy's own ``SeedSequence(words).pool`` for one
   stream, or the same mixing as vectorised uint32 arithmetic over many
   streams (``_pool``, ``_mix``);
3. one output hash of the pool (``_hash_out``): Python ints for one stream,
   one (words, streams) uint32 array for many, all hashed at once;
4. for draws, PCG64's state set from those words on a per-thread bit
   generator (``_seeded_pcg64``), then its raw output.

Many sibling streams travel one way only: as one uint64 array of child
seeds. ``RngState.split_seeds`` gives that array (one vectorised mix for a
``range`` of keys inside one 32-bit word, the single-stream ``split`` per key
for any other keys), and ``_seed_raw`` takes it to each child's raw words
(its entropy rows are a view of the array, mixed and hashed at once), with
no RngState per child. ``draw_rademacher_many`` reads per-state probe
blocks from it. Setting the state through numpy's public setter and drawing
are the floor of each stream, about 3 and 2.3 us; every other step costs a
few numpy calls however many streams there are.

``RngState.split`` builds numpy's ``SeedSequence`` over a parent's entropy
words once per parent: ``_parent_pool`` keeps the last few parents' mixed
pools, keyed on the int (seed, stream), and each child's key word is mixed
into that pool and hashed as Python ints (``_child_seed``). Keys, seeds or
streams past one word, or past the 4-word seed pad, and keys or parents that
are not Python ints take the whole derivation for every split. A draw builds
one ``SeedSequence`` over its own stream's words; no Generator is built on
the way, except by :meth:`RngState.generator`, which hands the same words to
``default_rng``. The tests pin each path to numpy's ``SeedSequence`` and
``default_rng``, bit for bit.
"""
from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngState",
    "ProbeSet",
    "draw_rademacher",
    "draw_rademacher_many",
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
        (child,) = _hash_out(_seed_pool(seed, stream, key), 1)
        return RngState(child)

    def split_many(self, keys) -> list:
        """``[self.split(k) for k in keys]``, derived as one batch by
        ``split_seeds``."""
        # positional: a keyword argument makes each state twice as dear
        return [RngState(child) for child in self.split_seeds(keys).tolist()]

    def split_seeds(self, keys) -> np.ndarray:
        """The seeds of ``split_many(keys)``, as one uint64 array.

        Each child is a stream-0 state, so the array is all that
        ``draw_rademacher_many`` needs of them. A ``range`` inside one 32-bit
        word, which every batch caller passes, is mixed as one row into the
        parent's pool, mixed once; any other integer keys take ``split`` one
        at a time.
        """
        ends = (keys[0], keys[-1]) if isinstance(keys, range) and keys else (-1,)
        if not (0 <= min(ends) and max(ends) <= _MASK32):
            return np.array([self.split(k).seed for k in keys],
                            dtype=np.uint64)
        head = _entropy(self.seed, self.stream)
        parent = np.random.SeedSequence(head).pool[:, None]
        # each key is its own one-word coding: one row to mix
        row = np.arange(keys.start, keys.stop, keys.step).astype(np.uint32)
        return _hash_out(_mix(parent, row[None], 4 * len(head)), 1).ravel()


# ---- stream seeding ---------------------------------------------------------
# numpy's SeedSequence (pool size 4) and PCG64 seeding, restated as uint32
# arithmetic; constants from numpy's bit_generator and pcg64 sources.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashmix constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hash constants
_MIX_L_INT, _MIX_R_INT = 0xCA01F9DD, 0x4973F715
_MIX_L, _MIX_R = np.uint32(_MIX_L_INT), np.uint32(_MIX_R_INT)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.lru_cache(maxsize=32)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult^j mod 2^32 for j = 0..n, as a read-only column."""
    steps = np.full(n + 1, mult, dtype=np.uint32)
    steps[0] = init
    out = np.cumprod(steps, dtype=np.uint32)[:, None]
    out.flags.writeable = False
    return out


def _round_consts() -> tuple:
    """Per word ``src`` of the pool's mixing rounds, the (4, 1) xor and
    multiply hash-constant columns of the three other words, in order, as
    hashmix calls 4.. take them; the src row's entries are unused zeros."""
    a = _hash_consts(_INIT_A, _MULT_A, 16).ravel()
    xors, mults = np.zeros((2, 4, 4, 1), dtype=np.uint32)
    j = 4
    for src in range(4):
        for dst in (d for d in range(4) if d != src):
            xors[src, dst], mults[src, dst] = a[j], a[j + 1]
            j += 1
    return tuple(zip(xors, mults))


_ROUND_CONSTS = _round_consts()
_OUT_B_COL = _hash_consts(_INIT_B, _MULT_B, 8)
_OUT_B = _OUT_B_COL.ravel().tolist()
_OUT_ROWS = np.arange(8) % 4  # the pool word each output word reads
_KEY_A = _hash_consts(_INIT_A, _MULT_A, 22).ravel()[20:].tolist()


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


def _seed_pool(seed, *spawn_key) -> list:
    """The mixed pool of SeedSequence(seed, spawn_key=spawn_key), as 4 ints;
    numpy mixes the words."""
    return np.random.SeedSequence(_entropy(seed, *spawn_key)).pool.tolist()


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
    for a key below 2^32: the key word mixed into the pool, as ``_mix`` mixes
    the sixth entropy word (hash constants from 20), in Python ints. The
    child's seed, ``_hash_out(pool, 1)``, reads pool words 0 and 1 only, so
    only they are mixed."""
    mixed = []
    for dst in range(2):
        h = (key ^ _KEY_A[dst]) * _KEY_A[dst + 1] & _MASK32
        h ^= h >> 16
        w = (pool[dst] * _MIX_L_INT - h * _MIX_R_INT) & _MASK32
        mixed.append(w ^ w >> 16)
    (child,) = _hash_out(mixed, 1)
    return child


def _mix(pool: np.ndarray, words: np.ndarray, j: int) -> np.ndarray:
    """Mix each row of an (L, n) word array into (4, n) pools (or one (4, 1)
    pool, broadcast), as SeedSequence mixes entropy words past the fourth;
    the first word takes hash constant j."""
    a = _hash_consts(_INIT_A, _MULT_A, j + 4 * len(words))
    for w in words:
        h = (w ^ a[j:j + 4]) * a[j + 1:j + 5]
        h ^= h >> 16
        pool = pool * _MIX_L - h * _MIX_R
        pool ^= pool >> 16
        j += 4
    return pool


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed 4-word pool, as a (4, n) array, for each column
    of an (L, n) uint32 entropy array, L >= 4."""
    a = _hash_consts(_INIT_A, _MULT_A, 16)
    # hashmix call j xors with constant j and multiplies by constant j+1
    pool = (entropy[:4] ^ a[0:4]) * a[1:5]
    pool ^= pool >> 16
    for src, (xor, mult) in enumerate(_ROUND_CONSTS):
        # word src, fixed, is mixed into the three other words: all four
        # rows are mixed, and row src is then put back
        fixed = pool[src].copy()
        h = fixed ^ xor
        h *= mult
        h ^= h >> 16
        h *= _MIX_R
        pool *= _MIX_L
        pool -= h
        pool ^= pool >> 16
        pool[src] = fixed
    return _mix(pool, entropy[4:], 16)


def _hash_out(pool, k: int):
    """``SeedSequence.generate_state(k, np.uint64)`` from a mixed pool, k <= 4.

    ``pool`` is one stream's 4 pool words as ints, which gives a list of k
    ints: ints keep one stream clear of numpy's per-call cost. Or it is a
    (4, n) uint32 array with one column per stream, which gives an (n, k)
    uint64 array with one row per stream, every stream hashed at once.
    """
    if isinstance(pool, np.ndarray):
        # output word m reads pool word m % 4, xors hash constant m and
        # multiplies by constant m + 1 (mod 2^32); pairs of words, low word
        # first, are the uint64s
        w = pool[_OUT_ROWS[:2 * k]]
        w ^= _OUT_B_COL[:2 * k]
        w *= _OUT_B_COL[1:2 * k + 1]
        w ^= w >> 16
        return np.ascontiguousarray(w.T, dtype="<u4").view("<u8")
    out = []
    for j in range(0, 2 * k, 2):
        # output word j reads pool word j % 4; a uint64 is two of them,
        # low word first
        lo = (pool[j % 4] ^ _OUT_B[j]) * _OUT_B[j + 1] & _MASK32
        hi = (pool[j % 4 + 1] ^ _OUT_B[j + 1]) * _OUT_B[j + 2] & _MASK32
        out.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)
    return out


class _Pcg64(threading.local):
    """One PCG64 per thread, reseeded for each stream by setting its state,
    and the state dict it is set from."""

    def __init__(self):
        self.bitgen = np.random.PCG64(0)
        self.pcg = {"state": 0, "inc": 0}
        self.state = {"bit_generator": "PCG64", "state": self.pcg,
                      "has_uint32": 0, "uinteger": 0}


_PCG64 = _Pcg64()


def _seeded_pcg64(words) -> np.random.PCG64:
    """This thread's PCG64, seeded as numpy seeds it from four SeedSequence
    output words: they are the 128-bit initstate and initseq, high half
    first; ``inc = 2 initseq + 1``, and the state takes two LCG steps with
    initstate added between them."""
    state_hi, state_lo, seq_hi, seq_lo = words
    local = _PCG64
    pcg = local.pcg
    inc = pcg["inc"] = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    pcg["state"] = \
        ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
    bitgen = local.bitgen
    bitgen.state = local.state
    return bitgen


def _seed_raw(seeds: np.ndarray, n: int) -> np.ndarray:
    """``np.stack([RngState(s).generator().bit_generator.random_raw(n)
    for s in seeds])`` for a uint64 array of seeds, bit for bit.

    Each seed's entropy row (its two words, read through a uint32 view of
    the array, two zero pad words and stream 0) is mixed and hashed with all
    the others at once; only the PCG64 state set and the draw are per
    stream.
    """
    entropy = np.zeros((5, len(seeds)), dtype=np.uint32)
    entropy[:2] = np.ascontiguousarray(seeds, dtype="<u8").view("<u4").reshape(
        -1, 2).T
    words = _hash_out(_pool(entropy), 4).tolist()
    raw = np.empty((len(words), n), dtype=np.uint64)
    for i, w in enumerate(words):
        raw[i] = _seeded_pcg64(w).random_raw(n)
    return raw


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
    words = _hash_out(_seed_pool(rng.seed, rng.stream), 4)
    raw = _seeded_pcg64(words).random_raw((n + 1) // 2)
    return ProbeSet._of_signs(_signs(raw, n).reshape(s, d), rng)


def draw_rademacher_many(rng: RngState, keys, d: int, s: int) -> list:
    """``[draw_rademacher(rng.split(k), d, s) for k in keys]``, bit for bit.

    The children's seeds come from ``rng.split_seeds`` as one array, and
    their raw outputs from ``_seed_raw``; each set records its child state.
    """
    _check_probe_shape(d, s)
    seeds = rng.split_seeds(keys)
    n = s * d
    signs = _signs(_seed_raw(seeds, (n + 1) // 2), n)
    return [ProbeSet._of_signs(block.reshape(s, d), RngState(seed))
            for block, seed in zip(signs, seeds.tolist())]


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
