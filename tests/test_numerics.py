import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowvar.numerics import (NumericsError, ProbeSet, RngState,
                              _parent_pool, draw_rademacher,
                              exhaustive_sign_probes, hutchinson_diagonal)

from refs import finite_diff_jvp


def test_rng_determinism():
    a = RngState(7).generator().standard_normal(5)
    b = RngState(7).generator().standard_normal(5)
    assert np.array_equal(a, b)


def test_rng_split_streams_differ():
    root = RngState(7)
    a = root.split(0).generator().standard_normal(5)
    b = root.split(1).generator().standard_normal(5)
    assert not np.array_equal(a, b)
    # splitting is itself deterministic
    c = RngState(7).split(0).generator().standard_normal(5)
    assert np.array_equal(a, c)


# word-count edges of numpy's SeedSequence entropy coding, plus random values
_SEEDS = (st.sampled_from([0, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 7,
                           2**130 + 3]) | st.integers(0, 2**80))
_STREAMS = st.sampled_from([0, 1, 2**32 + 5]) | st.integers(0, 2**40)
# keys of one entropy word and of two, either side of the word boundary,
# plus random values
_KEYS = st.sampled_from([0, 2**32 - 25, 2**32, 2**40]) | \
    st.integers(0, 2**70)


def test_negative_seeds_streams_and_keys_are_rejected_on_both_paths():
    assert issubclass(NumericsError, ValueError)
    for call in (lambda: RngState(7).split(-1),
                 lambda: RngState(-7).split(0),
                 lambda: RngState(7, -1).split(0),
                 lambda: RngState(-1).generator(),
                 lambda: RngState(7, -1).generator(),
                 lambda: draw_rademacher(RngState(-1), 3, 2)):
        with pytest.raises(NumericsError, match="non-negative"):
            call()
    # neither path takes a non-integer key, seed or stream
    with pytest.raises(TypeError):
        RngState(7).split(1.5)
    for call in (lambda: RngState(1.5).generator(),
                 lambda: draw_rademacher(RngState(7, 1.5), 3, 2)):
        with pytest.raises(NumericsError, match="integers"):
            call()


def _numpy_generator(seed, *spawn_key):
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=spawn_key))


@given(_SEEDS, _STREAMS, _KEYS, st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_streams_are_numpys_own_seedsequence_and_default_rng(seed, stream, key,
                                                             d, s):
    """Each path gives the bits numpy's SeedSequence and default_rng give
    the same integers, not only the bits of the package's other path."""
    root = RngState(seed, stream)
    ref = np.random.SeedSequence(seed, spawn_key=(stream, key))
    assert root.split(key).seed == int(ref.generate_state(1, np.uint64)[0])
    signs = 2.0 * _numpy_generator(seed, stream).integers(
        0, 2, size=(s, d)) - 1.0
    assert np.array_equal(draw_rademacher(root, d, s).probes, signs)
    assert np.array_equal(root.generator().random(4),
                          _numpy_generator(seed, stream).random(4))


def test_threads_drawing_at_once_get_the_bits_of_a_serial_run():
    """Each draw builds its own bit generator and shares no state with other
    calls, so probes drawn on several threads at once are those of a serial
    run."""
    roots = [RngState(11, 0), RngState(2**70 + 3, 5), RngState(0, 2**33)]
    n = 200

    def run(root):
        return [(draw_rademacher(root.split(i), 7, 9).probes,
                 draw_rademacher(root.split(i + 1), 3, 5).probes)
                for i in range(n)]

    serial = [run(root) for root in roots]
    start = threading.Barrier(len(roots))
    got = [None] * len(roots)

    def worker(k):
        start.wait()
        got[k] = run(roots[k])

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(len(roots))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between seeding and draw
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for ref, res in zip(serial, got):
        assert len(res) == n
        for draws_ref, draws in zip(ref, res):
            for a, b in zip(draws_ref, draws):
                assert np.array_equal(a, b)


@given(st.integers(1, 70), st.integers(1, 70), _SEEDS, _STREAMS)
@example(d=1, s=1, seed=0, stream=0)
@example(d=3, s=5, seed=2**64 - 1, stream=3)
@settings(max_examples=60, deadline=None)
def test_probes_are_signs(d, s, seed, stream):
    """The signs read from raw bits are those of ``integers(0, 2)``, bit for
    bit, odd S*d included."""
    rng = RngState(seed, stream)
    probes = draw_rademacher(rng, d, s)
    ref = 2.0 * rng.generator().integers(0, 2, size=(s, d)) - 1.0
    assert probes.probes.dtype == np.float64
    assert probes.probes.shape == (s, d)
    assert np.array_equal(probes.probes, ref)
    assert probes.count == s and probes.dim == d


def test_probe_validation():
    # draw_rademacher builds its sets without the entry scan; any other
    # caller's entries are still checked
    for bad in ([[0.5, 1.0]], [[1.0, -1.0], [1.0, np.nan]]):
        with pytest.raises(NumericsError):
            ProbeSet(probes=np.array(bad), seed=None)
    with pytest.raises(NumericsError):
        draw_rademacher(RngState(0), 0, 4)
    with pytest.raises(NumericsError):
        draw_rademacher(RngState(0), 4, 0)


def test_exhaustive_probes_enumerate_all_signs():
    p = exhaustive_sign_probes(3)
    assert p.probes.shape == (8, 3)
    assert len({tuple(row) for row in p.probes}) == 8
    with pytest.raises(NumericsError):
        exhaustive_sign_probes(17)


def test_exhaustive_probes_give_exact_diagonal():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    probes = exhaustive_sign_probes(4)
    diag = hutchinson_diagonal(probes.probes @ A.T, probes)
    assert np.allclose(diag, np.diag(A), atol=1e-12)
    tr = float(hutchinson_diagonal(probes.probes @ A.T, probes).sum())
    assert tr == pytest.approx(np.trace(A), abs=1e-12)
    # a product block of another shape than the probes' is refused
    with pytest.raises(NumericsError, match="products of shape"):
        hutchinson_diagonal(probes.probes[:-1] @ A.T, probes)


def test_trace_equals_diagonal_sum_exactly():
    # shared probes: the scalar must be the literal sum of the diagonal
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    probes = draw_rademacher(RngState(5), 6, 11)
    diag = hutchinson_diagonal(probes.probes @ A.T, probes)
    tr = float(hutchinson_diagonal(probes.probes @ A.T, probes).sum())
    assert tr == float(diag.sum())


def test_hutchinson_unbiased_on_linear_map():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((8, 8))
    ests = []
    for r in range(500):
        probes = draw_rademacher(RngState(100).split(r), 8, 8)
        ests.append(float(hutchinson_diagonal(probes.probes @ A.T,
                                              probes).sum()))
    ests = np.asarray(ests)
    se = ests.std(ddof=1) / np.sqrt(len(ests))
    assert abs(ests.mean() - np.trace(A)) < 4 * se


def test_finite_diff_jvp_on_quadratic():
    def f(x):
        return np.atleast_2d(x) ** 2 @ np.ones((3, 1)) * np.ones(3)

    x = np.array([1.0, -2.0, 0.5])
    u = np.array([0.3, 0.1, -0.7])
    got = finite_diff_jvp(lambda z: np.asarray(z) ** 2, x, u)
    assert np.allclose(got, 2 * x * u, atol=1e-8)


def test_finite_diff_rejects_nonfinite():
    def bad(x):
        return np.full_like(x, np.nan)

    with pytest.raises(NumericsError, match="non-finite"):
        finite_diff_jvp(bad, np.ones(2), np.ones(2))


def test_split_takes_integer_keys_only():
    root = RngState(7, 3)
    # keys SeedSequence would coerce are refused
    for key in ("12", (1, 2), 1.5, None, np.float64(2.0)):
        with pytest.raises(NumericsError, match="integers"):
            root.split(key)
    # integer-like keys give the bits of the plain int
    for key in (np.int64(5), np.uint32(5), np.int8(5)):
        assert root.split(key) == root.split(5)
    assert root.split(True) == root.split(1)
    # the bits numpy's SeedSequence gave these keys before the check
    assert root.split(5).seed == 2996089601602301123
    assert root.split(2**40).seed == 6910379499768356869


def _numpy_child(seed, stream, key):
    return int(np.random.SeedSequence(seed, spawn_key=(stream, key))
               .generate_state(1, np.uint64)[0])


def test_memoised_parent_pools_split_into_numpys_children():
    # one-word keys of int parents inside the seed pad and one stream word
    # take the memo; the rest take the whole derivation; all are numpy's
    for seed in (0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128):
        for stream in (0, 2**32 - 1, 2**32):
            parent = RngState(seed, stream)
            for key in (0, 1, 2**32 - 1, 2**32, np.uint64(7),
                        np.uint64(2**32), True, False):
                want = _numpy_child(seed, stream, int(key))
                # the first split may fill the memo, the second reads it
                assert parent.split(key).seed == want
                assert parent.split(key).seed == want
    # more parents than the memo holds evict the first, which is then
    # derived again, to the same child
    first = RngState(11, 3)
    want = _numpy_child(11, 3, 5)
    assert first.split(5).seed == want
    size = _parent_pool.cache_info().maxsize
    for seed in range(1000, 1000 + size + 1):
        assert RngState(seed).split(5).seed == _numpy_child(seed, 0, 5)
    misses = _parent_pool.cache_info().misses
    assert first.split(5).seed == want
    assert _parent_pool.cache_info().misses == misses + 1
    assert first.split(6).seed == _numpy_child(11, 3, 6)
    assert _parent_pool.cache_info().misses == misses + 1
    # negative and float keys, and negative parents, keep their lines
    for call, line in (
            (lambda: RngState(7).split(-1), "non-negative, got -1"),
            (lambda: RngState(-7).split(0), "non-negative, got -7"),
            (lambda: RngState(7, -2).split(0), "non-negative, got -2"),
            (lambda: RngState(7).split(1.5), "integers, got 1.5"),
            (lambda: RngState(1.5).split(0), "integers, got 1.5")):
        for _ in range(2):
            with pytest.raises(NumericsError) as err:
                call()
            assert str(err.value) == f"seed, stream and key must be {line}"
