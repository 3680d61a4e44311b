import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowvar.models import (AnalyticField, EvalCounter, MlpArch, MlpVelocity,
                            ModelError, ModelField, StepBuffers,
                            analytic_handle, load_model, save_model,
                            time_features)
from flowvar.numerics import RngState, finite_diff_jvp
from flowvar.oracle import GmmSpec, optimal_velocity


def _model(dim=3, **kw):
    return MlpVelocity.init(MlpArch(dim=dim, **kw), RngState(11))


def test_time_features_values():
    f = time_features(0.5, 2).ravel()
    # frequencies 2^j pi t for j = 0, 1
    expected = [np.sin(np.pi * 0.5), np.cos(np.pi * 0.5),
                np.sin(2 * np.pi * 0.5), np.cos(2 * np.pi * 0.5)]
    assert np.allclose(f, expected, atol=1e-12)
    assert time_features(0.3, 8).shape == (1, 16)


def test_time_features_are_fresh_and_writable():
    m = _model()
    m.weights[-1][:] = RngState(20).generator().standard_normal(
        m.weights[-1].shape)
    x = np.array([0.5, 0.1, -0.4])
    before = m.velocity(x, 0.37)
    for t in (0.37, np.array([0.37, 0.5])):
        a, b = time_features(t, 8), time_features(t, 8)
        assert a.flags.writeable and not np.shares_memory(a, b)
        a[:] = 99.0
        assert np.array_equal(time_features(t, 8), b)
    assert np.array_equal(m.velocity(x, 0.37), before)


def _concatenated_row(x, t, n_freq):
    """The input rows as [x, time_features(t)], one time row broadcast."""
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    emb = time_features(t, n_freq)
    return np.concatenate(
        [x2, np.broadcast_to(emb, (x2.shape[0], emb.shape[1]))], axis=1)


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.sampled_from((1, 8)))
@example(t=1e-3, n_freq=1)
@example(t=1.0 - 1e-3, n_freq=8)
@settings(max_examples=100, deadline=None)
def test_scalar_time_row_is_time_features_bit_for_bit(t, n_freq):
    m = _model(dim=2, n_freq=n_freq)
    x = np.array([0.25, -1.5])
    for xi in (x, x[None, :]):
        feats = m.forward_cache(xi, t)[1]["inputs"][0]
        assert np.array_equal(feats, _concatenated_row(x, t, n_freq))


@pytest.mark.parametrize("n_freq", [1, 8])
def test_euler_grid_rows_are_time_features_bit_for_bit(n_freq):
    m = _model(dim=2, n_freq=n_freq)
    x = np.array([0.25, -1.5])
    for t in np.arange(1000) / 1000:  # np.float64, as euler_generate steps
        assert np.array_equal(m.forward_cache(x, t)[1]["inputs"][0],
                              _concatenated_row(x, t, n_freq)), t


def test_array_times_and_batches_keep_the_concatenated_rows():
    m = _model()
    m.weights[-1][:] = RngState(20).generator().standard_normal(
        m.weights[-1].shape)
    g = RngState(6).generator()
    x1, xs = g.standard_normal(3), g.standard_normal((5, 3))
    ts = g.uniform(0.01, 0.99, 5)
    for x, t in ((xs, ts), (xs, 0.37), (xs, np.float64(0.37)),
                 (x1, np.array([0.37])), (x1, np.asarray(0.37)), (x1, 0)):
        assert np.array_equal(m.forward_cache(x, t)[1]["inputs"][0],
                              _concatenated_row(x, t, 8)), t
    # the whole pass: a scalar time and a one-element time array agree
    for t in (0.37, np.float64(0.37)):
        assert np.array_equal(m.velocity(x1, t),
                              m.velocity(x1, np.array([t])))
        assert np.array_equal(m.velocity(x1[None, :], t),
                              m.velocity(x1[None, :], np.array([t])))


def _padded_tangent(model, cache, u):
    """The tangent pass as a zero time tangent padded onto u."""
    arch = model.arch
    du = np.concatenate([u, np.zeros((u.shape[0], 2 * arch.n_freq))], axis=1)
    for i in range(arch.depth):
        du = du @ model.weights[i].T
        z, h = cache["pre"][i], cache["post"][i]
        du *= (1.0 - h * h) if arch.activation == "tanh" else (z > 0.0)
        if cache["masks"] is not None:
            du *= cache["masks"][i]
    return du @ model.weights[-1].T


@pytest.mark.parametrize("dim", [1, 2, 64])
@pytest.mark.parametrize("n_freq", [1, 8])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_x_column_first_layer_is_the_zero_padded_pass(dim, n_freq, activation,
                                                      dropout):
    m = _model(dim=dim, n_freq=n_freq, activation=activation,
               dropout=dropout)
    m.weights[-1][:] = RngState(20).generator().standard_normal(
        m.weights[-1].shape)
    g = RngState(5).generator()
    rng = RngState(9) if dropout else None
    # a batch-1 cache against 64 tangents, and a per-row cache against one
    # tangent per row
    x1, u1 = g.standard_normal((1, dim)), g.choice([-1.0, 1.0], (64, dim))
    xs, us = g.standard_normal((16, dim)), g.standard_normal((16, dim))
    for x, t, u in ((x1, 0.4, u1), (xs, g.uniform(0.01, 0.99, 16), us)):
        _, cache = m.forward_cache(x, t, rng)
        assert (cache["masks"] is None) == (not dropout)
        assert np.array_equal(m.tangent(cache, u),
                              _padded_tangent(m, cache, u))


def test_arch_validation():
    with pytest.raises(ModelError):
        MlpArch(dim=0)
    with pytest.raises(ModelError):
        MlpArch(dim=2, activation="sigmoid")
    with pytest.raises(ModelError):
        MlpArch(dim=2, dropout=1.0)


def test_init_deterministic_and_zero_field():
    a = _model()
    b = MlpVelocity.init(MlpArch(dim=3), RngState(11))
    assert a.checksum() == b.checksum()
    # zero output head: the freshly initialized field is identically zero
    x = RngState(1).generator().standard_normal((4, 3))
    assert np.allclose(a.velocity(x, 0.3), 0.0)
    c = MlpVelocity.init(MlpArch(dim=3), RngState(12))
    assert a.checksum() != c.checksum()


def test_velocity_batch_matches_single():
    m = _model()
    xs = RngState(2).generator().standard_normal((5, 3))
    batch = m.velocity(xs, 0.4)
    for i in range(5):
        assert np.allclose(batch[i], m.velocity(xs[i], 0.4), atol=1e-12)


def test_velocity_rejects_wrong_dim():
    m = _model()
    with pytest.raises(ModelError, match="dim"):
        m.velocity(np.zeros(4), 0.5)


def test_forward_diverged_message():
    m = _model()
    m.weights[0][:] = 1e300
    m.weights[-1][:] = 1e300
    with pytest.raises(ModelError, match="forward pass diverged"):
        m.velocity(np.full(3, 1e300), 0.5)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_tangent_matches_finite_difference(activation):
    m = _model(activation=activation, hidden=32)
    g = RngState(3).generator()
    x = g.standard_normal(3)
    u = g.standard_normal(3)
    _, ju = m.value_and_jvp(x, 0.37, u[None, :])
    fd = finite_diff_jvp(lambda z: m.velocity(z, 0.37), x, u)
    assert np.allclose(ju[0], fd, rtol=1e-5, atol=1e-7)


def test_tangent_linearity():
    m = _model()
    g = RngState(4).generator()
    x = g.standard_normal(3)
    u, w = g.standard_normal(3), g.standard_normal(3)
    _, j = m.value_and_jvp(x, 0.5, np.stack([u, w, 2 * u + 3 * w]))
    assert np.allclose(2 * j[0] + 3 * j[1], j[2], atol=1e-10)


def test_jacobian_consistent_with_jvp():
    m = _model()
    x = RngState(5).generator().standard_normal(3)
    J = m.jacobian(x, 0.6)
    _, cols = m.value_and_jvp(x, 0.6, np.eye(3))
    assert np.allclose(J, cols.T, atol=1e-12)


def test_backward_gradients_match_finite_difference():
    m = _model(hidden=16)
    g = RngState(6).generator()
    x = g.standard_normal((4, 3))
    dout = g.standard_normal((4, 3))

    out, cache = m.forward_cache(x, 0.45)
    grads_w, grads_b = m.backward(cache, dout)

    def loss(model):
        return float((model.velocity(x, 0.45) * dout).sum())

    h = 1e-6
    for li in (0, len(m.weights) - 1):
        w = m.weights[li]
        idx = (0, 0)
        orig = w[idx]
        w[idx] = orig + h
        up = loss(m)
        w[idx] = orig - h
        dn = loss(m)
        w[idx] = orig
        fd = (up - dn) / (2 * h)
        assert grads_w[li][idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_dropout_determinism_and_rate_zero():
    m = _model(dropout=0.3)
    # the zero-init head maps every mask to zero output; randomize it so
    # mask differences become visible
    m.weights[-1][:] = RngState(20).generator().standard_normal(
        m.weights[-1].shape)
    x = RngState(7).generator().standard_normal(3)
    a = m.velocity(x, 0.5, dropout_rng=RngState(9))
    b = m.velocity(x, 0.5, dropout_rng=RngState(9))
    c = m.velocity(x, 0.5, dropout_rng=RngState(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # without a dropout rng the pass is deterministic (inference mode)
    assert np.array_equal(m.velocity(x, 0.5), m.velocity(x, 0.5))

    m0 = _model(dropout=0.0)
    m0.weights[-1][:] = RngState(20).generator().standard_normal(
        m0.weights[-1].shape)
    assert np.array_equal(m0.velocity(x, 0.5, dropout_rng=RngState(9)),
                          m0.velocity(x, 0.5))


def test_per_row_dropout_streams_draw_the_batch_one_masks():
    m = _model(hidden=32, dropout=0.3)
    m.weights[-1][:] = RngState(20).generator().standard_normal(
        m.weights[-1].shape)
    x = np.array([0.5, 0.1, -0.4])
    streams = [RngState(4).split(p) for p in range(5)]
    out, cache = m.forward_cache(x, 0.6, streams)
    assert out.shape == (5, 3)
    for p, s in enumerate(streams):
        one, one_cache = m.forward_cache(x, 0.6, s)
        for mask, mask1 in zip(cache["masks"], one_cache["masks"]):
            assert np.array_equal(mask[p], mask1[0])
        np.testing.assert_allclose(out[p], one[0], rtol=1e-12, atol=1e-15)
    # one input row per stream works too; any other batch size does not
    rows = np.stack([x] * 5)
    np.testing.assert_allclose(m.velocity(rows, 0.6, streams), out,
                               rtol=1e-12, atol=1e-15)
    with pytest.raises(ModelError, match="dropout streams"):
        m.velocity(rows[:2], 0.6, streams)


def test_eval_counter_conventions():
    counter = EvalCounter()
    field = ModelField(_model(), counter)
    x = np.zeros(3)
    field.velocity(np.zeros((4, 3)), 0.5)
    assert counter.forwards == 4
    field.value_and_jvp(x, 0.5, np.ones((5, 3)))
    assert counter.forwards == 5 and counter.jvps == 5
    field.jvp(x, 0.5, np.ones((2, 3)))
    assert counter.jvps == 7
    # fused batch convention: jvp() bills tangents only
    assert counter.forward_equivalents == 12


def test_analytic_field_matches_oracle():
    spec = GmmSpec.isotropic([[0.0, 0.0], [2.0, 1.0]], 0.5)
    counter = EvalCounter()
    field = analytic_handle(spec, counter)
    assert isinstance(field, AnalyticField)
    xt = np.array([0.4, 0.2])
    assert np.allclose(field.velocity(xt, 0.5),
                       optimal_velocity(spec, xt, 0.5), atol=1e-12)
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    ju = field.jvp(xt, 0.5, u)
    fd = np.stack([
        finite_diff_jvp(lambda z: optimal_velocity(spec, z, 0.5), xt, u[i])
        for i in range(2)
    ])
    assert np.allclose(ju, fd, atol=1e-6)
    assert counter.jvps == 2


def test_save_load_roundtrip(tmp_path):
    m = _model(dim=4, hidden=16, dropout=0.2)
    p = tmp_path / "m.fvar"
    save_model(p, m)
    m2 = load_model(p)
    assert m2.arch == m.arch
    assert m2.checksum() == m.checksum()
    x = RngState(8).generator().standard_normal(4)
    assert np.array_equal(m.velocity(x, 0.7), m2.velocity(x, 0.7))


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "junk.fvar"
    p.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ModelError, match="container"):
        load_model(p)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """The bytes of a small valid container and a scratch path to write to."""
    root = tmp_path_factory.mktemp("container")
    save_model(root / "m.fvar", _model(dim=2, hidden=3, depth=2, n_freq=1,
                                      dropout=0.1))
    return (root / "m.fvar").read_bytes(), root / "damaged.fvar"


def test_every_truncated_container_raises_model_error(container):
    blob, path = container
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ModelError):
            load_model(path)
    path.write_bytes(blob[:42])  # magic, header and dropout rate are whole
    with pytest.raises(ModelError, match="truncated container: layer count"):
        load_model(path)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_flipped_byte_raises_model_error_or_loads(container, data):
    blob, path = container
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    flip = data.draw(st.integers(1, 255), label="xor")
    damaged = bytearray(blob)
    damaged[pos] ^= flip
    path.write_bytes(bytes(damaged))
    try:
        model = load_model(path)
    except ModelError:
        return
    assert model.n_params == _model(dim=2, hidden=3, depth=2,
                                    n_freq=1).n_params


# ---- flat parameter vector ---------------------------------------------------
# The parameters are one contiguous vector; the per-layer code below is how
# the checksum and the container were computed before, one array at a time.


def _reference_checksum(model):
    h = hashlib.sha256()
    for w, b in zip(model.weights, model.biases):
        h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return h.hexdigest()


def _reference_payload(model):
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for wb in zip(model.weights, model.biases) for a in wb)


def _reference_load_params(blob, model):
    """Per-layer frombuffer reads of a container's parameter block."""
    off = len(blob) - 8 * model.n_params
    out = []
    for rows, cols in model.arch.layer_shapes():
        for count in (rows * cols, rows):
            out.append(np.frombuffer(blob, dtype="<f8", count=count,
                                     offset=off))
            off += 8 * count
    return out


def _dyadic_model():
    """A model whose parameters are exact binary fractions, so its bytes do
    not depend on the platform's math library."""
    m = _model(dim=2, hidden=3, depth=2, n_freq=1, dropout=0.1)
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        w[:] = ((np.arange(w.size) - 3.5 + 10 * i) / 8).reshape(w.shape)
        b[:] = -(np.arange(b.size) + 0.25 * i) / 4
    return m


def test_layer_arrays_are_views_of_the_flat_vector():
    m = _model(dim=3, hidden=5, depth=2)
    assert m.params.flags.c_contiguous and m.params.dtype == np.float64
    assert m.params.size == m.n_params == m.arch.n_params
    off = 0
    for w, b in zip(m.weights, m.biases):
        assert np.shares_memory(w, m.params) and np.shares_memory(b, m.params)
        w[:] = 1.5
        b[:] = -2.0
        assert np.all(m.params[off:off + w.size] == 1.5)
        off += w.size
        assert np.all(m.params[off:off + b.size] == -2.0)
        off += b.size
    m.weights[0][1, 2] += 0.25
    assert m.params[1 * m.weights[0].shape[1] + 2] == 1.75
    c = m.copy()
    assert not np.shares_memory(c.params, m.params)
    assert np.shares_memory(c.weights[0], c.params)
    assert c.checksum() == m.checksum()
    # what a pass reads (tangent views, clock) follows in-place writes too
    m.params[:] = RngState(21).generator().standard_normal(m.n_params) / 4
    fresh = MlpVelocity.from_params(m.arch, m.params.copy())
    x, u = np.array([0.5, 0.1, -0.4]), RngState(22).generator().choice(
        [-1.0, 1.0], (8, 3))
    for t in (0.37, np.array([0.37])):
        for got, ref in zip(m.value_and_jvp(x, t, u),
                            fresh.value_and_jvp(x, t, u)):
            assert np.array_equal(got, ref)


def test_checksum_and_container_match_the_per_layer_code(tmp_path):
    # a committed container: these digests were taken from the per-layer code
    m = _dyadic_model()
    save_model(tmp_path / "m.fvar", m)
    blob = (tmp_path / "m.fvar").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "74c5e6b1407d9c7da3d148ff58fe6e5eef312326e09693e1cb3debd6630f64c4")
    assert m.checksum() == (
        "1799edf96523ed13447dba7b122c03e13483dbcde9f16a082ae872993ccc1556")
    # freshly written containers of random models, with and without dropout
    for arch in (MlpArch(dim=4, hidden=16, depth=3, dropout=0.2),
                 MlpArch(dim=64, hidden=32, activation="relu")):
        m = MlpVelocity.init(arch, RngState(3))
        m.params[:] = RngState(4).generator().standard_normal(m.n_params)
        assert m.checksum() == _reference_checksum(m)
        save_model(tmp_path / "r.fvar", m)
        blob = (tmp_path / "r.fvar").read_bytes()
        assert blob.endswith(_reference_payload(m))
        loaded = load_model(tmp_path / "r.fvar")
        assert loaded.params.flags.writeable
        for a, b in zip([a for wb in zip(loaded.weights, loaded.biases)
                         for a in wb], _reference_load_params(blob, m)):
            assert a.tobytes() == b.tobytes()
        assert loaded.checksum() == m.checksum() == _reference_checksum(loaded)
        save_model(tmp_path / "again.fvar", loaded)
        assert (tmp_path / "again.fvar").read_bytes() == blob


def test_from_params_rejects_a_wrong_vector():
    arch = MlpArch(dim=2, hidden=3)
    for bad in (np.zeros(arch.n_params - 1), np.zeros(arch.n_params, np.float32),
                np.zeros((arch.n_params, 2))[:, 0], [0.0] * arch.n_params):
        with pytest.raises(ModelError, match="parameters"):
            MlpVelocity.from_params(arch, bad)
    flat = np.arange(arch.n_params, dtype=np.float64)
    assert MlpVelocity.from_params(arch, flat).params is flat


def test_backward_writes_into_a_flat_gradient_buffer():
    m = _model(dim=3, hidden=5)
    x = RngState(5).generator().standard_normal((4, 3))
    out, cache = m.forward_cache(x, 0.3)
    dout = np.ones_like(out)
    d_ws, d_bs = m.backward(cache, dout)
    buf = np.full(m.n_params, np.nan)
    b_ws, b_bs = m.backward(cache, dout, out=buf)
    assert not np.isnan(buf).any()
    for a, b in zip(d_ws + d_bs, b_ws + b_bs):
        assert np.shares_memory(b, buf) and np.array_equal(a, b)
    with pytest.raises(ModelError, match="gradient buffer"):
        m.backward(cache, dout, out=np.empty(m.n_params + 1))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_step_buffers_give_the_bits_of_fresh_arrays(activation, dropout):
    """A training pass written into buffers of 10 rows gives the bits of one
    in fresh arrays, for a full batch and a short one, pass after pass."""
    m = _model(dim=4, hidden=16, depth=3, activation=activation,
               dropout=dropout)
    m.weights[-1][:] = RngState(2).generator().standard_normal(
        m.weights[-1].shape)
    bufs = StepBuffers(m.arch, 10)
    g = RngState(3).generator()
    for rows in (10, 7, 10):
        x, dout = g.standard_normal((2, rows, 4))
        t = g.uniform(0.1, 0.9, size=rows)
        out, cache = m.forward_cache(x, t, RngState(rows))
        ref = m.backward(cache, dout)
        got_out, got_cache = m.forward_cache(x, t, RngState(rows), bufs=bufs)
        got = m.backward(got_cache, dout, bufs=bufs)
        assert got_out.tobytes() == out.tobytes()
        for a, b in zip(ref[0] + ref[1], got[0] + got[1]):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(ModelError, match="buffers of 10 rows"):
        m.forward_cache(np.zeros((11, 4)), 0.5, bufs=bufs)
