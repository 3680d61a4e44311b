import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowvar.models import (AnalyticField, EvalCounter, MlpArch, MlpVelocity,
                            ModelError, ModelField, StepBuffers,
                            analytic_handle, load_model, save_model,
                            time_features)
from flowvar.numerics import RngState
from flowvar.oracle import GmmSpec, optimal_velocity_batch

from refs import finite_diff_jvp, step_buffers


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
        feats = m.forward_cache(xi, t, None, step_buffers(m))[1]["inputs"][0]
        assert np.array_equal(feats, _concatenated_row(x, t, n_freq))


@pytest.mark.parametrize("n_freq", [1, 8])
def test_euler_grid_rows_are_time_features_bit_for_bit(n_freq):
    m = _model(dim=2, n_freq=n_freq)
    x = np.array([0.25, -1.5])
    for t in np.arange(1000) / 1000:  # np.float64, as euler_generate steps
        assert np.array_equal(
            m.forward_cache(x, t, None, step_buffers(m))[1]["inputs"][0],
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
        assert np.array_equal(
            m.forward_cache(x, t, None, step_buffers(m, 5))[1]["inputs"][0],
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
    return du @ model.weights[-1].T


@pytest.mark.parametrize("dim", [1, 2, 64])
@pytest.mark.parametrize("n_freq", [1, 8])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_x_column_first_layer_is_the_zero_padded_pass(dim, n_freq, activation,
                                                      dropout):
    def model(hidden):
        m = _model(dim=dim, hidden=hidden, n_freq=n_freq,
                   activation=activation, dropout=dropout)
        m.weights[-1][:] = RngState(20).generator().standard_normal(
            m.weights[-1].shape)
        return m

    g = RngState(5).generator()
    x1, t1 = g.standard_normal((1, dim)), 0.4
    signs = g.choice([-1.0, 1.0], (dim + 50, dim))
    wide = model(128)
    # the m-row pass, bit for bit: fewer than d tangents, one 1-D tangent
    # and d > hidden; velocity and jvp run without dropout at any rate
    blocks = [(wide, signs[:dim - 1])]
    if dim > 1:
        blocks += [(wide, signs[0]), (model(dim - 1), signs)]
    for m, u in blocks:
        out, cache = m.forward_cache(x1, t1, None, step_buffers(m))
        assert m.velocity(x1[0], t1).tobytes() == out[0].tobytes()
        ju = m.jvp(x1[0], t1, u)
        ref = _padded_tangent(m, cache, np.atleast_2d(u))
        assert ju.tobytes() == (ref if u.ndim == 2 else ref[0]).tobytes()
    # jvp on a block of m >= d tangents, at d <= hidden, is u @ J^T
    jac = wide.jacobian(x1, t1)
    _, cache = wide.forward_cache(x1, t1, None, step_buffers(wide))
    for u in (signs[:dim], signs):
        ju = wide.jvp(x1[0], t1, u)
        assert np.array_equal(ju, u @ jac.T)
        ref = _padded_tangent(wide, cache, u)
        assert np.abs(ju - ref).max() <= 1e-13 * np.abs(ref).max()
    field = ModelField(wide)
    field.jvp(x1[0], t1, signs)
    assert field.counter.jvps == dim + 50


def _reference_row(model, x, t):
    """The one-row pass restated: (1, k) products through the layers, with
    the basis block a C-order copy of W0's x columns, transposed, scaled by
    each activation derivative. Returns (v, J^T)."""
    arch = model.arch
    h = np.concatenate([np.reshape(x, (1, -1)),
                        time_features(t, arch.n_freq)], axis=1)
    basis = np.ascontiguousarray(model.weights[0][:, :arch.dim].T)
    for i in range(arch.depth):
        z = h @ model.weights[i].T + model.biases[i]
        h = np.tanh(z) if arch.activation == "tanh" else np.maximum(z, 0.0)
        if i > 0:
            basis = basis @ model.weights[i].T
        basis = basis * ((1.0 - h * h) if arch.activation == "tanh"
                         else (z > 0.0))
    return ((h @ model.weights[-1].T + model.biases[-1])[0],
            basis @ model.weights[-1].T)


@pytest.mark.parametrize("dim,hidden", [
    (d, h) for d in (1, 2, 3, 8, 64) for h in sorted({d - 1, d, 128}) if h])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_one_row_pass_is_the_batch_one_arithmetic_bit_for_bit(dim, hidden,
                                                              activation):
    g = RngState(5).generator()
    x = g.standard_normal(dim)
    signs = g.choice([-1.0, 1.0], (dim + 50, dim))
    for depth in (1, 2, 3):
        m = _model(dim=dim, hidden=hidden, depth=depth, activation=activation)
        m.params[:] = RngState(4).generator().standard_normal(m.n_params)
        m.params /= np.sqrt(m.arch.in_dim)
        _, cache = m.forward_cache(x, 0.37, None, step_buffers(m))
        for t in (0.37, np.float64(0.37)):
            v, jt = _reference_row(m, x, t)
            assert m.velocity(x, t).tobytes() == v.tobytes()
            assert m.jacobian(x, t).tobytes() == jt.T.tobytes()
            # fewer than d tangents, and d > hidden, take the m-row pass
            for u in (signs[:dim - 1], signs[:dim], signs):
                ju = m.jvp(x, t, u)
                ref = (u @ jt if dim <= hidden and len(u) >= dim
                       else _padded_tangent(m, cache, u))
                assert ju.tobytes() == ref.tobytes(), (depth, len(u))


def test_one_row_pass_keeps_its_checks():
    # a tangent of the wrong length is refused on either route: in a block
    # of m >= d at d <= hidden, in fewer rows, and at d > hidden
    for m, u in ((_model(), np.ones((5, 4))), (_model(), np.ones((2, 4))),
                 (_model(), np.ones(2)), (_model(hidden=2), np.ones((5, 4)))):
        with pytest.raises(ModelError, match=r"tangent dim \d != model dim 3"):
            m.jvp(np.zeros(3), 0.5, u)
    m = _model()
    u = np.ones((5, 3))
    for call in (lambda x: m.velocity(x, 0.5), lambda x: m.jacobian(x, 0.5),
                 lambda x: m.jvp(x, 0.5, u)):
        with pytest.raises(ModelError, match="x dim 4 != model dim 3"):
            call(np.zeros(4))
        m.weights[0][:] = 1e300
        with pytest.raises(ModelError, match="non-finite activations"):
            call(np.full(3, 1e300))
        with pytest.raises(ModelError, match="non-finite activations"):
            call(np.array([np.nan, 0.0, 0.0]))
        m.weights[0][:] = 0.1
        m.weights[-1][:] = 1e308
        with pytest.raises(ModelError, match="non-finite output"):
            call(np.ones(3))
        m.weights[-1][:] = 0.0
    # finite activations whose squares overflow pass, silently
    m.weights[0][:] = 1e200
    m.weights[-1][:] = 1.0
    x = np.ones(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = m.velocity(x, 0.5)
        jac = m.jacobian(x, 0.5)
    assert v.tobytes() == m.forward_cache(x, 0.5, None,
                                          step_buffers(m))[0][0].tobytes()
    assert np.isfinite(jac).all()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_one_row_entry_takes_any_row_and_scalar_time(activation):
    m = _model(dim=3, activation=activation)
    m.params[:] = RngState(4).generator().standard_normal(m.n_params) / 4.0
    g = RngState(9).generator()
    wide = g.standard_normal((3, 6))
    x = wide[1, ::2].copy()
    rows = (x.tolist(), np.array([1, -2, 3]), x.astype(np.float32),
            x[None, :], wide[1, ::2], wide[1:2, ::2])
    times = (0, 1, 0.37, np.float64(0.37), np.float32(0.37), np.asarray(0.37))
    u = g.choice([-1.0, 1.0], (5, 3))
    for xi in rows:
        for t in times:
            ref = m.forward_cache(xi, t, None, step_buffers(m))[0][0]
            x64, t64 = np.ravel(np.asarray(xi, dtype=np.float64)), float(t)
            assert m.velocity(x64, t64).tobytes() == ref.tobytes(), (xi, t)
            assert (m.jvp(xi, t, u).tobytes()
                    == m.jvp(x64, t64, u).tobytes())
            assert (m.jacobian(xi, t).tobytes()
                    == m.jacobian(x64, t64).tobytes())
            if np.ndim(xi) < 2:
                assert m.velocity(xi, t).tobytes() == ref.tobytes()
    # each refusal is forward_cache's line for the same row
    bad = ((np.zeros(4), 0.5), (np.zeros((1, 4)), 0.5), (0.0, 0.5),
           (x, np.ones((1, 1))), (x, np.ones(2)), (x, np.ones(0)),
           (x, np.inf), (x, np.array(np.nan)), (x, np.float32(-np.inf)))
    for xi, t in bad:
        with pytest.raises(ModelError) as batch:
            m.forward_cache(np.atleast_2d(xi), t, None, step_buffers(m))
        for call in (lambda: m.velocity(xi, t), lambda: m.jacobian(xi, t),
                     lambda: m.jvp(xi, t, u)):
            with pytest.raises(ModelError) as one:
                call()
            assert str(one.value) == str(batch.value), (xi, t)


def test_non_finite_time_is_one_line_with_no_warning():
    m = _model()
    for t in (np.inf, -np.inf, np.nan):
        for call in (lambda: m.velocity(np.ones(3), t),
                     lambda: m.velocity(np.ones((4, 3)), t),
                     lambda: m.velocity(np.ones((4, 3)), np.full(4, t)),
                     lambda: m.jvp(np.ones(3), t, np.ones((5, 3))),
                     lambda: m.jvp(np.ones(3), t, np.ones(3))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ModelError) as err:
                    call()
            assert str(err.value) == f"time must be finite, got {t}"


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
    """A batch's velocities are the training step's forward pass bit for
    bit, at a scalar time and at one time per row; a batch of one row is
    the row's velocity."""
    g = RngState(2).generator()
    for depth in (1, 2, 3):
        for activation in ("tanh", "relu"):
            m = _model(depth=depth, activation=activation)
            m.params[:] = g.standard_normal(m.n_params) / 4.0
            for rows in (1, 3, 64):
                xs = g.standard_normal((rows, 3))
                for t in (0.4, g.uniform(0.01, 0.99, rows)):
                    batch = m.velocity(xs, t)
                    ref = m.forward_cache(xs, t, None,
                                          step_buffers(m, rows))[0]
                    assert batch.tobytes() == ref.tobytes(), (depth, rows)
                    if rows == 1:
                        assert (m.velocity(xs[0], t).tobytes()
                                == batch[0].tobytes())


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
    ju = m.jvp(x, 0.37, u[None, :])
    fd = finite_diff_jvp(lambda z: m.velocity(z, 0.37), x, u)
    assert np.allclose(ju[0], fd, rtol=1e-5, atol=1e-7)


def test_tangent_linearity():
    m = _model()
    g = RngState(4).generator()
    x = g.standard_normal(3)
    u, w = g.standard_normal(3), g.standard_normal(3)
    j = m.jvp(x, 0.5, np.stack([u, w, 2 * u + 3 * w]))
    assert np.allclose(2 * j[0] + 3 * j[1], j[2], atol=1e-10)


def test_jacobian_consistent_with_jvp():
    m = _model()
    x = RngState(5).generator().standard_normal(3)
    J = m.jacobian(x, 0.6)
    cols = m.jvp(x, 0.6, np.eye(3))
    assert np.allclose(J, cols.T, atol=1e-12)


def test_backward_gradients_match_finite_difference():
    m = _model(hidden=16)
    g = RngState(6).generator()
    x = g.standard_normal((4, 3))
    dout = g.standard_normal((4, 3))

    bufs = step_buffers(m, 4)
    out, cache = m.forward_cache(x, 0.45, None, bufs)
    grads_w, grads_b = m.backward(cache, dout, np.empty(m.n_params), bufs)

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
    rows = np.stack([x] * 4)
    for call in (lambda rng: m.forward_cache(rows, 0.5, rng,
                                             step_buffers(m, 4))[0],
                 lambda rng: m.dropout_velocities(x, 0.5, 4, rng)):
        a, b, c = call(RngState(9)), call(RngState(9)), call(RngState(10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
    # without a dropout rng the pass is deterministic (inference mode)
    assert np.array_equal(m.velocity(x, 0.5), m.velocity(x, 0.5))

    m0 = _model(dropout=0.0)
    m0.weights[-1][:] = RngState(20).generator().standard_normal(
        m0.weights[-1].shape)
    assert np.array_equal(
        m0.forward_cache(rows, 0.5, RngState(9), step_buffers(m0, 4))[0],
        m0.forward_cache(rows, 0.5, None, step_buffers(m0, 4))[0])
    assert np.array_equal(m0.dropout_velocities(x, 0.5, 4, RngState(9)),
                          np.stack([m0.velocity(x, 0.5)] * 4))


def test_dropout_rng_must_be_a_state():
    """A batch draws its masks from one RngState: anything else, such as
    an array of per-row seeds, is refused on one line, at any rate.
    ``velocity`` never drops out and takes no stream."""
    x = np.array([0.5, 0.1, -0.4])
    for rate in (0.3, 0.0):
        m = _model(hidden=32, dropout=rate)
        for bad in (np.arange(5, dtype=np.uint64), [RngState(4)], 4):
            bufs = step_buffers(m, 5)
            for call in (lambda: m.forward_cache(np.stack([x] * 5), 0.6, bad,
                                                 bufs),
                         lambda: m.forward_cache(x, 0.6, bad, bufs)):
                with pytest.raises(ModelError, match=r"^dropout_rng must be "
                                   r"an RngState or None, got \w+$"):
                    call()
            with pytest.raises(ModelError, match=r"^dropout_rng must be an "
                               r"RngState, got \w+$"):
                m.dropout_velocities(x, 0.6, 5, bad)
        with pytest.raises(ModelError, match=r"^dropout_rng must be an "
                           r"RngState, got NoneType$"):
            m.dropout_velocities(x, 0.6, 5, None)
        with pytest.raises(TypeError):
            m.velocity(x, 0.6, RngState(4))


@pytest.mark.parametrize("rate", [0.15, 1.0 / 3.0, 0.5, 0.9])
def test_dropout_masks_are_the_divided_keep_rule_bit_for_bit(rate):
    """The masks are ``(u < keep) / keep`` of one (depth, rows, hidden)
    uniform draw, bit for bit, in a fresh block (as MC dropout's) and in
    step buffers."""
    m = _model(dim=4, hidden=16, depth=3, dropout=rate)
    bufs = StepBuffers(m.arch, 10)
    keep = 1.0 - rate
    for rows in (10, 7, 1):
        ref = (RngState(rows).generator().random((3, rows, 16)) < keep) / keep
        for u in (np.empty((3, rows, 16)), bufs.masks(rows)):
            got = m._dropout_masks(RngState(rows), u)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_eval_counter_conventions():
    counter = EvalCounter()
    field = ModelField(_model(), counter)
    x = np.zeros(3)
    field.velocity(np.zeros((4, 3)), 0.5)
    assert counter.forwards == 4
    # a tangent block bills its tangents only, not the pass they ride
    field.jvp(x, 0.5, np.ones((5, 3)))
    assert counter.forwards == 4 and counter.jvps == 5
    field.jvp(x, 0.5, np.ones(3))
    assert counter.jvps == 6
    # the dense Jacobian counts its d basis tangents
    field.jacobian(x, 0.5)
    assert counter.forwards == 4 and counter.jvps == 9
    assert counter.forward_equivalents == 13


def test_analytic_field_matches_oracle():
    spec = GmmSpec.isotropic([[0.0, 0.0], [2.0, 1.0]], 0.5)
    counter = EvalCounter()
    field = analytic_handle(spec, counter)
    assert isinstance(field, AnalyticField)
    xt = np.array([0.4, 0.2])
    assert np.allclose(field.velocity(xt, 0.5),
                       optimal_velocity_batch(spec, xt[None], 0.5)[0],
                       atol=1e-12)
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    ju = field.jvp(xt, 0.5, u)
    fd = np.stack([
        finite_diff_jvp(
            lambda z: optimal_velocity_batch(spec, z[None], 0.5)[0], xt, u[i])
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
    fresh = MlpVelocity(m.arch, m.params.copy())
    x, u = np.array([0.5, 0.1, -0.4]), RngState(22).generator().choice(
        [-1.0, 1.0], (8, 3))
    for t in (0.37, np.array([0.37])):
        assert np.array_equal(m.velocity(x, t), fresh.velocity(x, t))
        assert np.array_equal(m.jvp(x, t, u), fresh.jvp(x, t, u))


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
            MlpVelocity(arch, bad)
    flat = np.arange(arch.n_params, dtype=np.float64)
    assert MlpVelocity(arch, flat).params is flat


def test_backward_writes_into_a_flat_gradient_buffer():
    m = _model(dim=3, hidden=5)
    x = RngState(5).generator().standard_normal((4, 3))
    bufs = step_buffers(m, 4)
    out, cache = m.forward_cache(x, 0.3, None, bufs)
    dout = np.ones_like(out)
    d_ws, d_bs = m.backward(cache, dout, np.zeros(m.n_params), bufs)
    buf = np.full(m.n_params, np.nan)
    b_ws, b_bs = m.backward(cache, dout, buf, bufs)
    assert not np.isnan(buf).any()
    for a, b in zip(d_ws + d_bs, b_ws + b_bs):
        assert np.shares_memory(b, buf) and np.array_equal(a, b)
    with pytest.raises(ModelError, match="gradient buffer"):
        m.backward(cache, dout, np.empty(m.n_params + 1), bufs)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_step_buffers_give_the_bits_of_fresh_arrays(activation, dropout):
    """A training pass written into buffers of 10 rows, and its gradients
    into one vector, pass after pass, gives the bits of one in a fresh set
    sized to its batch, for a full batch and a short one."""
    m = _model(dim=4, hidden=16, depth=3, activation=activation,
               dropout=dropout)
    m.weights[-1][:] = RngState(2).generator().standard_normal(
        m.weights[-1].shape)
    bufs = StepBuffers(m.arch, 10)
    grad = np.empty(m.n_params)
    g = RngState(3).generator()
    for rows in (10, 7, 10):
        x, dout = g.standard_normal((2, rows, 4))
        t = g.uniform(0.1, 0.9, size=rows)
        fresh = step_buffers(m, rows)
        out, cache = m.forward_cache(x, t, RngState(rows), fresh)
        ref = m.backward(cache, dout, np.empty(m.n_params), fresh)
        got_out, got_cache = m.forward_cache(x, t, RngState(rows), bufs)
        got = m.backward(got_cache, dout, grad, bufs)
        assert got_out.tobytes() == out.tobytes()
        for a, b in zip(ref[0] + ref[1], got[0] + got[1]):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(ModelError, match="buffers of 10 rows"):
        m.forward_cache(np.zeros((11, 4)), 0.5, None, bufs)
