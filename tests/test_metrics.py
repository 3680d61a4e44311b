import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import flowvar
from flowvar.data import GmmTask, ImageTask
from flowvar.metrics import (DEFAULT_HITRATE_PERCENT, ConsistencyRow,
                             MetricsError, _mean_or_none, _ranks,
                             consistency_protocol, corrupt, hitrate_at_k,
                             spearman)
from flowvar.models import analytic_handle
from flowvar.numerics import RngState
from flowvar.oracle import GmmSpec
from flowvar.uq import posterior_mean_from_velocity


# few distinct values so that ties are common; NaN and infinities included
_rank_values = st.lists(
    st.sampled_from([-np.inf, -2.0, -0.0, 0.0, 0.5, 0.5, 3.0, np.inf, np.nan])
    | st.floats(allow_nan=True, allow_infinity=True),
    min_size=1, max_size=40)
# a few rows of those values, cut to the shortest row's length
_rank_rows = st.lists(_rank_values, min_size=2, max_size=4).map(
    lambda rows: [r[:min(map(len, rows))] for r in rows])


@settings(max_examples=300, deadline=None)
@given(_rank_values | _rank_rows)
@example([7.0])
@example([2.0, 1.0, 2.0, 2.0])
@example([1.0, np.nan, 0.0])
@example([[1.0, np.nan, 0.0], [2.0, 2.0, -np.inf], [0.0, -0.0, 1.0]])
def test_ranks_match_scipy_average_ranks(values):
    x = np.array(values, dtype=np.float64)
    ranks = _ranks(x)
    assert ranks.shape == x.shape
    for row, got in zip(np.atleast_2d(x), np.atleast_2d(ranks)):
        np.testing.assert_array_equal(got, rankdata(row, method="average"))
        # a NaN blanks its own row only
        assert (np.isnan(got).all() if np.isnan(row).any()
                else np.isfinite(got).all())


def test_import_does_not_load_scipy():
    # a fresh interpreter that finds the same package as this one; the
    # process modules load only when models train on worker processes
    src = os.path.dirname(os.path.dirname(flowvar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, flowvar.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing', 'subprocess', "
            "'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_spearman_hand_example():
    # ranks of u: 1 2 3 4 5; ranks of e: 1 2 3 5 4 -> rho = 1 - 6*2/120
    u = [0.1, 0.2, 0.3, 0.4, 0.5]
    e = [1.0, 2.0, 3.0, 5.0, 4.0]
    assert spearman(u, e) == pytest.approx(0.9)
    assert spearman(u, u) == pytest.approx(1.0)
    assert spearman(u, [-x for x in u]) == pytest.approx(-1.0)


def test_spearman_is_monotone_invariant():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(50)
    e = rng.standard_normal(50)
    base = spearman(u, e)
    assert spearman(np.exp(u), e) == pytest.approx(base)
    assert spearman(u, 3.0 * e + 7.0) == pytest.approx(base)


def test_spearman_tied_values_use_average_ranks():
    # u has a two-way tie; average ranks keep the correlation symmetric
    u = [1.0, 2.0, 2.0, 3.0]
    e = [1.0, 2.0, 3.0, 4.0]
    r = spearman(u, e)
    assert r == spearman(e, u)
    assert 0.9 < r < 1.0


def test_spearman_rejects_degenerate_input():
    with pytest.raises(MetricsError, match="constant"):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(MetricsError, match="length"):
        spearman([1.0], [2.0])
    with pytest.raises(MetricsError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


def test_hitrate_hand_example():
    # N=10, k=30% -> K=3; top-3 sets {9,8,7} and {9,8,4} overlap in 2
    u = np.arange(10, dtype=float)
    e = u.copy()
    e[7], e[4] = e[4], e[7]
    assert hitrate_at_k(u, e, 30.0) == pytest.approx(2.0 / 3.0)
    assert hitrate_at_k(u, u, 30.0) == 1.0
    assert DEFAULT_HITRATE_PERCENT == 30.0


def test_hitrate_set_size_floors_at_one():
    u = np.array([1.0, 2.0, 3.0])
    e = np.array([3.0, 2.0, 1.0])
    # floor(3 * 10 / 100) = 0 -> clamped to 1; argmaxes differ
    assert hitrate_at_k(u, e, 10.0) == 0.0
    assert hitrate_at_k(u, u, 10.0) == 1.0


def test_hitrate_ties_break_by_ascending_index():
    u = np.array([5.0, 5.0, 5.0, 0.0])
    e = np.array([5.0, 5.0, 5.0, 0.0])
    # all-tied candidates resolve identically for identical inputs
    assert hitrate_at_k(u, e, 50.0) == 1.0
    # shifting the tie block must still pick lowest indices first
    e2 = np.array([0.0, 5.0, 5.0, 5.0])
    assert hitrate_at_k(u, e2, 50.0) == pytest.approx(0.5)


def test_hitrate_validation():
    with pytest.raises(MetricsError):
        hitrate_at_k([1.0, 2.0], [1.0, 2.0], 0.0)
    with pytest.raises(MetricsError):
        hitrate_at_k([1.0, 2.0], [1.0, 2.0], 100.0)
    with pytest.raises(MetricsError):
        hitrate_at_k([1.0, 2.0], [1.0], 30.0)


def test_corrupt_lambda_zero_is_identity():
    x1 = np.array([0.25, -0.75, 1.5])
    out = corrupt(x1, 0.0, RngState(0))
    assert np.array_equal(out, x1)
    assert out is not x1  # still a private copy


def test_corrupt_mixes_and_validates():
    x1 = np.zeros(4)
    out = corrupt(x1, 0.5, RngState(1))
    noise = RngState(1).generator().standard_normal(4)
    assert np.allclose(out, 0.5 * noise)
    assert np.array_equal(corrupt(x1, 0.5, RngState(1)), out)
    for bad in (-0.1, 1.1):
        with pytest.raises(MetricsError, match="noise_level"):
            corrupt(x1, bad, RngState(0))


def _stub_methods(d):
    """Two deterministic stub methods: one informative, one constant."""

    def informative(xt, t, rng):
        m = np.abs(xt) + np.arange(d)
        return m, float(m.sum())

    def flat(xt, t, rng):
        return np.ones(d), 1.0

    return {"informative": informative, "flat": flat}


def test_protocol_shapes_and_missing_propagation():
    spec = GmmSpec.isotropic([[0.5, 0.0], [3.5, 0.0]], 0.15)
    task = GmmTask(spec)
    field = analytic_handle(spec)
    rows = consistency_protocol(field, _stub_methods(2), task,
                                t_grid=(0.3, 0.7), noise_level=0.5,
                                rng=RngState(9), n_samples=12)
    assert len(rows) == 4  # two times x two methods
    by_key = {(r.t, r.method): r for r in rows}
    assert set(by_key) == {(0.3, "informative"), (0.3, "flat"),
                           (0.7, "informative"), (0.7, "flat")}
    for r in rows:
        assert r.n_samples == 12
    info = by_key[(0.3, "informative")]
    assert info.n_missing == 0
    assert -1.0 <= info.pixel_spearman <= 1.0
    assert 0.0 <= info.hitrate <= 1.0
    assert -1.0 <= info.sample_spearman <= 1.0
    # the constant map has no pixel ranking and a constant scalar score
    flat = by_key[(0.3, "flat")]
    assert flat.pixel_spearman is None and flat.hitrate is None
    assert flat.sample_spearman is None
    assert flat.n_missing == 12


def test_protocol_is_deterministic():
    spec = GmmSpec.isotropic([[0.5, 0.0], [3.5, 0.0]], 0.15)
    task = GmmTask(spec)
    field = analytic_handle(spec)
    kw = dict(t_grid=(0.5,), noise_level=0.25, n_samples=10)
    a = consistency_protocol(field, _stub_methods(2), task,
                             rng=RngState(4), **kw)
    b = consistency_protocol(field, _stub_methods(2), task,
                             rng=RngState(4), **kw)
    assert a == b
    c = consistency_protocol(field, _stub_methods(2), task,
                             rng=RngState(5), **kw)
    assert any(x != y for x, y in zip(a, c))


def _reference_spearman(u, e):
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    e = np.asarray(e, dtype=np.float64).reshape(-1)
    if u.shape != e.shape or u.shape[0] < 2:
        raise MetricsError("need two equal-length sequences of length >= 2")
    ru, re = _ranks(u), _ranks(e)
    du, de = ru - ru.mean(), re - re.mean()
    su, se = np.sqrt((du * du).sum()), np.sqrt((de * de).sum())
    if su == 0.0 or se == 0.0:
        raise MetricsError("undefined correlation: constant input")
    return float((du * de).sum() / (su * se))


def _reference_hitrate(u, e, k_percent):
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    e = np.asarray(e, dtype=np.float64).reshape(-1)
    kc = max(1, int(np.floor(u.shape[0] * k_percent / 100.0)))
    top_u = np.argsort(-u, kind="stable")[:kc]
    top_e = np.argsort(-e, kind="stable")[:kc]
    return len(np.intersect1d(top_u, top_e)) / kc


def _reference_protocol(reference, methods, task, t_grid, noise_level, rng,
                        n_samples, k_percent):
    """The protocol as it ran before: each method ranks and orders every
    error map again."""
    x0s, x1s = task.sample_pairs(rng.split(0), n_samples)
    x1_corr = np.stack([corrupt(x, noise_level, rng.split(1).split(i))
                        for i, x in enumerate(x1s)])
    rows = []
    for ti, t in enumerate(t_grid):
        xts = t * x1_corr + (1.0 - t) * x0s
        x1_hat = posterior_mean_from_velocity(
            xts, t, np.atleast_2d(reference.velocity(xts, t)))
        err_maps = (x1_hat - x1s) ** 2
        for mi, (name, method) in enumerate(methods.items()):
            pix, hits, scalars = [], [], []
            for i in range(n_samples):
                umap, uscalar = method(xts[i], t,
                                       rng.split(2 + mi).split(ti).split(i))
                scalars.append(uscalar)
                try:
                    pix.append(_reference_spearman(umap, err_maps[i]))
                except MetricsError:
                    pix.append(None)
                    hits.append(None)
                    continue
                hits.append(_reference_hitrate(umap, err_maps[i], k_percent))
            try:
                samp = _reference_spearman(scalars, err_maps.sum(axis=1))
            except MetricsError:
                samp = None
            rows.append(ConsistencyRow(
                float(t), name, _mean_or_none(pix), _mean_or_none(hits), samp,
                n_samples, sum(1 for v in pix if v is None)))
    return rows


class _TiedErrorField:
    """At t = 0.5 the posterior mean is exactly 0 on the first half of each
    sample's pixels (error 1 there, a tie) and on every pixel of the even
    samples (a constant error map); elsewhere it varies."""

    def velocity(self, xts, t):
        v = 0.3 * xts
        if t == 0.5:
            half = xts.shape[1] // 2
            v[:, :half] = -2.0 * xts[:, :half]
            v[0::2] = -2.0 * xts[0::2]
        return v


def _tied_stub_methods():
    def tied(xt, t, rng):
        m = np.round(np.abs(xt) * 2.0) / 2.0
        return m, float(m.max())

    def drawn(xt, t, rng):  # random ranks with ties, from the method stream
        m = np.floor(rng.generator().random(xt.shape[0]) * 4.0)
        return m, float(np.round(m.sum()))

    def constant(xt, t, rng):
        return np.full(xt.shape[0], 0.5), 0.5

    def sometimes_constant(xt, t, rng):
        m = np.full(xt.shape[0], 2.0) if xt[0] > 0.0 else np.abs(xt)
        return m, float(m[0])

    def sometimes_short(xt, t, rng):  # one pixel short when xt[1] > 0
        m = np.abs(xt)
        return (m[:-1] if xt[1] > 0.0 else m), float(m.sum())

    def infinite(xt, t, rng):  # ties at +inf and -inf around rounded values
        m = np.where(xt > 0.5, np.inf, np.where(xt < -0.5, -np.inf,
                                                 np.round(xt * 4.0)))
        return m, float(np.round(xt.sum()))

    return {"tied": tied, "drawn": drawn, "constant": constant,
            "sometimes-constant": sometimes_constant,
            "sometimes-short": sometimes_short, "infinite": infinite}


@pytest.mark.parametrize("k_percent", [DEFAULT_HITRATE_PERCENT, 7.0])
def test_protocol_rows_equal_the_per_method_loop(k_percent):
    task = ImageTask("bars", 4)
    args = (_TiedErrorField(), _tied_stub_methods(), task, (0.5, 0.3), 0.25,
            RngState(13))
    for n in (2, 24):
        rows = consistency_protocol(*args, n_samples=n, k_percent=k_percent)
        ref = _reference_protocol(*args, n_samples=n, k_percent=k_percent)
        assert rows == ref
    by_key = {(r.t, r.method): r for r in rows}
    # the premise: constant or short maps leave gaps, ties (also at ±inf)
    # do not
    assert by_key[(0.5, "tied")].n_missing == 12
    assert by_key[(0.3, "tied")].n_missing == 0
    assert by_key[(0.3, "constant")].pixel_spearman is None
    assert 0 < by_key[(0.3, "sometimes-constant")].n_missing < 24
    assert 0 < by_key[(0.3, "sometimes-short")].n_missing < 24
    infinite = by_key[(0.3, "infinite")]
    assert infinite.n_missing == 0 and infinite.hitrate is not None


def test_protocol_needs_samples():
    spec = GmmSpec.standard_normal(2)
    with pytest.raises(MetricsError, match="samples"):
        consistency_protocol(analytic_handle(spec), _stub_methods(2),
                             GmmTask(spec), (0.5,), 0.5, RngState(0),
                             n_samples=1)
