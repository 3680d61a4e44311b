import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import flowvar
from flowvar.data import GmmTask
from flowvar.metrics import (DEFAULT_HITRATE_PERCENT, MetricsError, _ranks,
                             consistency_protocol, corrupt, error_correlation,
                             hitrate_at_k, spearman)
from flowvar.models import analytic_handle
from flowvar.numerics import RngState
from flowvar.oracle import GmmSpec


# few distinct values so that ties are common; NaN and infinities included
_rank_values = st.lists(
    st.sampled_from([-np.inf, -2.0, -0.0, 0.0, 0.5, 0.5, 3.0, np.inf, np.nan])
    | st.floats(allow_nan=True, allow_infinity=True),
    min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(_rank_values)
@example([7.0])
@example([2.0, 1.0, 2.0, 2.0])
@example([1.0, np.nan, 0.0])
def test_ranks_match_scipy_average_ranks(values):
    x = np.array(values, dtype=np.float64)
    np.testing.assert_array_equal(_ranks(x), rankdata(x, method="average"))


def test_import_does_not_load_scipy():
    # a fresh interpreter that finds the same package as this one
    src = os.path.dirname(os.path.dirname(flowvar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, flowvar.cli; print(any(m.split('.')[0] == 'scipy' "
            "for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


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


def test_protocol_needs_samples():
    spec = GmmSpec.standard_normal(2)
    with pytest.raises(MetricsError, match="samples"):
        consistency_protocol(analytic_handle(spec), _stub_methods(2),
                             GmmTask(spec), (0.5,), 0.5, RngState(0),
                             n_samples=1)


def test_error_correlation_scores_methods():
    spec = GmmSpec.isotropic([[0.5, 0.0], [3.5, 0.0]], 0.15)
    task = GmmTask(spec)
    field = analytic_handle(spec)
    out = error_correlation(field, _stub_methods(2), task, 0.5,
                            n_samples=32, rng=RngState(2))
    assert set(out) == {"informative", "flat"}
    assert out["flat"] is None  # constant scores have no ranking
    assert -1.0 <= out["informative"] <= 1.0
    with pytest.raises(MetricsError, match="8"):
        error_correlation(field, _stub_methods(2), task, 0.5, 4, RngState(0))
