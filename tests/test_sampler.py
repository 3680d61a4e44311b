import numpy as np
import pytest

from flowvar.models import EvalCounter, analytic_handle
from flowvar.oracle import GmmSpec
from flowvar.sampler import SamplerError, Trajectory, euler_generate


class ConstField:
    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def velocity(self, x, t):
        return np.broadcast_to(self.v, np.asarray(x).shape)


class TimeField:
    """v = c * t, integrable in closed form: x(1) = x(0) + c/2."""

    def __init__(self, c):
        self.c = float(c)

    def velocity(self, x, t):
        return np.full(np.asarray(x).shape, self.c * t)


def test_constant_field_is_exact():
    traj = euler_generate(ConstField([2.0, -1.0]), np.zeros(2), steps=5)
    assert np.allclose(traj.final, [2.0, -1.0], atol=1e-12)
    assert traj.states.shape == (6, 2)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0


def test_euler_first_order_convergence():
    errs = []
    for n in (10, 20, 40, 80):
        traj = euler_generate(TimeField(3.0), np.zeros(1), steps=n)
        errs.append(abs(traj.final[0] - 1.5))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    for r in ratios:
        assert 1.8 < r < 2.2  # halving dt halves the error


def test_batch_integration_shares_grid():
    x0 = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, -5.0]])
    traj = euler_generate(ConstField([1.0, 0.0]), x0, steps=4)
    assert traj.states.shape == (5, 3, 2)
    assert np.allclose(traj.final, x0 + [1.0, 0.0])


def test_snapshot_lookup_snaps_to_grid():
    traj = euler_generate(ConstField([1.0]), np.zeros(1), steps=10)
    ts, xs = traj.at([0.0, 0.05, 0.1, 0.95, 1.0])
    assert np.allclose(ts, [0.0, 0.1, 0.1, 1.0, 1.0])
    assert np.allclose(xs[:, 0], ts)  # states track times for unit velocity
    # grid times themselves map to their own node
    ts2, _ = traj.at(traj.times)
    assert np.array_equal(ts2, traj.times)


def test_sampler_steps_are_counted():
    spec = GmmSpec.standard_normal(2)
    counter = EvalCounter()
    field = analytic_handle(spec, counter)
    # interior interval: the analytic field is defined on open (0, 1)
    euler_generate(field, np.zeros(2), steps=17, t0=0.1, t1=0.9)
    assert counter.sampler_steps == 17


def test_nonfinite_state_aborts_with_its_step_and_time():
    class Blowup:
        def velocity(self, x, t):
            return np.full(np.asarray(x).shape, np.inf) if t > 0.45 else \
                np.zeros(np.asarray(x).shape)

    # v turns inf at t = 0.5, so the state after step 6 (t = 0.6) is inf
    with pytest.raises(SamplerError) as err:
        euler_generate(Blowup(), np.zeros(2), steps=10)
    assert str(err.value) == "non-finite state at step 6 (t=0.6000)"


def test_step_and_interval_validation():
    with pytest.raises(SamplerError, match="steps"):
        euler_generate(ConstField([0.0]), np.zeros(1), steps=0)
    with pytest.raises(SamplerError, match="t0"):
        euler_generate(ConstField([0.0]), np.zeros(1), steps=3, t0=0.5,
                       t1=0.5)


def test_partial_interval_grid():
    traj = euler_generate(ConstField([1.0]), np.zeros(1), steps=4, t0=0.2,
                          t1=0.6)
    assert np.allclose(traj.times, [0.2, 0.3, 0.4, 0.5, 0.6])
    assert traj.final[0] == pytest.approx(0.4)


def test_trajectory_shape_mismatch_rejected():
    with pytest.raises(SamplerError):
        Trajectory(times=np.zeros(3), states=np.zeros((2, 2)), steps=1)
