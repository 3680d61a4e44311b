"""Shared fixtures: tasks and fully trained models, built once per session.

Training is deterministic given the seed streams, so every test sees the
same models. Each model takes its objective and its (init, train) stream
keys from the CLI's method table, so fixtures and CLI runs train alike.
"""
import numpy as np
import pytest

from flowvar.cli import METHODS
from flowvar.data import GmmTask, ImageTask, default_gmm_task
from flowvar.models import MlpArch, MlpVelocity
from flowvar.numerics import RngState
from flowvar.oracle import GmmSpec
from flowvar.training import TrainConfig, train, train_ensemble


def _train_model(task, arch, method, **overrides):
    init_key, train_key, _ = METHODS[method].streams
    master = RngState(0)
    model = MlpVelocity.init(arch, master.split(init_key))
    report = train(model, task,
                   TrainConfig(seed=master.split(train_key),
                               objective=METHODS[method].objective,
                               **overrides))
    return model, report


def _train_ensemble(task, arch):
    seed = RngState(0).split(METHODS["ensemble"].streams[1])
    return train_ensemble(5, arch, task, TrainConfig(seed=seed))


@pytest.fixture(scope="session")
def gmm_task():
    return default_gmm_task()


@pytest.fixture(scope="session")
def gmm_fm(gmm_task):
    return _train_model(gmm_task, MlpArch(dim=2), "tweedie-fm")


@pytest.fixture(scope="session")
def gmm_onestep(gmm_task):
    return _train_model(gmm_task, MlpArch(dim=2), "tweedie-onestep")


@pytest.fixture(scope="session")
def gmm_dropout(gmm_task):
    return _train_model(gmm_task, MlpArch(dim=2, dropout=0.15), "mc-dropout")


@pytest.fixture(scope="session")
def gmm_ensemble(gmm_task):
    return _train_ensemble(gmm_task, MlpArch(dim=2))


@pytest.fixture(scope="session")
def hetero_gmm_task():
    # one tight and one wide component: cross-sample uncertainty actually
    # varies, which is what the error-correlation protocol measures
    spec = GmmSpec(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0, 0.0], [2.5, 0.0]]),
        covs=np.stack([0.15 ** 2 * np.eye(2), 0.6 ** 2 * np.eye(2)]),
    )
    return GmmTask(spec)


@pytest.fixture(scope="session")
def hetero_fm(hetero_gmm_task):
    # longer schedule: the Jacobian structure needs a near-optimal field
    return _train_model(hetero_gmm_task, MlpArch(dim=2), "tweedie-fm",
                        epochs=60, learning_rate=5e-4)


@pytest.fixture(scope="session")
def bars_task():
    return ImageTask("bars", 8)


@pytest.fixture(scope="session")
def bars_fm(bars_task):
    return _train_model(bars_task, MlpArch(dim=64), "tweedie-fm")


@pytest.fixture(scope="session")
def bars_dropout(bars_task):
    return _train_model(bars_task, MlpArch(dim=64, dropout=0.15), "mc-dropout")


@pytest.fixture(scope="session")
def bars_ensemble(bars_task):
    return _train_ensemble(bars_task, MlpArch(dim=64))
