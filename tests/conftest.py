"""Shared fixtures: tasks and fully trained models, built once per session.

Training is deterministic given the seed streams, so every test sees the
same models. Each model takes its objective from the library's method table
and its (init, train) stream keys from the CLI's stream table, as the CLI
does, so fixtures and CLI runs train alike. The models of one task train
together as one ``train_jobs`` list, on as many worker processes as there
are usable CPUs.
"""
import numpy as np
import pytest

from flowvar.cli import STREAMS
from flowvar.data import GmmTask, ImageTask
from flowvar.metrics import METHODS
from flowvar.models import MlpArch
from flowvar.numerics import RngState
from flowvar.oracle import GmmSpec
from flowvar.training import TrainConfig, TrainJob, ensemble_jobs, train_jobs

from refs import default_gmm_task


def _job(arch, method, **overrides):
    init_key, train_key = STREAMS[method]
    master = RngState(0)
    return TrainJob(arch, master.split(init_key),
                    TrainConfig(seed=master.split(train_key),
                                objective=METHODS[method].objective,
                                **overrides))


def _train_models(task, dim):
    """fm, its dropout twin and 5 ensemble members, trained together."""
    seed = RngState(0).split(STREAMS["ensemble"][1])
    pairs = train_jobs(task, [
        _job(MlpArch(dim=dim), "tweedie-fm"),
        _job(MlpArch(dim=dim, dropout=0.15), "mc-dropout"),
        *ensemble_jobs(5, MlpArch(dim=dim), TrainConfig(seed=seed)),
    ])
    members = pairs[2:]
    return {"fm": pairs[0], "dropout": pairs[1],
            "ensemble": ([m for m, _ in members], [r for _, r in members])}


@pytest.fixture(scope="session")
def gmm_task():
    return default_gmm_task()


@pytest.fixture(scope="session")
def gmm_models(gmm_task):
    return _train_models(gmm_task, 2)


@pytest.fixture(scope="session")
def gmm_fm(gmm_models):
    return gmm_models["fm"]


@pytest.fixture(scope="session")
def gmm_dropout(gmm_models):
    return gmm_models["dropout"]


@pytest.fixture(scope="session")
def gmm_ensemble(gmm_models):
    return gmm_models["ensemble"]


@pytest.fixture(scope="session")
def hetero_gmm_task():
    # one tight and one wide component: cross-sample uncertainty actually
    # varies, which is what the sample-level score (consistency_protocol's
    # sample_spearman on clean data) measures
    spec = GmmSpec(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0, 0.0], [2.5, 0.0]]),
        variances=np.array([0.15 ** 2, 0.6 ** 2]),
    )
    return GmmTask(spec)


@pytest.fixture(scope="session")
def hetero_fm(hetero_gmm_task):
    # longer schedule: the Jacobian structure needs a near-optimal field
    return train_jobs(hetero_gmm_task, [
        _job(MlpArch(dim=2), "tweedie-fm", epochs=60, learning_rate=5e-4)])[0]


@pytest.fixture(scope="session")
def bars_task():
    return ImageTask("bars", 8)


@pytest.fixture(scope="session")
def bars_models(bars_task):
    return _train_models(bars_task, 64)


@pytest.fixture(scope="session")
def bars_fm(bars_models):
    return bars_models["fm"]


@pytest.fixture(scope="session")
def bars_dropout(bars_models):
    return bars_models["dropout"]


@pytest.fixture(scope="session")
def bars_ensemble(bars_models):
    return bars_models["ensemble"]
