"""Closed-form uncertainty against the sampling baselines, with a scorecard.

Trains a small velocity MLP on a mixture whose two components have very
different spreads, then asks each uncertainty method the same question: do
your scores rank the model's actual errors correctly? The closed form needs
one trained model and a few JVPs; the ensemble needs several trainings and
MC dropout needs many stochastic passes.
"""
import time

from flowvar.data import GmmTask
from flowvar.metrics import (consistency_protocol, dropout_method,
                             ensemble_method, tweedie_method)
from flowvar.models import MlpArch, MlpVelocity, ModelField
from flowvar.numerics import RngState
from flowvar.oracle import GmmSpec
from flowvar.training import TrainConfig, train, train_ensemble

import numpy as np


def main():
    spec = GmmSpec(weights=np.array([0.5, 0.5]),
                   means=np.array([[0.0, 0.0], [2.5, 0.0]]),
                   covs=np.stack([0.15 ** 2 * np.eye(2),
                                  0.6 ** 2 * np.eye(2)]))
    task = GmmTask(spec)
    arch = MlpArch(dim=2)
    cfg = TrainConfig(seed=RngState(0).split(2), epochs=60,
                      learning_rate=5e-4)

    t0 = time.perf_counter()
    fm = MlpVelocity.init(arch, RngState(0).split(1))
    train(fm, task, cfg)
    drop = MlpVelocity.init(MlpArch(dim=2, dropout=0.15), RngState(0).split(5))
    train(drop, task, TrainConfig(seed=RngState(0).split(6)))
    members, _ = train_ensemble(5, arch, task,
                                TrainConfig(seed=RngState(0).split(7)))
    print(f"trained 7 models in {time.perf_counter() - t0:.1f}s\n")

    field = ModelField(fm)
    methods = {
        "tweedie-fm": tweedie_method(field, n_probes=50),
        "ensemble": ensemble_method([ModelField(m) for m in members]),
        "mc-dropout": dropout_method(drop, passes=50),
    }
    print("sample-level rank correlation with squared prediction error")
    print("(t = 0.5, 64 held-out samples, higher is better)")
    # the consistency protocol on clean data (noise level 0), one time
    rows = consistency_protocol(field, methods, task, (0.5,), 0.0,
                                RngState(7), n_samples=64)
    for row in rows:
        rho = row.sample_spearman
        shown = "undefined" if rho is None else f"{rho:+.3f}"
        print(f"  {row.method:12s} {shown}")
    print("\nthe closed form reads uncertainty out of the one model it")
    print("already has; the baselines buy theirs with extra training or")
    print("extra forward passes.")


if __name__ == "__main__":
    main()
