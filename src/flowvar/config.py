"""Experiment configuration: INI-style files with strict key validation.

A config names a task, a model, training settings, the UQ evaluation grid,
and the set of methods to compare. Unknown sections or keys are errors so
typos fail fast instead of silently running defaults. A handful of presets
cover the desk-scale experiments; ``load_config`` accepts either a preset
name or a path.
"""
from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import GmmTask, ImageTask, MnistTask
from .metrics import METHODS
from .models import MlpArch, ModelError
from .numerics import RngState
from .oracle import GmmSpec, OracleError
from .training import TrainConfig, TrainingError
from .uq import shift_time_grid

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "MAX_PROBES",
    "MAX_ENSEMBLE_MEMBERS",
    "MAX_DROPOUT_PASSES",
    "check_seed",
    "parse_config",
    "load_config",
    "PRESETS",
]


class ConfigError(ValueError):
    pass


# the largest probe block one estimate may draw ([uq] probes, ablate --S);
# refused at parse time, before anything is allocated
MAX_PROBES = 4096
# the largest ensemble (one model trained and read per member) and the most
# MC-dropout passes (one forward row per pass), refused the same way
MAX_ENSEMBLE_MEMBERS = 64
MAX_DROPOUT_PASSES = 4096


# the [model] and [training] keys and their types; a key a config leaves out
# takes the default of the MlpArch or TrainConfig field of that name
_MODEL_KEYS = {"hidden": int, "depth": int, "n_freq": int, "activation": str}
_TRAINING_KEYS = {"epochs": int, "batch_size": int, "learning_rate": float,
                  "lr_schedule": str, "weight_decay": float,
                  "pairs_per_epoch": int}

# every legal key, per section; parsing rejects anything else
_SCHEMA = {
    "experiment": {"out", "seed"},
    "task": {"kind", "side", "path", "subsample", "means", "sigma", "weights"},
    "model": set(_MODEL_KEYS),
    "training": set(_TRAINING_KEYS),
    "uq": {"t_grid", "probes", "epsilon"},
    "methods": {"use", "ensemble_members", "dropout_passes", "dropout_rate"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    out: Path
    seed: int
    task_kind: str
    task_side: int
    task_path: str | None
    task_subsample: int
    gmm_means: tuple
    gmm_sigma: float
    gmm_weights: tuple | None
    hidden: int
    depth: int
    n_freq: int
    activation: str
    training: TrainConfig
    t_grid: tuple
    probes: int
    epsilon: float
    methods: tuple
    ensemble_members: int
    dropout_passes: int
    dropout_rate: float

    def build_task(self):
        if self.task_kind == "gmm":
            spec = (GmmSpec.isotropic(self.gmm_means, self.gmm_sigma,
                                      self.gmm_weights)
                    if self.gmm_weights is not None else
                    GmmSpec.isotropic(self.gmm_means, self.gmm_sigma))
            return GmmTask(spec)
        if self.task_kind in ("bars", "blobs"):
            return ImageTask(self.task_kind, self.task_side)
        if self.task_kind == "mnist":
            if self.task_path is None:
                raise ConfigError("mnist task needs a path")
            return MnistTask(self.task_path, self.task_subsample)
        raise ConfigError(f"unknown task kind: {self.task_kind!r}")

    def build_arch(self, dim: int, dropout: float | None = None) -> MlpArch:
        return MlpArch(dim=dim, hidden=self.hidden, depth=self.depth,
                       n_freq=self.n_freq, activation=self.activation,
                       dropout=0.0 if dropout is None else dropout)

    def train_config(self, seed: RngState, objective: str) -> TrainConfig:
        return dataclasses.replace(self.training, seed=seed,
                                   objective=objective)


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _mean_rows(text: str) -> tuple:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    return tuple(_floats(r) for r in rows)


def parse_config(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as ex:
        # configparser's messages quote the offending line on lines of
        # their own
        raise ConfigError(f"malformed config: {' '.join(str(ex).split())}") \
            from ex

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section: [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    def get(section, key, default=None):
        if cp.has_option(section, key):
            return cp.get(section, key)
        return default

    def given(section, keys):
        return {key: cast(cp.get(section, key)) for key, cast in keys.items()
                if cp.has_option(section, key)}

    try:
        seed = int(get("experiment", "seed", "0"))
        out = Path(get("experiment", "out", "runs/out"))

        kind = get("task", "kind", "gmm")
        side = int(get("task", "side", "8"))
        path = get("task", "path")
        # a relative path names a file next to the config file
        if path and base_dir is not None and not Path(path).is_absolute():
            path = str(base_dir / path)
        subsample = int(get("task", "subsample", "2048"))
        means = _mean_rows(get("task", "means", "0.5 0 ; 3.5 0"))
        sigma = float(get("task", "sigma", "0.15"))
        weights_txt = get("task", "weights")
        weights = _floats(weights_txt) if weights_txt else None

        training = TrainConfig(seed=RngState(seed),
                               **given("training", _TRAINING_KEYS))

        raw_grid = _floats(get("uq", "t_grid", "0.3 0.5 0.7 0.9"))
        t_grid = shift_time_grid(raw_grid)
        probes = int(get("uq", "probes", "50"))
        epsilon = float(get("uq", "epsilon", "0.01"))

        methods = tuple(get("methods", "use",
                            " ".join(METHODS)).split())
        ensemble_members = int(get("methods", "ensemble_members", "5"))
        dropout_passes = int(get("methods", "dropout_passes", "50"))
        dropout_rate = float(get("methods", "dropout_rate", "0.15"))
        arch = {f.name: f.default for f in dataclasses.fields(MlpArch)
                if f.name in _MODEL_KEYS}
        arch.update(given("model", _MODEL_KEYS))

        cfg = ExperimentConfig(
            out=out, seed=seed, task_kind=kind, task_side=side,
            task_path=path, task_subsample=subsample, gmm_means=means,
            gmm_sigma=sigma, gmm_weights=weights, **arch, training=training,
            t_grid=t_grid, probes=probes, epsilon=epsilon,
            methods=methods, ensemble_members=ensemble_members,
            dropout_passes=dropout_passes, dropout_rate=dropout_rate,
        )
    except (ValueError, TypeError, TrainingError) as ex:
        if isinstance(ex, ConfigError):
            raise
        raise ConfigError(f"bad config value: {ex}") from ex

    _validate(cfg)
    return cfg


def check_seed(seed: int) -> None:
    """Master seeds are the non-negative integers RngState can split."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def _validate(cfg: ExperimentConfig):
    check_seed(cfg.seed)
    for m in cfg.methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method: {m!r}")
    if not 1 <= cfg.probes <= MAX_PROBES:
        raise ConfigError(f"probe count must be positive and at most "
                          f"{MAX_PROBES}, got {cfg.probes}")
    if not 0.0 < cfg.epsilon <= 0.1:
        raise ConfigError("epsilon must lie in (0, 0.1]")
    if not 2 <= cfg.ensemble_members <= MAX_ENSEMBLE_MEMBERS:
        raise ConfigError(f"ensemble needs 2 to {MAX_ENSEMBLE_MEMBERS} "
                          f"members, got {cfg.ensemble_members}")
    if not 2 <= cfg.dropout_passes <= MAX_DROPOUT_PASSES:
        raise ConfigError(f"mc-dropout needs 2 to {MAX_DROPOUT_PASSES} "
                          f"passes, got {cfg.dropout_passes}")
    if not 0.0 < cfg.dropout_rate < 1.0:
        raise ConfigError("dropout rate must lie in (0, 1)")
    # the constructors' own checks, run before any file is written
    try:
        cfg.build_arch(1)
    except ModelError as ex:
        raise ConfigError(f"bad [model] value: {ex}") from None
    if cfg.task_kind == "gmm":
        if not (np.isfinite(cfg.gmm_sigma) and cfg.gmm_sigma > 0.0):
            raise ConfigError(f"sigma must be positive and finite, "
                              f"got {cfg.gmm_sigma}")
        # the covariance is sigma^2 I: a square that underflows or overflows
        # leaves no usable covariance
        if not np.finfo(float).tiny <= cfg.gmm_sigma * cfg.gmm_sigma < np.inf:
            raise ConfigError(f"sigma^2 must be a normal float64, got sigma = "
                              f"{cfg.gmm_sigma}")
        if len({len(row) for row in cfg.gmm_means}) != 1:
            raise ConfigError("gmm means must be rows of one length")
        try:
            cfg.build_task()
        except OracleError as ex:
            raise ConfigError(f"bad gmm task: {ex}") from None
    if cfg.task_kind == "mnist":
        if not (cfg.task_path and Path(cfg.task_path).exists()):
            raise ConfigError(f"mnist path does not exist: {cfg.task_path}")
        if cfg.task_subsample < 1:
            raise ConfigError(f"subsample must be positive, got "
                              f"{cfg.task_subsample}")


PRESETS = {
    "gmm2d": """
[experiment]
out = runs/gmm2d
seed = 42

[task]
kind = gmm
means = 0.5 0 ; 3.5 0
sigma = 0.15

[uq]
t_grid = 0.3 0.5 0.7 0.9
probes = 50
epsilon = 0.01

[methods]
use = tweedie-fm tweedie-onestep ensemble mc-dropout
ensemble_members = 5
dropout_passes = 50
dropout_rate = 0.15
""",
    "bars8": """
[experiment]
out = runs/bars8
seed = 42

[task]
kind = bars
side = 8

[uq]
t_grid = 0.3 0.5 0.7 0.9
probes = 64
epsilon = 0.01

[methods]
use = tweedie-fm tweedie-onestep ensemble mc-dropout
ensemble_members = 5
dropout_passes = 50
dropout_rate = 0.15
""",
    "blobs8": """
[experiment]
out = runs/blobs8
seed = 42

[task]
kind = blobs
side = 8

[uq]
t_grid = 0.3 0.5 0.7 0.9
probes = 64
epsilon = 0.01

[methods]
use = tweedie-fm tweedie-onestep ensemble mc-dropout
ensemble_members = 5
dropout_passes = 50
dropout_rate = 0.15
""",
}


def load_config(name_or_path) -> ExperimentConfig:
    """Resolve a preset name or a config file path."""
    key = str(name_or_path)
    if key in PRESETS:
        return parse_config(PRESETS[key])
    p = Path(key)
    if p.exists():
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as ex:
            raise ConfigError(f"cannot read config {key}: {ex}") from None
        return parse_config(text, base_dir=p.parent)
    raise ConfigError(f"no such preset or config file: {key}")
