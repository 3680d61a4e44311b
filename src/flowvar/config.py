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


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting, at its default unless a config file gives it."""

    out: Path = Path("runs/out")
    seed: int = 0
    task_kind: str = "gmm"
    task_side: int = 8
    task_path: str | None = None
    task_subsample: int = 2048
    gmm_means: tuple = ((0.5, 0.0), (3.5, 0.0))
    gmm_sigma: float = 0.15
    gmm_weights: tuple | None = None
    hidden: int = MlpArch.hidden
    depth: int = MlpArch.depth
    n_freq: int = MlpArch.n_freq
    activation: str = MlpArch.activation
    training: TrainConfig = TrainConfig()
    t_grid: tuple = (0.3, 0.5, 0.7, 0.9)
    probes: int = 50
    epsilon: float = 0.01
    methods: tuple = tuple(METHODS)
    ensemble_members: int = 5
    dropout_passes: int = 50
    dropout_rate: float = 0.15

    def build_task(self):
        if self.task_kind == "gmm":
            return GmmTask(GmmSpec.isotropic(self.gmm_means, self.gmm_sigma,
                                             self.gmm_weights))
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


# every legal key: section -> key -> (field, parser); the [training] fields
# are TrainConfig's, the others ExperimentConfig's. Parsing rejects any
# other section or key and leaves each field a config omits at its default.
_KEYS = {
    "experiment": {"out": ("out", Path), "seed": ("seed", int)},
    "task": {"kind": ("task_kind", str), "side": ("task_side", int),
             "path": ("task_path", str), "subsample": ("task_subsample", int),
             "means": ("gmm_means", lambda text: tuple(
                 _floats(row) for row in text.split(";") if row.strip())),
             "sigma": ("gmm_sigma", float),
             # an empty value leaves the weights equal
             "weights": ("gmm_weights", lambda text: _floats(text) or None)},
    "model": {key: (key, cast) for key, cast in (
        ("hidden", int), ("depth", int), ("n_freq", int),
        ("activation", str))},
    "training": {key: (key, cast) for key, cast in (
        ("epochs", int), ("batch_size", int), ("learning_rate", float),
        ("weight_decay", float), ("pairs_per_epoch", int))},
    "uq": {"t_grid": ("t_grid", lambda text: shift_time_grid(_floats(text))),
           "probes": ("probes", int), "epsilon": ("epsilon", float)},
    "methods": {"use": ("methods", lambda text: tuple(text.split())),
                "ensemble_members": ("ensemble_members", int),
                "dropout_passes": ("dropout_passes", int),
                "dropout_rate": ("dropout_rate", float)},
}


def parse_config(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as ex:
        # configparser quotes the offending line on a line of its own
        raise ConfigError(f"malformed config: {' '.join(str(ex).split())}") \
            from ex

    fields, training = {}, {}
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section: [{section}]")
        for key, raw in cp.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            field, parse = _KEYS[section][key]
            try:
                value = parse(raw)
            except ValueError as ex:
                raise ConfigError(f"bad config value: {ex}") from ex
            (training if section == "training" else fields)[field] = value
    # a relative path names a file next to the config file
    path = fields.get("task_path")
    if path and base_dir is not None and not Path(path).is_absolute():
        fields["task_path"] = str(base_dir / path)
    try:
        training = TrainConfig(seed=RngState(fields.get(
            "seed", ExperimentConfig.seed)), **training)
    except TrainingError as ex:
        raise ConfigError(f"bad config value: {ex}") from ex
    cfg = ExperimentConfig(**fields, training=training)
    _validate(cfg)
    return cfg


def check_seed(seed: int) -> None:
    """Master seeds are the non-negative integers RngState can split."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def _validate(cfg: ExperimentConfig):
    check_seed(cfg.seed)
    if not cfg.methods:
        raise ConfigError("[methods] use names no method")
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


# each preset gives only what it sets apart from the defaults
PRESETS = {
    "gmm2d": """
[experiment]
out = runs/gmm2d
seed = 42
""",
    "bars8": """
[experiment]
out = runs/bars8
seed = 42

[task]
kind = bars

[uq]
probes = 64
""",
    "blobs8": """
[experiment]
out = runs/blobs8
seed = 42

[task]
kind = blobs

[uq]
probes = 64
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
