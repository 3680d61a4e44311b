import struct
from pathlib import Path

import numpy as np
import pytest

from flowvar.config import (PRESETS, ConfigError, ExperimentConfig,
                            load_config, parse_config)
from flowvar.data import GmmTask, ImageTask
from flowvar.metrics import METHODS
from flowvar.models import MAX_DEPTH, MAX_HIDDEN, MAX_N_FREQ
from flowvar.training import (MAX_BATCH_SIZE, MAX_EPOCHS,
                              MAX_PAIRS_PER_EPOCH)


def test_empty_config_gets_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.seed == 0
    assert cfg.task_kind == "gmm"
    assert cfg.training.epochs == 30
    assert cfg.training.batch_size == 128
    assert cfg.training.learning_rate == pytest.approx(2e-4)
    assert cfg.training.pairs_per_epoch == 8192
    assert cfg.probes == 50
    assert cfg.epsilon == pytest.approx(0.01)
    assert cfg.methods == tuple(METHODS)
    assert cfg.ensemble_members == 5
    assert cfg.dropout_passes == 50
    assert cfg.dropout_rate == pytest.approx(0.15)


def test_default_grid_is_endpoint_shifted():
    cfg = parse_config("")
    assert cfg.t_grid == (0.3, 0.5, 0.7, 0.9)
    shifted = parse_config("[uq]\nt_grid = 0 0.5 0.98\n")
    assert shifted.t_grid[0] == pytest.approx(1e-3)
    assert shifted.t_grid[1:] == (0.5, 0.98)


def test_unknown_keys_and_sections_fail_fast():
    with pytest.raises(ConfigError, match=r"unknown key 'probess'"):
        parse_config("[uq]\nprobess = 10\n")
    # each method fixes its own objective and dropout rate
    with pytest.raises(ConfigError, match=r"unknown key 'objective'"):
        parse_config("[training]\nobjective = one-step\n")
    with pytest.raises(ConfigError, match=r"unknown key 'dropout'"):
        parse_config("[model]\ndropout = 0.0\n")
    with pytest.raises(ConfigError, match=r"unknown config section"):
        parse_config("[uncertainty]\nprobes = 10\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("probes = 10\n")  # key before any section header


def test_value_validation():
    with pytest.raises(ConfigError, match="bad config value"):
        parse_config("[uq]\nprobes = many\n")
    with pytest.raises(ConfigError, match="increasing"):
        parse_config("[uq]\nt_grid = 0.5 0.5\n")
    # the endpoints are pulled into the open interval; times outside [0, 1]
    # are refused
    clamped = parse_config("[uq]\nt_grid = 0.5 1\n")
    assert clamped.t_grid[-1] == pytest.approx(1.0 - 1e-3)
    with pytest.raises(ConfigError, match=r"must lie in \[0, 1\], got 1.2"):
        parse_config("[uq]\nt_grid = 0.5 1.2\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("[uq]\nprobes = 0\n")
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config("[uq]\nepsilon = 0.5\n")
    with pytest.raises(ConfigError, match="unknown method"):
        parse_config("[methods]\nuse = tweedie-fm laplace\n")
    with pytest.raises(ConfigError, match="members"):
        parse_config("[methods]\nensemble_members = 1\n")
    with pytest.raises(ConfigError, match="passes"):
        parse_config("[methods]\ndropout_passes = 1\n")
    with pytest.raises(ConfigError, match="dropout rate"):
        parse_config("[methods]\ndropout_rate = 1.5\n")
    # an existing path, so only the subsample is refused
    for value in (0, -1):
        with pytest.raises(ConfigError,
                           match=f"subsample must be positive, got {value}"):
            parse_config(f"[task]\nkind = mnist\npath = {__file__}\n"
                         f"subsample = {value}\n")


@pytest.mark.parametrize("section, key, top", [
    ("model", "hidden", MAX_HIDDEN), ("model", "depth", MAX_DEPTH),
    ("model", "n_freq", MAX_N_FREQ), ("training", "epochs", MAX_EPOCHS),
    ("training", "pairs_per_epoch", MAX_PAIRS_PER_EPOCH),
    ("training", "batch_size", MAX_BATCH_SIZE)])
def test_model_and_training_sizes_are_bounded_at_parse_time(section, key,
                                                            top):
    """Each size one past its bound, or far past it, is refused by name;
    parsing allocates nothing, so the bound itself is parsed too."""
    # a batch at its bound needs an epoch at least as large
    pairs = "\npairs_per_epoch = 4096" if key == "batch_size" else ""
    for value in (top + 1, 10**20):
        with pytest.raises(ConfigError,
                           match=f"{key} must be at most {top}, got {value}"):
            parse_config(f"[{section}]\n{key} = {value}{pairs}\n")
    cfg = parse_config(f"[{section}]\n{key} = {top}{pairs}\n")
    size = getattr(cfg.training if section == "training" else cfg, key)
    assert size == top


def test_gmm_task_construction():
    cfg = parse_config("[task]\nkind = gmm\nmeans = 0 0 ; 2 2 ; 4 0\n"
                       "sigma = 0.3\nweights = 0.2 0.3 0.5\n")
    task = cfg.build_task()
    assert isinstance(task, GmmTask)
    assert task.dim == 2
    assert task.spec.means.shape == (3, 2)
    assert np.allclose(task.spec.weights, [0.2, 0.3, 0.5])


def test_image_task_construction():
    cfg = parse_config("[task]\nkind = bars\nside = 8\n")
    task = cfg.build_task()
    assert isinstance(task, ImageTask)
    assert task.dim == 64
    arch = cfg.build_arch(task.dim)
    assert arch.dim == 64 and arch.hidden == 128 and arch.dropout == 0.0
    dropped = cfg.build_arch(task.dim, dropout=0.15)
    assert dropped.dropout == pytest.approx(0.15)
    # sigma is a gmm value: an image task ignores it
    assert parse_config("[task]\nkind = bars\nsigma = 0\n").task_kind == "bars"


def test_mnist_path_checked_at_parse_time(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="path does not exist"):
        parse_config("[task]\nkind = mnist\npath = /nonexistent/file\n")
    with pytest.raises(ConfigError, match="path"):
        parse_config("[task]\nkind = mnist\n")
    # relative paths resolve against the config directory
    imgs = np.zeros((2, 28, 28), dtype=np.uint8)
    raw = struct.pack(">IIII", 0x803, 2, 28, 28) + imgs.tobytes()
    (tmp_path / "digits.idx").write_bytes(raw)
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text("[task]\nkind = mnist\npath = digits.idx\n")
    cfg = load_config(cfg_file)
    assert cfg.task_kind == "mnist"
    # ... and the task opens that same file from any working directory
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert cfg.build_task().images.shape == (2, 64)


def test_train_config_override_helpers():
    from flowvar.numerics import RngState

    cfg = parse_config("[experiment]\nseed = 9\n")
    tc = cfg.train_config(RngState(9), "fm")
    assert tc == cfg.training
    one_step = cfg.train_config(RngState(9), "one-step")
    assert one_step.objective == "one-step"
    assert one_step.epochs == tc.epochs
    reseeded = cfg.train_config(RngState(77), "fm")
    assert reseeded.seed.seed != tc.seed.seed


def test_presets_parse_and_differ():
    for name in ("gmm2d", "bars8", "blobs8"):
        cfg = load_config(name)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.seed == 42
        assert cfg.methods == tuple(METHODS)
    assert load_config("gmm2d").task_kind == "gmm"
    assert load_config("bars8").probes == 64
    assert load_config("blobs8").task_kind == "blobs"
    assert set(PRESETS) == {"gmm2d", "bars8", "blobs8"}


# the presets as they were once written, every setting spelled out; the
# presets now give only what they set apart from the defaults
FULL_PRESETS = {
    name: f"""
[experiment]
out = runs/{name}
seed = 42

[task]
{task}

[uq]
t_grid = 0.3 0.5 0.7 0.9
probes = {probes}
epsilon = 0.01

[methods]
use = tweedie-fm tweedie-onestep ensemble mc-dropout
ensemble_members = 5
dropout_passes = 50
dropout_rate = 0.15
""" for name, task, probes in (
        ("gmm2d", "kind = gmm\nmeans = 0.5 0 ; 3.5 0\nsigma = 0.15", 50),
        ("bars8", "kind = bars\nside = 8", 64),
        ("blobs8", "kind = blobs\nside = 8", 64))}


@pytest.mark.parametrize("name", sorted(FULL_PRESETS))
def test_trimmed_presets_parse_as_the_full_ones(name):
    """Every benchmark workload loads a preset: trimming one to what it
    sets apart must not move any setting."""
    assert load_config(name) == parse_config(FULL_PRESETS[name])


def test_readme_settings_block_states_the_defaults():
    """README's block of all settings and their defaults parses to the
    defaults, once its comments and its two empty example keys are gone."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("All settings and their defaults:")[1]
    block = block.split("```ini\n")[1].split("```")[0]
    lines = [line.split("#")[0].strip() for line in block.splitlines()]
    text = "\n".join(line for line in lines
                     if line not in ("weights =", "path ="))
    assert parse_config(text) == parse_config("")


def test_load_config_path_fallback(tmp_path):
    path = tmp_path / "mine.ini"
    path.write_text("[experiment]\nseed = 123\n[task]\nkind = bars\n")
    cfg = load_config(path)
    assert cfg.seed == 123 and cfg.task_kind == "bars"
    with pytest.raises(ConfigError, match="no such preset"):
        load_config("definitely-not-a-preset")
