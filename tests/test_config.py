import struct

import numpy as np
import pytest

from flowvar.config import (PRESETS, ConfigError, ExperimentConfig,
                            load_config, parse_config)
from flowvar.data import GmmTask, ImageTask, MnistTask
from flowvar.metrics import METHODS


def test_empty_config_gets_defaults():
    cfg = parse_config("")
    assert cfg.seed == 0
    assert cfg.task_kind == "gmm"
    assert cfg.training.epochs == 30
    assert cfg.training.batch_size == 128
    assert cfg.training.learning_rate == pytest.approx(2e-4)
    assert cfg.training.lr_schedule == "cosine"
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


def test_mnist_path_checked_at_parse_time(tmp_path):
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


def test_train_config_override_helpers():
    from flowvar.numerics import RngState

    cfg = parse_config("[experiment]\nseed = 9\n")
    tc = cfg.train_config()
    assert tc.objective == "fm"
    one_step = cfg.train_config(objective="one-step")
    assert one_step.objective == "one-step"
    assert one_step.epochs == tc.epochs
    reseeded = cfg.train_config(seed=RngState(77))
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


def test_load_config_path_fallback(tmp_path):
    path = tmp_path / "mine.ini"
    path.write_text("[experiment]\nseed = 123\n[task]\nkind = bars\n")
    cfg = load_config(path)
    assert cfg.seed == 123 and cfg.task_kind == "bars"
    with pytest.raises(ConfigError, match="no such preset"):
        load_config("definitely-not-a-preset")
