import contextlib
import dataclasses
import io
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flowvar import cli, metrics, training
from flowvar.cli import METHODS, main
from flowvar.config import _KEYS, load_config
from flowvar.metrics import (consistency_protocol, dropout_method,
                             ensemble_method, one_step_method, tweedie_method)
from flowvar.models import ModelField, load_model, save_model
from flowvar.numerics import RngState, draw_rademacher
from flowvar.reporting import format_float
from flowvar.uq import cov_closed_form

from refs import cost_run, read_pgm

FAST_INI = """
[experiment]
out = {out}
seed = 7

[task]
kind = gmm
means = 0.5 0 ; 3.5 0
sigma = 0.15

[training]
epochs = 3
pairs_per_epoch = 1024
batch_size = 128

[uq]
t_grid = 0.3 0.7
probes = 8
epsilon = 0.01

[methods]
use = tweedie-fm tweedie-onestep ensemble mc-dropout
ensemble_members = 2
dropout_passes = 6
dropout_rate = 0.15
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained fast-config workspace shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    ini = root / "fast.ini"
    ini.write_text(FAST_INI.format(out=out))
    for variant in ("fm", "one-step", "ensemble"):
        assert main(["train", variant, "--config", str(ini)]) == 0
    return ini, out


def test_train_writes_models_and_curves(workspace):
    ini, out = workspace
    for name in ("fm", "dropout", "onestep", "member_0", "member_1"):
        assert (out / f"model_{name}.fvar").exists()
    csv = (out / "train_fm.csv").read_text().splitlines()
    assert csv[0] == "schema,method,epoch,loss"
    # 3 epochs + initial row, for both the plain and the dropout variant
    assert len(csv) == 1 + 2 * 4
    assert csv[1].startswith("train-v1,fm,0,")
    assert (out / "train_fm_summary.txt").exists()
    ens = (out / "train_ensemble.csv").read_text().splitlines()
    assert len(ens) == 1 + 2 * 4  # two members


def test_uq_subcommand_all_methods(workspace):
    ini, out = workspace
    for method in ("tweedie", "onestep", "ensemble", "mc-dropout"):
        assert main(["uq", method, "--config", str(ini)]) == 0
        lines = (out / f"uq_{method}.csv").read_text().splitlines()
        assert lines[0] == ("schema,method,t,seed,S,point,u,floored,"
                            "map_lo,map_hi")
        n_times = 1 if method == "onestep" else 2
        assert len(lines) == 1 + n_times * 16
    # U values are nonnegative finite numbers
    for line in (out / "uq_tweedie.csv").read_text().splitlines()[1:]:
        u = float(line.split(",")[6])
        assert np.isfinite(u) and u >= 0.0


def test_uq_single_time_flag(workspace, tmp_path):
    ini, _ = workspace
    out = tmp_path / "single"
    assert main(["uq", "tweedie", "--config", str(ini), "--out",
                 str(out)]) == 1  # models live in the original out dir
    assert main(["uq", "tweedie", "--config", str(ini), "--t", "0.5"]) == 0
    assert main(["uq", "tweedie", "--config", str(ini), "--t", "1.5"]) == 1


def test_oracle_check_passes_on_gmm(workspace, capsys):
    ini, _ = workspace
    assert main(["oracle-check", "--config", str(ini)]) == 0
    text = capsys.readouterr().out
    assert "max relative Frobenius error" in text
    assert "PASS" in text


def test_oracle_check_draws_each_points_own_probes(tmp_path, capsys,
                                                  monkeypatch):
    """Point i at grid time ti is checked on the probes of
    ``draw_rademacher(master.split(9).split(ti).split(i))``, bit for bit,
    at a master seed of three entropy words."""
    ini = tmp_path / "gmm.ini"
    ini.write_text(FAST_INI.format(out=tmp_path / "run").replace(
        "seed = 7", f"seed = {2**64 + 5}"))
    seen = []

    def recording(field, xt, t, probes, materialize_full=False):
        seen.append(probes)
        return cov_closed_form(field, xt, t, probes, materialize_full)

    monkeypatch.setattr(cli, "cov_closed_form", recording)
    assert main(["oracle-check", "--config", str(ini)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(seen) == 2 * cli.N_EVAL_POINTS
    master = RngState(2**64 + 5)
    for k, probes in enumerate(seen):
        ref = master.split(9).split(k // cli.N_EVAL_POINTS).split(
            k % cli.N_EVAL_POINTS)
        assert probes.seed == ref
        assert np.array_equal(probes.probes, draw_rademacher(ref, 2, 8).probes)


@pytest.mark.parametrize("sigma", ["1e5", "1e7"])
def test_oracle_check_passes_at_large_sigma(tmp_path, capsys, sigma):
    """The reference covariance keeps its digits when sigma is large."""
    ini = tmp_path / "gmm.ini"
    ini.write_text(FAST_INI.format(out=tmp_path / "run").replace(
        "sigma = 0.15", f"sigma = {sigma}"))
    assert main(["oracle-check", "--config", str(ini)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_check_fails_on_a_non_finite_error(tmp_path, capsys,
                                                   monkeypatch):
    """A NaN error, or a reference covariance that underflowed to zero,
    is a failure on one line, never a PASS and never a warning."""
    ini = tmp_path / "gmm.ini"
    ini.write_text(FAST_INI.format(out=tmp_path / "run"))

    def nan_full(*args, **kwargs):
        est = cov_closed_form(*args, **kwargs)
        return dataclasses.replace(est, full=np.full_like(est.full, np.nan))

    with monkeypatch.context() as mp:
        mp.setattr(cli, "cov_closed_form", nan_full)
        capsys.readouterr()
        assert main(["oracle-check", "--config", str(ini)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "runtime failure: relative Frobenius error at t=0.3, point 0 is "
        "nan"), err
    for sigma in ("1e-120", "1e-150"):
        # at t = 0.9 the reference covariance underflows to zero
        ini.write_text(FAST_INI.format(out=tmp_path / "run").replace(
            "sigma = 0.15", f"sigma = {sigma}").replace(
            "t_grid = 0.3 0.7", "t_grid = 0.3 0.9"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["oracle-check", "--config", str(ini)]) == 2, sigma
        assert caught == [], [str(w.message) for w in caught]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "reference covariance norm 0" in err[0], err


def test_traj_writes_series_and_maps(workspace):
    ini, out = workspace
    assert main(["traj", "--config", str(ini)]) == 0
    lines = (out / "traj.csv").read_text().splitlines()
    assert lines[0] == ("schema,method,t,seed,S,u,u_prior,ratio,floored,"
                        "map_lo,map_hi")
    assert len(lines) == 1 + 8  # one row per trajectory node
    ts = [float(l.split(",")[2]) for l in lines[1:]]
    assert ts[0] == pytest.approx(1e-3)
    assert ts == sorted(ts)


def test_consistency_writes_table(workspace):
    ini, out = workspace
    assert main(["consistency", "--config", str(ini), "--n", "8",
                 "--noise", "0.5"]) == 0
    lines = (out / "consistency.csv").read_text().splitlines()
    assert lines[0] == ("schema,method,t,seed,S,pixel_spearman,hitrate,"
                        "sample_spearman,n_samples,n_missing")
    assert len(lines) == 1 + 2 * 4  # two times x four methods


def test_ablate_probes_rows(workspace):
    ini, out = workspace
    assert main(["ablate-probes", "--config", str(ini), "--S", "4,16",
                 "--replicates", "3"]) == 0
    lines = (out / "ablate.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    assert main(["ablate-probes", "--config", str(ini), "--S", "4,x"]) == 1
    assert main(["ablate-probes", "--config", str(ini), "--S", "0"]) == 1
    assert main(["ablate-probes", "--config", str(ini),
                 "--replicates", "0"]) == 1


def test_reruns_are_byte_identical(workspace, tmp_path):
    ini, out = workspace
    assert main(["uq", "tweedie", "--config", str(ini)]) == 0
    first = (out / "uq_tweedie.csv").read_bytes()
    assert main(["uq", "tweedie", "--config", str(ini)]) == 0
    assert (out / "uq_tweedie.csv").read_bytes() == first
    assert main(["ablate-probes", "--config", str(ini), "--S", "4,16",
                 "--replicates", "3"]) == 0
    second = (out / "ablate.csv").read_bytes()
    assert main(["ablate-probes", "--config", str(ini), "--S", "4,16",
                 "--replicates", "3"]) == 0
    assert (out / "ablate.csv").read_bytes() == second


def test_cost_audit_writes_ledger(workspace):
    ini, out = workspace
    assert main(["cost", "--config", str(ini)]) == 0
    csv = (out / "cost.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == ("schema,method,train_equivalents,infer_equivalents,"
                        "total_equivalents,count_ratio_vs_tweedie-fm")
    assert len(lines) == 1 + 4  # one row per configured method
    by_method = {l.split(",")[1]: l.split(",") for l in lines[1:]}
    # ensemble trains members x epochs x pairs; the others one model each
    assert int(by_method["ensemble"][2]) == 2 * int(by_method["tweedie-fm"][2])
    # one-step inference bills exactly S probe passes per evaluation point
    assert int(by_method["tweedie-onestep"][3]) == 4 * 8
    assert "seconds" not in csv
    assert (out / "cost_summary.txt").exists()


def test_cost_csv_and_stdout_are_the_same_bytes_on_a_rerun(tmp_path,
                                                            capsys):
    """Two cost runs take different seconds but write the same cost.csv and
    print the same lines."""
    use = "tweedie-fm ensemble mc-dropout"
    first = cost_run(tmp_path / "r1", use, capsys)
    second = cost_run(tmp_path / "r2", use, capsys)
    assert ((tmp_path / "r1" / "cost.csv").read_bytes()
            == (tmp_path / "r2" / "cost.csv").read_bytes())
    assert first[2] == second[2]


def test_cost_without_tweedie_fm_anchors_the_cheapest_method(tmp_path,
                                                             capsys):
    """Without tweedie-fm the method of fewest counts is the reference,
    though another is listed first."""
    rows, summary, stdout = cost_run(tmp_path / "run",
                                      "ensemble mc-dropout", capsys)
    totals = {row[1]: int(row[4]) for row in rows[1:]}
    assert list(totals) == ["ensemble", "mc-dropout"]
    assert totals["mc-dropout"] < totals["ensemble"]
    assert rows[0][-1] == "count_ratio_vs_mc-dropout"
    assert [float(row[5]) for row in rows[1:]] == pytest.approx(
        [totals["ensemble"] / totals["mc-dropout"], 1.0])
    assert summary[0] == "wall-clock cost summary (reference: mc-dropout)"
    assert [line.split(":")[0] for line in summary[1:3]] == list(totals)
    assert summary[3].startswith("ratio(ensemble / mc-dropout) = ")
    assert summary[-1].startswith("training wall time, all models: ")
    assert stdout.splitlines()[1] == (f"mc-dropout: {totals['mc-dropout']} "
                                      f"forward-equivalents (1x reference)")


def test_missing_model_and_bad_flags_exit_one(tmp_path, capsys):
    out = tmp_path / "fresh"
    ini = tmp_path / "f.ini"
    ini.write_text(FAST_INI.format(out=out))
    assert main(["uq", "tweedie", "--config", str(ini)]) == 1
    assert "model not found" in capsys.readouterr().err
    assert main(["traj", "--config", str(ini)]) == 1
    assert main(["uq", "laplace", "--config", str(ini)]) == 1
    assert main(["train", "fm", "--config", "no-such-preset"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    # each is rejected before any work: no model exists to get that far
    for argv, message in (
            (["train", "fm", "--seed", "-1"], "seed must be non-negative"),
            (["consistency", "--n", "0"], "--n must be at least 2"),
            (["consistency", "--n", "1"], "--n must be at least 2"),
            (["consistency", "--noise", "2"], "--noise must lie in [0, 1]"),
            (["consistency", "--noise", "-1"], "--noise must lie in [0, 1]")):
        assert main(argv + ["--config", str(ini)]) == 1, argv
        assert message in capsys.readouterr().err, argv
    assert not out.exists() or not any(out.glob("model_*"))
    ini.write_text(f"[experiment]\nout = {out}\nseed = -1\n")
    assert main(["train", "fm", "--config", str(ini)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: seed must be non-negative, got -1"]
    # no key sets the objective, the dropout rate or a learning-rate
    # schedule (training always follows the cosine one)
    for section, key in (("training", "objective = one-step"),
                         ("model", "dropout = 0.0"),
                         ("training", "lr_schedule = constant")):
        ini.write_text(f"[experiment]\nout = {out}\n[{section}]\n{key}\n")
        assert main(["train", "fm", "--config", str(ini)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unknown key {key.split()[0]!r} in [{section}]"]


@pytest.mark.parametrize("section, setting, message", [
    ("model", "hidden = 0", "hidden"),
    ("model", "activation = sigmoid", "activation"),
    ("training", "batch_size = 0", "batch_size"),
    ("training", "epochs = 0", "epochs"),
    # the schedule key is gone, so any value of it is refused as unknown
    pytest.param("training", "lr_schedule = bogus",
                 "unknown key 'lr_schedule' in [training]",
                 id="training-lr_schedule = bogus-lr schedule"),
    ("task", "weights = 0.5 0.6", "weights"),
    ("task", "sigma = 0", "sigma"),
    ("training", "learning_rate = nan", "learning rate"),
    ("training", "learning_rate = inf", "learning rate"),
    ("training", "weight_decay = nan", "weight decay"),
    ("task", "sigma = nan", "sigma"),
    ("task", "sigma = -1", "sigma"),
    ("task", "sigma = 1e-160", "sigma"),  # sigma^2 is subnormal
    ("task", "sigma = 1e-300", "sigma"),  # sigma^2 underflows to zero
    ("task", "means = 0 0 ; 1", "means"),
    ("task", "weights = nan 1", "weights"),
    ("task", "means = nan 0 ; 3.5 0", "means"),
    ("task", "means = inf 0 ; 3.5 0", "means"),
    ("uq", "t_grid = 5", "must lie in [0, 1], got 5"),
    ("uq", "t_grid = -3", "must lie in [0, 1], got -3"),
    ("uq", "t_grid = 1e400", "must lie in [0, 1], got inf"),
    ("uq", "t_grid = nan", "must lie in [0, 1], got nan"),
    ("uq", "t_grid =", "time grid is empty"),
    # the path is the config file itself, so only the subsample is refused
    ("task", "kind = mnist\npath = bad.ini\nsubsample = 0",
     "subsample must be positive, got 0"),
    ("task", "kind = mnist\npath = bad.ini\nsubsample = -1",
     "subsample must be positive, got -1"),
])
def test_bad_config_value_exits_one_before_any_output(tmp_path, capsys,
                                                      section, setting,
                                                      message):
    out = tmp_path / "run"
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[experiment]\nout = {out}\n[{section}]\n{setting}\n")
    assert main(["train", "fm", "--config", str(ini)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0]
    assert not out.exists()


def test_empty_method_list_exits_one_before_any_output(tmp_path, capsys):
    out = tmp_path / "run"
    ini = tmp_path / "empty.ini"
    ini.write_text(f"[experiment]\nout = {out}\n[methods]\nuse =\n")
    assert main(["cost", "--config", str(ini)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: [methods] use names no method"]
    assert not out.exists()


_SETTINGS = [(section, key) for section, keys in _KEYS.items()
             for key in sorted(keys)]
# huge, negative, NaN, tiny, non-ASCII and empty values; what these commands
# allocate is bounded at parse time (probes) or by the text (means, t_grid),
# and uq stops at its missing model, so no value starts large work
_HOSTILE = ["1e400", "-1e400", "1e300", "99999999999999999999", "-1",
            "-0.5", "nan", "-inf", "1e-320", "5e-324", "1e-150", "0", "",
            "\u00e9", "\uff11\uff12", "0 ; \u00e9", "1e308 1e308", ";"]
_CONFIGS = st.lists(st.tuples(st.sampled_from(_SETTINGS),
                              st.sampled_from(_HOSTILE)),
                    min_size=1, max_size=3)


def _ini(pairs) -> bytes:
    sections = {}
    for (section, key), value in pairs:
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()).encode()


# sizes one past their bounds, or far past them, refused at parse time; the
# training commands take a config only with one of these last, so no case
# ever requests a size that is not refused
_REFUSED_SIZES = st.sampled_from(
    [(("model", "n_freq"), v) for v in ("33", "1100")]
    + [(("model", "hidden"), v) for v in ("1025", "99999999999999999999")]
    + [(("model", "depth"), v) for v in ("9", "99999999999999999999")]
    + [(("training", "epochs"), v) for v in ("10001", "99999999999999999999")]
    + [(("training", "pairs_per_epoch"), v)
       for v in ("262145", "99999999999999999999")]
    + [(("training", "batch_size"), v)
       for v in ("4097", "99999999999999999999")])
_CASES = (st.tuples(_CONFIGS.map(_ini) | st.binary(max_size=80),
                    st.sampled_from([["oracle-check"], ["uq", "tweedie"]]))
          | st.tuples(st.tuples(_CONFIGS, _REFUSED_SIZES)
                      .map(lambda c: _ini(c[0] + [c[1]])),
                      st.sampled_from([["train", "fm"], ["train", "one-step"],
                                       ["train", "ensemble"], ["cost"]])))


@given(_CASES)
# sigma^2 overflowing raised OverflowError; the reference covariance
# underflowing to zero warned and failed on two lines; the weights' sum
# overflowing warned
@example(case=(b"[task]\nsigma = 1e300\n", ["oracle-check"]))
@example(case=(b"[task]\nsigma = 1e-150\n", ["oracle-check"]))
@example(case=(b"[task]\nweights = 1e308 1e308\n", ["oracle-check"]))
# a failed check printed FAIL with nothing on stderr
@example(case=(b"[task]\nsigma = 1e20\n[uq]\nt_grid = 1e400\n",
               ["oracle-check"]))
# the clock frequencies overflowed: RuntimeWarnings, then exit 2
@example(case=(b"[model]\nn_freq = 1100\n", ["train", "fm"]))
# an mnist subsample of 0 ended in a worker's traceback, and -1 trained on
# all but the last image
@example(case=(b"[task]\nkind = mnist\npath = hostile.ini\nsubsample = 0\n",
               ["train", "fm"]))
# a method named twice trained twice and printed one row of doubled counts
@example(case=(b"[methods]\nuse = tweedie-fm tweedie-fm\n", ["cost"]))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hostile_config_exits_cleanly(case):
    """Any config text, hostile values or random bytes, ends in exit 0, 1
    or 2, with exactly one stderr line on failure and no traceback or
    warning. A training command's config always holds a refused size, so
    it must exit 1."""
    text, argv = case
    cwd = os.getcwd()
    err = io.StringIO()
    # relative output paths land in the temporary directory
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        os.chdir(tmp)
        try:
            Path("hostile.ini").write_bytes(text)
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--config", "hostile.ini"])
            left = sorted(os.listdir(tmp))
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (code, text)
    # a refused run leaves no --out directory
    if code == 1:
        assert left == ["hostile.ini"], (text, argv, left)
    assert len(lines) == (0 if code == 0 else 1), (text, lines)
    assert "Traceback" not in err.getvalue() and "Warning" not in \
        err.getvalue(), (text, lines)
    assert caught == [], (text, [str(w.message) for w in caught])
    if argv[0] in ("train", "cost"):
        assert code == 1, (code, text)


def test_unreadable_config_exits_one_with_one_line(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.ini"
    not_utf8.write_bytes("[experiment]\nout = caf\xe9\n".encode("latin-1"))
    broken = tmp_path / "broken.ini"
    broken.write_text("[experiment\nseed = 1\n")
    for path, message in ((tmp_path, "cannot read config"),
                          (not_utf8, "cannot read config"),
                          (broken, "malformed config")):
        capsys.readouterr()
        assert main(["oracle-check", "--config", str(path)]) == 1, path
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert message in err and "Traceback" not in err


def test_overflowing_idx_header_exits_one_with_one_line(tmp_path, capsys):
    """IDX dims whose product is 2^64 do not wrap to an empty tensor."""
    idx = tmp_path / "digits.idx"
    idx.write_bytes(struct.pack(">IIII", 0x803, 2 ** 22, 2 ** 21, 2 ** 21))
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\nout = {tmp_path / 'out'}\n"
                   f"[task]\nkind = mnist\npath = {idx}\n")
    capsys.readouterr()
    assert main(["train", "fm", "--config", str(ini)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "size mismatch" in err[0], err


def _mnist_ini(tmp_path, idx):
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\nout = {tmp_path / 'out'}\n"
                   f"[task]\nkind = mnist\npath = {idx}\n")
    return ini


def test_idx_path_that_is_a_directory_exits_one_with_one_line(tmp_path,
                                                              capsys):
    ini = _mnist_ini(tmp_path, tmp_path)
    for argv in (["train", "fm"], ["uq", "tweedie"]):
        capsys.readouterr()
        assert main([*argv, "--config", str(ini)]) == 1, argv
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read IDX file {tmp_path}: Is a directory"], argv


def test_idx_file_of_no_images_exits_one_with_one_line(tmp_path, capsys):
    idx = tmp_path / "digits.idx"
    idx.write_bytes(struct.pack(">IIII", 0x803, 0, 28, 28))
    ini = _mnist_ini(tmp_path, idx)
    for argv in (["train", "fm"], ["uq", "tweedie"]):
        capsys.readouterr()
        assert main([*argv, "--config", str(ini)]) == 1, argv
        assert capsys.readouterr().err.splitlines() == [
            f"error: IDX file {idx} holds no images"], argv


def test_model_path_that_is_a_directory_exits_one_with_one_line(tmp_path,
                                                                capsys):
    out = tmp_path / "run"
    path = out / "model_fm.fvar"
    path.mkdir(parents=True)
    ini = tmp_path / "f.ini"
    ini.write_text(FAST_INI.format(out=out))
    for argv in (["uq", "tweedie"], ["traj"]):
        capsys.readouterr()
        assert main([*argv, "--config", str(ini)]) == 1, argv
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read model {path}: Is a directory"], argv
    assert sorted(p.name for p in out.iterdir()) == ["model_fm.fvar"]


@pytest.mark.parametrize("argv, setting", [
    (["uq", "tweedie", "--t", "1e-310"], None),
    (["uq", "onestep"], ("epsilon = 0.01", "epsilon = 1e-310")),
    (["uq", "tweedie", "--t", "1e-308"], None),
])
def test_overflowing_estimate_fails_with_one_stderr_line(workspace, tmp_path,
                                                         argv, setting):
    """At a time so near 0 that (1-t)^2/t, or the variances' sum,
    overflows, the estimate is refused on its failure line, with no numpy
    warning before it, not written as an inf row."""
    ini, out = workspace
    text = ini.read_text()
    t = argv[-1]
    if setting is not None:
        ini = tmp_path / "tiny.ini"
        ini.write_text(text.replace(*setting))
        t = setting[1].split()[-1]
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "flowvar.cli", *argv, "--config", str(ini)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        f"runtime failure: posterior variance is not finite at t = {t}"]
    assert {p.name: p.read_bytes() for p in out.iterdir()
            if p.is_file()} == before


def test_probe_block_bounds_are_checked_before_any_work(tmp_path, capsys):
    """Sizes past the bounds are refused before a model is read or anything
    drawn; none of them is ever requested."""
    out = tmp_path / "fresh"
    ini = tmp_path / "f.ini"
    for probes in ("0", "4097", "99999999999999999999"):
        ini.write_text(FAST_INI.format(out=out).replace(
            "probes = 8", f"probes = {probes}"))
        capsys.readouterr()
        assert main(["oracle-check", "--config", str(ini)]) == 1, probes
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: probe count must be positive and at most "
                       f"4096, got {probes}"], err
    for key, value, message in (
            ("ensemble_members = 2", "65", "ensemble needs 2 to 64 members"),
            ("ensemble_members = 2", "99999999999999999999", "members"),
            ("dropout_passes = 6", "4097", "mc-dropout needs 2 to 4096"),
            ("dropout_passes = 6", "99999999999999999999", "passes")):
        ini.write_text(FAST_INI.format(out=out).replace(
            key, key.split(" = ")[0] + " = " + value))
        capsys.readouterr()
        for argv in (["train", "ensemble"], ["consistency"], ["cost"]):
            assert main([*argv, "--config", str(ini)]) == 1, (argv, value)
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and message in err[0], (argv, err)
    ini.write_text(FAST_INI.format(out=out))
    # no model exists, so each must fail on its flag, not the missing model
    bad_s, bad_r = "probe counts must be positive", "--replicates must lie in"
    bad_n = "--n must be at least 2 and at most 4096"
    for argv, message in (
            (["ablate-probes", "--S", "0,4"], bad_s),
            (["ablate-probes", "--S", "4,4097"], bad_s),
            (["ablate-probes", "--S", "99999999999"], bad_s),
            (["ablate-probes", "--S", "0"], bad_s),
            (["ablate-probes", "--replicates", "0"], bad_r),
            (["ablate-probes", "--replicates", "10000000000"], bad_r),
            (["consistency", "--n", "1"], bad_n),
            (["consistency", "--n", "4097"], bad_n),
            (["consistency", "--n", "99999999999999999999"], bad_n)):
        capsys.readouterr()
        assert main([*argv, "--config", str(ini)]) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], (argv, err)
    assert main(["ablate-probes", "--config", str(ini), "--S", "4096"]) == 1
    assert "model not found" in capsys.readouterr().err
    # a refused flag, config or missing model leaves no output directory
    assert not out.exists()


def test_truncated_model_exits_one_with_one_line(workspace, tmp_path,
                                                 capsys):
    ini, out = workspace
    blob = (out / "model_fm.fvar").read_bytes()
    bad = tmp_path / "bad"
    bad.mkdir()
    path = bad / "model_fm.fvar"
    for cut in (10, 30, 45, len(blob) - 60, len(blob) - 1):
        path.write_bytes(blob[:cut])
        capsys.readouterr()
        assert main(["uq", "tweedie", "--config", str(ini), "--out",
                     str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {path}: truncated container: ")


@pytest.mark.parametrize("argv", [
    ["uq", "tweedie"], ["uq", "onestep"], ["uq", "ensemble"],
    ["uq", "mc-dropout"], ["traj"], ["ablate-probes"],
    ["consistency", "--n", "2"]])
def test_model_of_another_dimension_exits_one_with_one_line(
        workspace, tmp_path, capsys, argv):
    """The gmm workspace's 2-d models under a bars (d = 64) config are
    refused as unusable model files, before any output is written."""
    _, out = workspace
    ini = tmp_path / "bars.ini"
    ini.write_text(FAST_INI.format(out=out).replace(
        "kind = gmm\nmeans = 0.5 0 ; 3.5 0\nsigma = 0.15",
        "kind = bars\nside = 8"))
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert main([*argv, "--config", str(ini)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out}"), err
    assert err[0].endswith(".fvar: model dim 2 != task dim 64"), err
    assert sorted(p.name for p in out.iterdir()) == before


def test_uq_onestep_rejects_t(workspace, capsys):
    ini, _ = workspace
    capsys.readouterr()
    assert main(["uq", "onestep", "--config", str(ini), "--t", "0.5"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --t does not apply to onestep: it reads x0 at t = epsilon"]


@pytest.mark.parametrize("nested", [False, True])
def test_out_that_cannot_be_a_directory_exits_one_with_one_line(
        tmp_path, capsys, nested):
    """An output directory naming a file (given by --out), or a path under
    one (given by [experiment] out), is refused on one line and leaves the
    file as it was."""
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "run" if nested else taken
    ini = tmp_path / "f.ini"
    ini.write_text(FAST_INI.format(out=out if nested else tmp_path / "unused"))
    flag = [] if nested else ["--out", str(out)]
    capsys.readouterr()
    assert main(["train", "fm", "--config", str(ini), *flag]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: cannot make output directory {out}: "), err
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize("argv, means, message", [
    (["train", "fm"], "1e200 0 ; 3.5 0", "runtime failure: non-finite loss"),
    (["oracle-check"], "1e308 0 ; 3.5 0",
     "runtime failure: posterior variance is not finite at t = 0.7"),
])
def test_overflowing_means_fail_with_one_stderr_line(tmp_path, argv, means,
                                                     message):
    """Means that overflow the training loss or the oracle's derivatives end
    the run on its failure line, with no warning before it from this process
    or a training worker."""
    ini = tmp_path / "huge.ini"
    ini.write_text(FAST_INI.format(out=tmp_path / "run").replace(
        "means = 0.5 0 ; 3.5 0", f"means = {means}"))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "flowvar.cli", *argv, "--config", str(ini)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err


def test_hostile_models_exit_cleanly(workspace, tmp_path, capsys):
    """Saved models whose head parameters overflow, as a flipped exponent
    bit would make them (head weights times 1e200, head biases 1e200), give
    finite velocities near 1e200. Every command that reads them exits 0, 1
    or 2, a failure on one stderr line, with no numpy warning; the
    variances, error maps and spreads they overflow are refused."""
    ini, out = workspace
    run = tmp_path / "run"
    run.mkdir()
    for path in out.glob("model_*.fvar"):
        model = load_model(path)
        model.weights[-1][:] *= 1e200
        model.biases[-1][:] = 1e200
        save_model(run / path.name, model)
    codes = {}
    for argv in (["uq", "tweedie"], ["uq", "onestep"], ["uq", "ensemble"],
                 ["uq", "mc-dropout"], ["traj"], ["consistency", "--n", "4"],
                 ["ablate-probes"]):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--config", str(ini), "--out", str(run)])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code in (0, 1, 2), argv
        assert code == 0 or len(err) == 1, (argv, err)
        assert "Warning" not in captured.out + captured.err, argv
        codes[" ".join(argv[:2])] = code, err
    for argv in ("uq ensemble", "uq mc-dropout", "consistency --n",
                 "ablate-probes"):
        code, err = codes[argv]
        assert code == 2 and err[0].startswith("runtime failure: "), argv


def test_oracle_check_rejects_image_task(tmp_path, capsys):
    ini = tmp_path / "bars.ini"
    ini.write_text("[experiment]\nout = " + str(tmp_path / "o") +
                   "\n[task]\nkind = bars\n")
    assert main(["oracle-check", "--config", str(ini)]) == 1
    assert "gmm" in capsys.readouterr().err


def test_seed_override_changes_outputs(workspace, tmp_path):
    ini, out = workspace
    base = (out / "ablate.csv").read_bytes()
    assert main(["ablate-probes", "--config", str(ini), "--S", "4,16",
                 "--replicates", "3", "--seed", "8"]) == 0
    assert (out / "ablate.csv").read_bytes() != base


def test_image_task_uq_emits_pgm(tmp_path):
    ini = tmp_path / "bars.ini"
    out = tmp_path / "runb"
    ini.write_text(f"""
[experiment]
out = {out}
seed = 3

[task]
kind = bars
side = 8

[training]
epochs = 2
pairs_per_epoch = 512

[uq]
t_grid = 0.5
probes = 8

[methods]
use = tweedie-fm
""")
    assert main(["train", "fm", "--config", str(ini)]) == 0
    assert main(["uq", "tweedie", "--config", str(ini)]) == 0
    px = read_pgm(out / "uq_tweedie_t0.pgm")
    assert px.shape == (8, 8)


def test_method_table_covers_known_methods():
    # the CLI's table is the library's, not a copy of it
    assert METHODS is metrics.METHODS
    assert all(name == m.name for name, m in METHODS.items())
    assert len({m.uq for m in METHODS.values()}) == len(METHODS)


def test_cli_and_library_run_each_method_alike(workspace):
    """`consistency` writes the rows of consistency_protocol on the public
    method factories, and `uq tweedie` the u and floored of cov_closed_form,
    on the same saved models, states and streams."""
    ini, out = workspace
    cfg = load_config(ini)
    task = cfg.build_task()
    fields = {stem: ModelField(load_model(out / f"model_{stem}.fvar"))
              for stem in ("fm", "onestep", "member_0", "member_1",
                           "dropout")}
    methods = {
        "tweedie-fm": tweedie_method(fields["fm"], cfg.probes),
        "tweedie-onestep": one_step_method(fields["onestep"], cfg.probes,
                                           cfg.epsilon),
        "ensemble": ensemble_method([fields["member_0"],
                                     fields["member_1"]]),
        "mc-dropout": dropout_method(fields["dropout"], cfg.dropout_passes),
    }
    assert main(["consistency", "--config", str(ini), "--n", "8",
                 "--noise", "0.5"]) == 0
    results = consistency_protocol(fields["fm"], methods, task, cfg.t_grid,
                                   0.5, RngState(cfg.seed).split(12),
                                   n_samples=8)
    cell = lambda v: "" if v is None else format_float(v)
    assert (out / "consistency.csv").read_text().splitlines()[1:] == [
        ",".join(["consistency-v1", r.method, cell(r.t), str(cfg.seed),
                  str(getattr(cfg, METHODS[r.method].size)),
                  cell(r.pixel_spearman), cell(r.hitrate),
                  cell(r.sample_spearman), str(r.n_samples),
                  str(r.n_missing)])
        for r in results]

    assert main(["uq", "tweedie", "--config", str(ini)]) == 0
    rows = [line.split(",") for line in
            (out / "uq_tweedie.csv").read_text().splitlines()[1:]]
    x0s, x1s = task.sample_pairs(RngState(cfg.seed).split(8), 16)
    probe_rng = RngState(cfg.seed).split(9)
    expected = []
    for ti, t in enumerate(cfg.t_grid):
        for i in range(16):
            est = cov_closed_form(
                fields["fm"], t * x1s[i] + (1.0 - t) * x0s[i], t,
                draw_rademacher(probe_rng.split(ti).split(i), task.dim,
                                cfg.probes))
            expected.append([format_float(est.u), str(int(est.floored))])
    assert [row[6:8] for row in rows] == expected


def test_train_and_cost_train_each_method_alike(tmp_path, monkeypatch):
    """`train` and `cost` give every model the same architecture, initial
    parameters (the init stream) and TrainConfig (train stream, objective)."""
    calls = []
    real_train = training.train

    def spy(model, task, config):
        calls.append((model.arch, model.checksum(), config))
        return real_train(model, task, config)

    monkeypatch.setattr(training, "train", spy)
    # the spy sees only what trains in this process
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
    ini = tmp_path / "fast.ini"
    ini.write_text(FAST_INI.format(out=tmp_path / "run"))
    for variant in ("fm", "one-step", "ensemble"):
        assert main(["train", variant, "--config", str(ini)]) == 0
    trained, calls[:] = list(calls), []
    assert main(["cost", "--config", str(ini)]) == 0
    # fm, its dropout twin, one-step and the two ensemble members
    assert len(trained) == 5
    key = lambda call: call[1]
    assert sorted(calls, key=key) == sorted(trained, key=key)
    assert sorted(c[2].objective for c in trained) == ["fm"] * 4 + ["one-step"]
    assert sorted(c[0].dropout for c in trained) == [0.0] * 4 + [0.15]


GATE_INI = """
[experiment]
out = {out}
seed = 4

[task]
kind = bars
side = 8

[model]
hidden = 32

[training]
epochs = 1
pairs_per_epoch = 512

[uq]
t_grid = 0.3 0.7
probes = 8

[methods]
use = {methods}
dropout_passes = 50
"""


def _gate_outputs(root, commands, methods="tweedie-fm mc-dropout"):
    """Every CSV, graymap and model file of a tiny bars run of ``commands``,
    by name."""
    root.mkdir()
    ini = root / "gate.ini"
    out = root / "run"
    ini.write_text(GATE_INI.format(out=out, methods=methods))
    for argv in commands:
        assert main(argv + ["--config", str(ini)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".pgm", ".fvar")}


def test_in_place_training_writes_the_bytes_of_the_allocating_step(
        tmp_path, monkeypatch):
    """The flat-vector training step is a refactor: with the allocating
    per-array AdamW, backward and full-epoch initial loss put back, every
    trained model and loss curve keeps its bytes."""
    from test_training import use_reference_training

    # models train in this process, where the patches reach them
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
    commands = [["train", variant]
                for variant in ("fm", "one-step", "ensemble")]
    in_place = _gate_outputs(tmp_path / "in_place", commands)
    calls = use_reference_training(monkeypatch)
    reference = _gate_outputs(tmp_path / "reference", commands)
    assert all(calls.values()), calls
    assert {"train_fm.csv", "train_onestep.csv", "train_ensemble.csv",
            "model_fm.fvar", "model_dropout.fvar", "model_onestep.fvar",
            "model_member_0.fvar"} <= set(in_place)
    assert sorted(in_place) == sorted(reference)
    for name, data in in_place.items():
        assert data == reference[name], name


def test_worker_count_leaves_every_output_byte_alike(tmp_path, monkeypatch):
    """train and cost write the same models and CSVs on 1 and 2 worker
    processes; only the wall-clock summaries differ."""
    commands = [["train", "ensemble"], ["train", "fm"], ["cost"]]
    methods = "tweedie-fm tweedie-onestep ensemble mc-dropout"
    runs = []
    for cpus in (1, 2):
        with monkeypatch.context() as mp:
            mp.setattr(training, "_usable_cpus", lambda: cpus)
            runs.append(_gate_outputs(tmp_path / f"cpus{cpus}", commands,
                                      methods))
    assert {"train_ensemble.csv", "train_fm.csv", "cost.csv", "model_fm.fvar",
            "model_dropout.fvar", "model_member_4.fvar"} <= set(runs[0])
    assert sorted(runs[0]) == sorted(runs[1])
    for name, data in runs[0].items():
        assert data == runs[1][name], name


def test_worker_training_failure_exits_two_with_one_line(tmp_path, capsys,
                                                         monkeypatch):
    ini = tmp_path / "diverge.ini"
    ini.write_text(FAST_INI.format(out=tmp_path / "run").replace(
        "batch_size = 128", "batch_size = 128\nlearning_rate = 1e8"))
    errs = []
    for cpus in (1, 2):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        capsys.readouterr()
        assert main(["train", "fm", "--config", str(ini)]) == 2
        errs.append(capsys.readouterr().err.splitlines())
    assert len(errs[0]) == 1 and errs[0][0].startswith(
        "runtime failure: training diverged at epoch 0")
    assert errs[1] == errs[0]
