"""Acceptance gate: twelve criteria with pinned tolerances.

Each test prints exactly one pass/fail line (visible even under capture) and
then asserts, so a red criterion is both human-readable in the log and a
hard test failure. Tolerances are fixed constants; they were frozen against
independent reference computations before the estimators were wired in.
"""
import time

import numpy as np

from flowvar.baselines import ensemble_uq, mc_dropout_uq
from flowvar.cli import main
from flowvar.data import GmmTask
from flowvar.metrics import (consistency_protocol, dropout_method,
                             ensemble_method, hitrate_at_k, spearman,
                             tweedie_method)
from flowvar.models import (EvalCounter, MlpArch, MlpVelocity, ModelField,
                            analytic_handle)
from flowvar.numerics import RngState, draw_rademacher, exhaustive_sign_probes
from flowvar.oracle import GmmSpec, gmm_posterior, sample_pairs
from flowvar.uq import (cov_closed_form, one_step_cov,
                        posterior_mean_from_velocity, prior_baseline)

from refs import step_buffers


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d} [{name}]: "
              f"{'PASS' if ok else 'FAIL'} - {detail}")


def _seeded_spec(rng: RngState, k: int, d: int) -> GmmSpec:
    g = rng.generator()
    means = g.standard_normal((k, d)) * 1.5
    sigs = 0.3 + 0.5 * g.random(k)
    w = g.random(k) + 0.5
    return GmmSpec(weights=w / w.sum(), means=means, variances=sigs ** 2)


def test_criterion_01_closed_form_matches_conjugacy_oracle(capsys):
    """Exact identity on analytic mixtures: relative Frobenius <= 1e-5."""
    t0 = time.perf_counter()
    worst = 0.0
    rng = RngState(101)
    for ci, (k, d) in enumerate((k, d) for k in (1, 2, 3) for d in (1, 2, 4)):
        spec = _seeded_spec(rng.split(ci), k, d)
        field = analytic_handle(spec)
        probes = exhaustive_sign_probes(d)
        for t in np.arange(0.1, 0.95, 0.1):
            t = float(t)
            for comp in range(k):
                center = t * spec.means[comp]
                sig_t = np.sqrt(t * t * spec.variances[comp]
                                + (1.0 - t) ** 2)
                offsets = (0.0, -3.0 * sig_t, 3.0 * sig_t)
                for off in offsets:
                    xt = center.copy()
                    xt[0] += off
                    est = cov_closed_form(field, xt, t, probes,
                                          materialize_full=True)
                    ref = gmm_posterior(spec, xt, t).covariance
                    err = np.linalg.norm(est.full - ref) / np.linalg.norm(ref)
                    assert np.isfinite(err), (t, off)  # max() drops a NaN
                    worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    _verdict(capsys, 1, "oracle equivalence", ok,
             f"max rel Frobenius {worst:.2e} (tol 1e-5), {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 10.0


def _mc_posterior_cov(spec, xt, t, n_draws, n_blocks, rng):
    """Self-normalized importance sampling of Cov(x1 | xt), blockwise.

    Proposal is the data mixture itself; the weight is the interpolant
    likelihood N(xt; t x1, (1-t)^2 I). Returns (mean, standard error) of the
    covariance over blocks.
    """
    per = n_draws // n_blocks
    covs = []
    for b in range(n_blocks):
        _, x1 = sample_pairs(spec, rng.split(b), per)
        resid = xt[None, :] - t * x1
        logw = -(resid ** 2).sum(axis=1) / (2.0 * (1.0 - t) ** 2)
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        m = w @ x1
        c = x1 - m
        covs.append(np.einsum("n,nd,ne->de", w, c, c))
    covs = np.stack(covs)
    return covs.mean(0), covs.std(0, ddof=1) / np.sqrt(n_blocks)


def test_criterion_02_monte_carlo_cross_check(capsys):
    """Importance-sampled covariance agrees with oracle and closed form
    within 4 MC standard errors at 12 seeded (spec, xt, t) tuples."""
    t0 = time.perf_counter()
    rng = RngState(2024)
    fails, zworst = 0, 0.0
    for trial in range(12):
        tr = rng.split(trial)
        g = tr.generator()
        k, d = int(g.integers(1, 4)), int(g.integers(1, 3))
        means = g.standard_normal((k, d)) * 1.5
        sigs = 0.3 + 0.5 * g.random(k)
        w = g.random(k) + 0.5
        spec = GmmSpec(weights=w / w.sum(), means=means, variances=sigs ** 2)
        t = float(0.2 + 0.6 * g.random())
        x0, x1 = sample_pairs(spec, tr.split(100), 1)
        xt = (t * x1 + (1.0 - t) * x0)[0]

        mc, se = _mc_posterior_cov(spec, xt, t, 100_000, 50, tr.split(200))
        ref = gmm_posterior(spec, xt, t).covariance
        est = cov_closed_form(analytic_handle(spec), xt, t,
                              exhaustive_sign_probes(d),
                              materialize_full=True)
        band = 4.0 * se + 1e-12
        if not np.all(np.abs(mc - ref) <= band):
            fails += 1
        if not np.all(np.abs(mc - est.full) <= band):
            fails += 1
        z = float(np.max(np.abs(mc - ref) / np.maximum(se, 1e-300)))
        assert np.isfinite(z), z
        zworst = max(zworst, z)
    elapsed = time.perf_counter() - t0
    ok = fails == 0 and elapsed < 60.0
    _verdict(capsys, 2, "monte-carlo cross-check", ok,
             f"12 tuples, max z {zworst:.2f} (band 4), {elapsed:.1f}s")
    assert fails == 0
    assert elapsed < 60.0


def test_criterion_03_standard_gaussian_closed_forms(capsys):
    """K=1 standard normal: covariance (1-t)^2/(t^2+(1-t)^2) I to 1e-8."""
    spec = GmmSpec.standard_normal(2)
    field = analytic_handle(spec)
    probes = exhaustive_sign_probes(2)
    expected = {0.25: 0.9, 0.5: 0.5, 0.75: 0.1}
    worst = 0.0
    for t, c in expected.items():
        est = cov_closed_form(field, np.array([0.4, -1.1]), t, probes,
                              materialize_full=True)
        dev = float(np.max(np.abs(est.full - c * np.eye(2))))
        assert np.isfinite(dev), t
        worst = max(worst, dev)
    ok = worst <= 1e-8
    _verdict(capsys, 3, "isotropic closed forms", ok,
             f"max abs deviation {worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_04_small_time_limit_is_marginal_covariance(capsys):
    """one_step_cov at eps=1e-6 recovers the mixture marginal covariance."""
    spec = _seeded_spec(RngState(404), 3, 2)
    mu_bar = spec.weights @ spec.means
    marg = sum(w * (v * np.eye(2) + np.outer(m, m))
               for w, m, v in zip(spec.weights, spec.means, spec.variances))
    marg -= np.outer(mu_bar, mu_bar)
    target = float(np.trace(marg))
    field = analytic_handle(spec)
    probes = exhaustive_sign_probes(2)
    worst = 0.0
    for x0 in (np.zeros(2), np.array([0.7, -0.3])):
        est = one_step_cov(field, x0, 1e-6, probes)
        rel = abs(est.u - target) / target
        assert np.isfinite(rel), x0
        worst = max(worst, rel)
    ok = worst <= 1e-3
    _verdict(capsys, 4, "small-time limit", ok,
             f"trace rel error {worst:.2e} vs marginal (tol 1e-3)")
    assert worst <= 1e-3


def _randomized_model(arch: MlpArch, rng: RngState) -> MlpVelocity:
    # init leaves the head at zero; randomize it so the field is generic
    model = MlpVelocity.init(arch, rng)
    g = rng.split(999).generator()
    model.weights[-1][:] = g.standard_normal(model.weights[-1].shape) * 0.3
    model.biases[-1][:] = g.standard_normal(model.biases[-1].shape) * 0.1
    return model


def test_criterion_05_jvp_and_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = RngState(505)
    worst_jvp = 0.0
    n_tuple = 0
    for mi in range(10):
        act = "tanh" if mi % 2 == 0 else "relu"
        d = (2, 5, 8)[mi % 3]
        arch = MlpArch(dim=d, hidden=24, depth=2, n_freq=4, activation=act)
        model = _randomized_model(arch, rng.split(mi))
        g = rng.split(mi).split(1).generator()
        for _ in range(10):
            x = g.standard_normal(d)
            t = float(0.1 + 0.8 * g.random())
            u = g.standard_normal(d)
            ju = model.jvp(x, t, u)
            h = 1e-5
            fd = (model.velocity(x + h * u, t)
                  - model.velocity(x - h * u, t)) / (2.0 * h)
            rel = np.linalg.norm(ju - fd) / max(np.linalg.norm(fd), 1e-12)
            assert np.isfinite(rel), (mi, t)
            worst_jvp = max(worst_jvp, float(rel))
            n_tuple += 1

    worst_grad = 0.0
    for mi in range(20):
        arch = MlpArch(dim=3, hidden=12, depth=2, n_freq=3,
                       activation="tanh")
        model = _randomized_model(arch, rng.split(100 + mi))
        g = rng.split(100 + mi).split(1).generator()
        x = g.standard_normal((4, 3))
        t = float(0.2 + 0.6 * g.random())
        y = g.standard_normal((4, 3))

        def loss(m):
            return 0.5 * float(((m.velocity(x, t) - y) ** 2).sum())

        bufs = step_buffers(model, 4)
        out, cache = model.forward_cache(x, t, None, bufs)
        d_ws, d_bs = model.backward(cache, out - y, np.empty(model.n_params),
                                    bufs)
        for li, coord in ((0, (0, 0)), (1, (3, 2)), (2, (1, 4))):
            h = 1e-6
            pert = model.copy()
            pert.weights[li][coord] += h
            up = loss(pert)
            pert.weights[li][coord] -= 2.0 * h
            down = loss(pert)
            fd = (up - down) / (2.0 * h)
            rel = abs(d_ws[li][coord] - fd) / max(abs(fd), 1e-10)
            assert np.isfinite(rel), (mi, li)
            worst_grad = max(worst_grad, float(rel))
    elapsed = time.perf_counter() - t0
    ok = worst_jvp <= 1e-4 and worst_grad <= 1e-5 and elapsed < 30.0
    _verdict(capsys, 5, "jvp and gradient correctness", ok,
             f"jvp rel {worst_jvp:.2e} (tol 1e-4) over {n_tuple} tuples, "
             f"grad rel {worst_grad:.2e} (tol 1e-5), {elapsed:.1f}s")
    assert worst_jvp <= 1e-4
    assert worst_grad <= 1e-5
    assert elapsed < 30.0


def test_criterion_06_probe_statistics_on_trained_model(capsys, bars_fm,
                                                        bars_task):
    """Sign-probe divergence estimates: unbiased, 1/sqrt(S) error decay,
    and stable by S=64 on a trained toy-image model."""
    t0 = time.perf_counter()
    model, _ = bars_fm
    field = ModelField(model)
    rng = RngState(33)
    x0s, x1s = bars_task.sample_pairs(rng.split(0), 1)
    t = 0.5
    xt = (t * x1s + (1.0 - t) * x0s)[0]
    div_true = float(np.trace(model.jacobian(xt, t)))

    ests = []
    for r in range(400):
        probes = draw_rademacher(rng.split(1).split(r), 64, 4)
        jv = field.jvp(xt, t, probes.probes)
        ests.append(float((probes.probes * jv).sum() / 4))
    ests = np.asarray(ests)
    se = ests.std(ddof=1) / np.sqrt(ests.shape[0])
    z = abs(ests.mean() - div_true) / se

    s_list = (4, 16, 64, 256)
    rmses = []
    for si, s in enumerate(s_list):
        errs = []
        for r in range(100):
            probes = draw_rademacher(rng.split(2).split(si).split(r), 64, s)
            jv = field.jvp(xt, t, probes.probes)
            errs.append(float((probes.probes * jv).sum() / s) - div_true)
        rmses.append(np.sqrt(np.mean(np.square(errs))))
    slope = float(np.polyfit(np.log(s_list), np.log(rmses), 1)[0])

    u_ref = cov_closed_form(field, xt, t,
                            draw_rademacher(rng.split(3), 64, 1024)).u
    rels = []
    for s in range(10):
        p64 = draw_rademacher(rng.split(4).split(s), 64, 64)
        p1024 = draw_rademacher(rng.split(5).split(s), 64, 1024)
        rels.append(abs(cov_closed_form(field, xt, t, p64).u
                        - cov_closed_form(field, xt, t, p1024).u) / u_ref)
    rel64 = max(rels)
    elapsed = time.perf_counter() - t0
    ok = z <= 4.0 and -0.6 <= slope <= -0.4 and rel64 <= 0.02 \
        and elapsed < 300.0
    _verdict(capsys, 6, "probe estimator statistics", ok,
             f"unbiasedness z {z:.2f} (band 4), decay slope {slope:.3f} "
             f"(target -0.5 +/- 0.1), S=64 vs 1024 max rel {rel64:.4f} "
             f"(tol 0.02), {elapsed:.1f}s")
    assert z <= 4.0
    assert -0.6 <= slope <= -0.4
    assert rel64 <= 0.02
    assert elapsed < 300.0


def test_criterion_07_trained_field_beats_prior_baseline(capsys, gmm_fm,
                                                         gmm_task):
    """Mean U of the trained fm model sits strictly below (1-t)^2 d / t."""
    model, _ = gmm_fm
    field = ModelField(model)
    rng = RngState(707)
    x0s, x1s = gmm_task.sample_pairs(rng.split(0), 16)
    ratios = {}
    for ti, t in enumerate((0.3, 0.5, 0.7, 0.9)):
        xts = t * x1s + (1.0 - t) * x0s
        us = []
        for i in range(16):
            probes = draw_rademacher(rng.split(1).split(ti).split(i), 2, 50)
            us.append(cov_closed_form(field, xts[i], t, probes).u)
        ratios[t] = float(np.mean(us)) / prior_baseline(t, gmm_task.dim)
    ok = all(r < 1.0 for r in ratios.values())
    gaps = " ".join(f"t={t:g}:{r:.3f}" for t, r in ratios.items())
    _verdict(capsys, 7, "contraction below prior", ok,
             f"mean-U / prior ratios {gaps} (all must be < 1)")
    assert ok, ratios


def test_criterion_08_uncertainty_tracks_prediction_error(capsys, hetero_fm,
                                                          hetero_gmm_task):
    """Sample-level Spearman between U and squared error > 0.2 at t=0.5."""
    model, _ = hetero_fm
    field = ModelField(model)
    methods = {"tweedie-fm": tweedie_method(field, 50)}
    # the protocol's sample-level score on clean data (noise level 0)
    (row,) = consistency_protocol(field, methods, hetero_gmm_task, (0.5,),
                                  0.0, RngState(7), n_samples=64)
    rho = row.sample_spearman
    ok = rho is not None and rho > 0.2
    _verdict(capsys, 8, "error correlation", ok,
             f"sample spearman {rho:.3f} over 64 held-out samples "
             "(threshold 0.2)")
    assert ok, rho


def test_criterion_09_corruption_consistency_collapse_pattern(
        capsys, bars_fm, bars_dropout, bars_ensemble, bars_task):
    """Under 50% corruption the closed-form map stays aligned with the error
    across t while at least one sampling baseline degrades."""
    t0 = time.perf_counter()
    field = ModelField(bars_fm[0])
    methods = {
        "tweedie-fm": tweedie_method(field, 64),
        "ensemble": ensemble_method([ModelField(m) for m in bars_ensemble[0]]),
        "mc-dropout": dropout_method(bars_dropout[0], 50),
    }
    rows = consistency_protocol(field, methods, bars_task,
                                (0.3, 0.5, 0.7, 0.9), 0.5, RngState(12),
                                n_samples=64)
    by = {(r.method, r.t): r for r in rows}
    pix = [by[("tweedie-fm", t)].pixel_spearman for t in (0.3, 0.5, 0.7, 0.9)]
    pix_ok = all(p is not None and p > 0.0 for p in pix)

    def drop(method):
        a = by[(method, 0.3)].sample_spearman
        b = by[(method, 0.9)].sample_spearman
        return None if a is None or b is None else a - b

    d_tw = drop("tweedie-fm")
    stable_ok = d_tw is not None and d_tw <= 0.1
    base_drops = {m: drop(m) for m in ("ensemble", "mc-dropout")}
    collapse_ok = any(d is not None and d > 0.1 for d in base_drops.values())
    elapsed = time.perf_counter() - t0
    ok = pix_ok and stable_ok and collapse_ok
    pix_txt = "/".join("-" if p is None else f"{p:.3f}" for p in pix)
    drops_txt = " ".join(f"{m}:{'-' if d is None else format(d, '.3f')}"
                         for m, d in base_drops.items())
    _verdict(capsys, 9, "consistency under corruption", ok,
             f"pixel spearman {pix_txt} (all > 0), tweedie drop "
             f"{d_tw:.3f} (<= 0.1), baseline drops {drops_txt} "
             f"(one > 0.1), {elapsed:.1f}s")
    assert pix_ok, pix
    assert stable_ok, d_tw
    assert collapse_ok, base_drops


def test_criterion_10_single_pass_cost_audit(capsys):
    """one_step_cov costs exactly S forward-equivalents and no sampler
    steps; the baselines cost one forward per member / pass."""
    arch = MlpArch(dim=6, hidden=16, depth=2, n_freq=4)
    rng = RngState(10)
    x = rng.generator().standard_normal(6)

    s = 32
    counter = EvalCounter()
    field = ModelField(_randomized_model(arch, rng.split(0)), counter)
    one_step_cov(field, x, 0.01, draw_rademacher(rng.split(1), 6, s))
    one_ok = (counter.forward_equivalents == s
              and counter.sampler_steps == 0)

    m = 5
    counter_e = EvalCounter()
    members = [ModelField(_randomized_model(arch, rng.split(10 + i)),
                          counter_e) for i in range(m)]
    ensemble_uq(members, x, 0.5)
    ens_ok = counter_e.forward_equivalents == m

    p = 11
    counter_d = EvalCounter()
    drop_arch = MlpArch(dim=6, hidden=16, depth=2, n_freq=4, dropout=0.2)
    handle = ModelField(_randomized_model(drop_arch, rng.split(30)),
                        counter_d)
    mc_dropout_uq(handle, x, 0.5, p, rng.split(31))
    dro_ok = counter_d.forward_equivalents == p

    ok = one_ok and ens_ok and dro_ok
    _verdict(capsys, 10, "single-pass audit", ok,
             f"one-step {counter.forward_equivalents}=={s} fwd-eq with "
             f"{counter.sampler_steps} sampler steps, ensemble "
             f"{counter_e.forward_equivalents}=={m}, dropout "
             f"{counter_d.forward_equivalents}=={p}")
    assert one_ok
    assert ens_ok
    assert dro_ok


def test_criterion_11_metric_reference_values(capsys):
    """Hand-checked rank-metric values, plus stub runs of the protocol."""
    checks = [
        abs(spearman([1, 2, 3], [10, 20, 30]) - 1.0) < 1e-12,
        abs(spearman([1, 2, 3], [30, 20, 10]) + 1.0) < 1e-12,
        abs(spearman([1, 2, 3, 4], [1, 2, 4, 3]) - 0.8) < 1e-12,
        hitrate_at_k(np.arange(10.0), np.arange(10.0), 30.0) == 1.0,
        hitrate_at_k(np.arange(10.0), -np.arange(10.0), 30.0) == 0.0,
    ]
    u = np.arange(10.0)
    e = u.copy()
    e[7], e[4] = e[4], e[7]  # top-3 sets {9,8,7} vs {9,8,4}: overlap 2
    checks.append(round(hitrate_at_k(u, e, 30.0), 4) == 0.6667)

    # self-agreement stub: the UQ map IS the error map, so both pixel
    # metrics hit their maximum at every t with zero corruption
    spec = GmmSpec.isotropic([[0.5, 0.0], [3.5, 0.0]], 0.15)
    task = GmmTask(spec)
    field = analytic_handle(spec)
    proto_rng = RngState(11)
    x0s, x1s = task.sample_pairs(proto_rng.split(0), 8)

    def echo_error(xt, t, rng):
        idx = int(np.argmin(
            np.sum((t * x1s + (1.0 - t) * x0s - xt) ** 2, axis=1)))
        vhat = field.velocity(xt, t)
        err = (posterior_mean_from_velocity(xt, t, vhat) - x1s[idx]) ** 2
        return err, float(err.sum())

    rows = consistency_protocol(field, {"echo": echo_error}, task,
                                (0.3, 0.5, 0.7, 0.9), 0.0, proto_rng,
                                n_samples=8)
    checks.append(all(abs(r.pixel_spearman - 1.0) < 1e-12
                      and r.hitrate == 1.0 for r in rows))

    # a pure-noise score carries no ranking signal: |rho| stays inside the
    # 3-sigma null band for n=64
    def noise(xt, t, rng):
        vals = rng.generator().standard_normal(xt.shape[0]) ** 2
        return vals, float(vals.sum())

    (null,) = consistency_protocol(field, {"noise": noise}, task, (0.5,),
                                   0.0, RngState(64), n_samples=64)
    checks.append(abs(null.sample_spearman) <= 0.35)

    ok = all(checks)
    _verdict(capsys, 11, "metric reference values", ok,
             f"{sum(checks)}/{len(checks)} pinned checks exact "
             f"(null rho {null.sample_spearman:.3f}, band 0.35)")
    assert ok, checks


def test_criterion_12_cli_reruns_are_byte_identical(capsys, tmp_path):
    """Same config and seed: every CSV and graymap is byte-identical."""
    ini = tmp_path / "exp.ini"
    ini.write_text(f"""
[experiment]
out = {tmp_path / 'unused'}
seed = 5

[task]
kind = bars
side = 8

[training]
epochs = 2
pairs_per_epoch = 512

[uq]
t_grid = 0.3 0.7
probes = 16

[methods]
use = tweedie-fm
""")
    outs = (tmp_path / "run_a", tmp_path / "run_b")
    for out in outs:
        assert main(["train", "fm", "--config", str(ini),
                     "--out", str(out)]) == 0
        assert main(["uq", "tweedie", "--config", str(ini),
                     "--out", str(out)]) == 0
        assert main(["ablate-probes", "--config", str(ini),
                     "--out", str(out), "--S", "4,16",
                     "--replicates", "2"]) == 0
    a_files = sorted(p.name for p in outs[0].iterdir()
                     if p.suffix in (".csv", ".pgm"))
    b_files = sorted(p.name for p in outs[1].iterdir()
                     if p.suffix in (".csv", ".pgm"))
    same_set = a_files == b_files and len(a_files) > 0
    diffs = [name for name in a_files
             if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()]
    ok = same_set and not diffs
    _verdict(capsys, 12, "byte-identical reruns", ok,
             f"{len(a_files)} artifacts compared, "
             f"{'no differences' if not diffs else 'diffs: ' + str(diffs)}")
    assert same_set, (a_files, b_files)
    assert not diffs, diffs
