import math
from dataclasses import replace

import numpy as np
import pytest

from baradapt import analysis
from baradapt.barrier import component_bounds
from baradapt.cli import load_config, scenario_summary
from baradapt.model import benchmark_plant
from baradapt.sim import GroupConfig, TrajectoryLog, build_context, run_scenario


def test_lyapunov_hand_value():
    # 0.5*5 + 0.5*4/0.075 + 0.5*(2*0.25 + 4*0.25)
    got = analysis.lyapunov_value(
        e=[1.0, 2.0],
        theta_tilde=[1.0, 1.0, 1.0, 1.0],
        lambda_tilde=[0.5, -0.5],
        learning_rate=[0.075] * 4,
        gamma=[2.0, 4.0],
    )
    assert got == pytest.approx(2.5 + 2.0 / 0.075 + 0.75, rel=1e-14)


def test_lyapunov_without_multipliers():
    got = analysis.lyapunov_value([3.0, 4.0], np.zeros(4), np.empty(0),
                                  np.ones(4), np.empty(0))
    assert got == pytest.approx(12.5)
    with pytest.raises(ValueError):
        analysis.lyapunov_value([1.0], [1.0], [1.0], [-1.0], [1.0])
    with pytest.raises(ValueError):
        analysis.lyapunov_value([1.0], [1.0, 1.0], [1.0], [1.0], [1.0])
    with pytest.raises(ValueError, match="^gamma must match lambda_tilde in length$"):
        analysis.lyapunov_value([1.0], [1.0], [1.0, 1.0], [1.0], [1.0])


def test_uub_constants_frozen_algebra():
    # sec5a's gains: k = 10, P = 0.075, K_cl = (0.02, 0.5, 0.9, 0.02), one
    # component group with gamma_inv = (0.4, 0.1, 0.1, 0.9) per bound, alpha 0.1
    ctx = build_context(load_config("sec5a"))
    consts = analysis.uub_constants(ctx, sigma_bar1=10.0, lambda_star=np.ones(8))
    # Lambda_min = min(1/2, 1/(2*0.075), min(gamma)/2) with min(gamma) = 10/9
    assert consts.Lambda_min == pytest.approx(0.5)
    assert consts.Lambda_max == pytest.approx(0.5 / 0.075)
    # beta1 = min(k, min(k_cl)*sigma, (alpha/2)*min(gamma)) / Lambda_min
    assert consts.beta1 == pytest.approx((0.05 * 10.0 / 9.0) / 0.5, rel=1e-12)
    # beta2 = alpha^2 * min(gamma) * ||lambda*||^2 / (4 (alpha/2))
    assert consts.beta2 == pytest.approx(0.01 * (10.0 / 9.0) * 8.0 / 0.2, rel=1e-12)


def test_uub_constants_drop_terms():
    # sigma_bar1 = 0 marks the excitation assumption unmet and removes its
    # term instead of forcing beta1 to zero
    cfg = replace(load_config("sec5a"), control_gain=1.0, learning_rate=1.0, k_cl=1.0, groups=())
    ctx = build_context(cfg)
    consts = analysis.uub_constants(ctx, sigma_bar1=0.0, lambda_star=np.empty(0))
    assert consts.beta1 == pytest.approx(2.0)
    assert consts.beta2 == 0.0
    # with sigma_bar1 > 0 its term is the least, and no group adds any
    consts = analysis.uub_constants(ctx, sigma_bar1=0.25, lambda_star=np.empty(0))
    assert consts.beta1 == pytest.approx(0.5)
    assert (consts.Lambda_min, consts.Lambda_max) == (0.5, 0.5)


def test_uub_constants_without_multipliers():
    # a law without multipliers logs them at zero, so lambda* = 0 and
    # beta2 = 0; its groups' Gamma still bounds the quadratic form
    log = run_scenario(replace(load_config("sec5a"), law="gradient", t_final=0.3))
    lam_star = log.multipliers()[-1]
    assert lam_star.shape == (8,) and not lam_star.any()
    consts = analysis.uub_constants(log.context, 10.0, lam_star)
    assert consts.beta2 == 0.0
    assert consts.beta1 == pytest.approx((0.05 * 10.0 / 9.0) / 0.5, rel=1e-12)


def test_uub_constants_from_config():
    # Gamma is 1 / gamma_inv over every group (a length-p gamma_inv counts
    # once per bound), and alpha is the least over the groups, whichever
    # group holds it
    gamma = 1.0 / np.concatenate([np.tile([0.4, 0.1, 0.1, 0.9], 2), [0.05, 0.05]])
    base = load_config("sec5a")
    for alphas in [(0.1, 0.3), (0.3, 0.05)]:
        norm = GroupConfig(kind="norm", barrier="inverse", lower=15.0, upper=30.0,
                           gamma_inv=0.05, alpha=alphas[1], lambda0=5.0)
        log = run_scenario(replace(base, t_final=0.3,
                                   groups=(replace(base.groups[0], alpha=alphas[0]), norm)))
        sigma_bar1 = float(log.column("excitation")[-1])
        lam_star = log.multipliers()[-1]
        consts = analysis.uub_constants(log.context, sigma_bar1, lam_star)
        alpha = min(alphas)
        assert consts.Lambda_min == 0.5 and consts.Lambda_max == 10.0
        terms = [10.0, 0.02 * sigma_bar1] if sigma_bar1 > 0.0 else [10.0]
        beta1 = min(*terms, 0.5 * alpha * gamma.min()) / 0.5
        assert consts.beta1 == pytest.approx(beta1, rel=1e-12)
        beta2 = alpha * alpha * gamma.min() * float(lam_star @ lam_star) / (2.0 * alpha)
        assert consts.beta2 == pytest.approx(beta2, rel=1e-12) and consts.beta2 > 0.0
        summary = dict(line.split(": ", 1) for line in
                       scenario_summary(log, runtime_seconds=0.0).splitlines())
        for key in ("Lambda_min", "Lambda_max", "beta1", "beta2"):
            assert summary[f"uub_{key}"] == f"{getattr(consts, key):.10g}"


def make_log(t, e1, theta_err1, lam=None):
    cols = ["t", "e1", "theta_err1"]
    data = [t, e1, theta_err1]
    if lam is not None:
        cols.append("lambda1_1")
        data.append(lam)
    return TrajectoryLog(columns=tuple(cols), data=np.stack(data, axis=1))


def test_envelope_check_pure_decay():
    consts = analysis.UubConstants(
        Lambda_min=0.5, Lambda_max=2.0, beta1=1.0, beta2=0.0,
    )
    t = np.linspace(0.0, 5.0, 51)
    # ||z||^2 decays exactly at the envelope rate, from 1/4 of the allowance
    zsq = np.exp(-t)
    log = make_log(t, np.sqrt(zsq), np.zeros_like(t))
    report = analysis.envelope_check(log, consts)
    assert report.n_violations == 0
    assert report.worst_ratio == pytest.approx(0.25, rel=1e-12)
    assert report.fraction_satisfied == 1.0


def test_envelope_check_flags_violations():
    consts = analysis.UubConstants(
        Lambda_min=1.0, Lambda_max=1.0, beta1=10.0, beta2=0.0,
    )
    t = np.linspace(0.0, 1.0, 11)
    log = make_log(t, np.ones_like(t), np.zeros_like(t))  # does not decay
    report = analysis.envelope_check(log, consts)
    assert report.n_violations == 10  # every point after t=0
    assert report.worst_ratio > 1.0


def test_envelope_check_multiplier_distance():
    consts = analysis.UubConstants(
        Lambda_min=0.5, Lambda_max=2.0, beta1=1.0, beta2=5.0,
    )
    t = np.linspace(0.0, 2.0, 21)
    # lambda* is the final logged multiplier: parked there, lambda adds nothing
    lam = np.full_like(t, 3.0)
    log = make_log(t, np.exp(-t), np.zeros_like(t), lam=lam)
    report = analysis.envelope_check(log, consts)
    assert report.n_violations == 0
    # a multiplier moving from 7 to 3 is measured from its final value
    lam = np.linspace(7.0, 3.0, len(t))
    report = analysis.envelope_check(make_log(t, np.exp(-t), np.zeros_like(t), lam=lam), consts)
    zsq = np.exp(-2.0 * t) + (lam - 3.0) ** 2
    assert report.worst_ratio == pytest.approx(
        float(np.max(zsq / consts.envelope(t, zsq[0]))), rel=1e-12)


def test_kkt_residuals_zero_at_saddle():
    # theta_hat at the truth and e = 0 under a law without multipliers
    ctx = build_context(replace(load_config("sec5a"), law="gradient"))
    res = analysis.kkt_residuals(ctx, np.zeros(2), np.array([1.0, 2.0]), ctx.theta, [])
    assert res.stationarity == 0.0
    assert res.complementary_slackness == 0.0


def test_kkt_residuals_hand_values():
    group = GroupConfig(kind="component", barrier="inverse", lower=[3.0, 6.0, 10.0, 12.0],
                        upper=[6.0, 12.0, 17.0, 22.0], gamma_inv=0.5, alpha=0.1, lambda0=2.0)
    ctx = build_context(replace(load_config("sec5a"), learning_rate=1.0, groups=(group,)))
    assert len(ctx.stack) == 0  # an online stack holds nothing before the run
    th = np.array([4.5, 8.0, 12.0, 15.0])
    lam = np.full(8, 2.0)
    e, x = np.array([1.0, -1.0]), np.array([1.0, 2.0])
    res = analysis.kkt_residuals(ctx, e, x, th, [lam])
    Y = benchmark_plant().eval_regressor(x)
    barrier = component_bounds(group.lower, group.upper).evaluate(th, np.zeros(8))
    grad = -(Y.T @ e) + barrier.gradients.T @ lam
    assert res.stationarity == pytest.approx(float(np.linalg.norm(grad)), rel=1e-12)
    defect = np.abs(lam * (-0.1 * lam + 0.5 * barrier.values))
    assert res.complementary_slackness == pytest.approx(float(defect.max()), rel=1e-12)


@pytest.mark.parametrize("name", ["sec5a", "sec5b", "sec5c"])
@pytest.mark.parametrize("law", ["barrier_constrained", "concurrent_learning"])
def test_kkt_stationarity_splits_into_data_error_and_flow(name, law):
    """With the memory term active, grad L = K_cl d - P^-1 theta_hat_dot,
    where d = sum_k Y_k^T (xdot_hat_k - u_k - Y_k theta) = proj - gram theta
    is the error in the recorded data (ROADMAP item 5's split)."""
    log = run_scenario(replace(load_config(name), law=law, t_final=2.0))
    ctx = log.context
    assert ctx.refresh_active_law().value == law  # the stack passed its threshold
    e, x, th = (log.block(key)[-1] for key in ("e", "x", "theta_hat"))
    lambdas = [log.block(f"lambda{g}_")[-1] for g in range(1, len(ctx.lam_slices) + 1)]
    y = np.concatenate([x, th, *lambdas])
    theta_hat_dot = ctx.rhs_flat(float(log.column("t")[-1]), y)[ctx.n: ctx.n + ctx.p]
    d = ctx.stack._proj - ctx.stack.gram @ ctx.theta
    split = np.linalg.norm(ctx.kcl * d - theta_hat_dot / ctx.P)
    stationarity = analysis.kkt_residuals(ctx, e, x, th, lambdas).stationarity
    assert stationarity == pytest.approx(split, rel=1e-9)


@pytest.mark.parametrize("name", ["sec5a", "sec5b", "sec5c"])
@pytest.mark.parametrize("law", ["gradient", "barrier_sigma_mod"])
def test_kkt_stationarity_under_the_laws_without_memory(name, law):
    """Without the memory term the flow leaves the stack's term in grad L:
    grad L = -P^-1 theta_hat_dot - K_cl (gram theta_tilde), and sigma-mod's
    -sigma2 theta_hat in the flow adds -sigma2 P^-1 theta_hat."""
    log = run_scenario(replace(load_config(name), law=law, t_final=2.0))
    ctx = log.context
    assert ctx.refresh_active_law().value == law
    e, x, th = (log.block(key)[-1] for key in ("e", "x", "theta_hat"))
    lambdas = [log.block(f"lambda{g}_")[-1] for g in range(1, len(ctx.lam_slices) + 1)]
    assert len(lambdas) == (law == "barrier_sigma_mod") and len(ctx.stack) > 0
    y = np.concatenate([x, th, *lambdas])
    theta_hat_dot = ctx.rhs_flat(float(log.column("t")[-1]), y)[ctx.n: ctx.n + ctx.p]
    grad = -theta_hat_dot / ctx.P - ctx.kcl * (ctx.stack.gram @ (ctx.theta - th))
    if law == "barrier_sigma_mod":
        assert ctx.cfg.sigma2 > 0.0
        grad = grad - ctx.cfg.sigma2 * th / ctx.P
    stationarity = analysis.kkt_residuals(ctx, e, x, th, lambdas).stationarity
    assert stationarity == pytest.approx(np.linalg.norm(grad), rel=1e-9)


def rms_log(t, e_norm):
    return TrajectoryLog(columns=("t", "e_norm"), data=np.stack([t, e_norm], axis=1))


def test_steady_state_rms_window():
    t = np.linspace(0.0, 30.0, 301)
    v = np.where(t < 20.0, 100.0, 2.0)
    assert analysis.steady_state_rms(rms_log(t, v)) == pytest.approx(2.0)


def test_steady_state_rms_short_log_fallback():
    t = np.linspace(0.0, 9.0, 10)
    v = t.copy()
    # log ends before the window opens; the last third stands in
    expected = math.sqrt(np.mean(v[6:] ** 2))
    assert analysis.steady_state_rms(rms_log(t, v)) == pytest.approx(expected, rel=1e-12)
