import math

import numpy as np
import pytest

from baradapt import analysis
from baradapt.adaptation import MultiplierState, UpdateLaw, UpdateLawConfig
from baradapt.barrier import component_bounds
from baradapt.model import benchmark_plant
from baradapt.sim import TrajectoryLog, build_context


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


def test_uub_constants_frozen_algebra():
    gamma_inv = np.tile([0.4, 0.1, 0.1, 0.9], 2)
    consts = analysis.uub_constants(
        control_gain=[10.0, 10.0],
        learning_rate=[0.075] * 4,
        k_cl=[0.02, 0.5, 0.9, 0.02],
        gamma=1.0 / gamma_inv,
        alpha=0.1,
        sigma_bar1=10.0,
        lambda_star=np.ones(8),
    )
    # Lambda_min = min(1/2, 1/(2*0.075), min(gamma)/2) with min(gamma) = 10/9
    assert consts.Lambda_min == pytest.approx(0.5)
    assert consts.Lambda_max == pytest.approx(0.5 / 0.075)
    # beta1 = min(k, min(k_cl)*sigma, (alpha/2)*min(gamma)) / Lambda_min
    assert consts.beta1 == pytest.approx((0.05 * 10.0 / 9.0) / 0.5, rel=1e-12)
    # beta2 = alpha^2 * min(gamma) * ||lambda*||^2 / (4 (alpha/2))
    assert consts.beta2 == pytest.approx(0.01 * (10.0 / 9.0) * 8.0 / 0.2, rel=1e-12)
    assert consts.assumption_met


def test_uub_constants_drop_terms():
    # sigma_bar1 = 0 marks the excitation assumption unmet and removes its
    # term instead of forcing beta1 to zero
    consts = analysis.uub_constants(
        control_gain=1.0, learning_rate=1.0, k_cl=1.0,
        gamma=np.empty(0), alpha=0.0, sigma_bar1=0.0,
    )
    assert not consts.assumption_met
    assert consts.beta1 == pytest.approx(2.0)
    assert consts.beta2 == 0.0
    with pytest.raises(ValueError):
        analysis.uub_constants(control_gain=-1.0, learning_rate=1.0, k_cl=1.0,
                               gamma=np.empty(0), alpha=0.1, sigma_bar1=1.0)


def test_uub_constants_from_config():
    from baradapt.cli import load_config

    cfg = load_config("sec5a")
    consts = build_context(cfg).uub_constants(sigma_bar1=10.0, lambda_star=np.ones(8))
    direct = analysis.uub_constants(
        control_gain=cfg.control_gain,
        learning_rate=cfg.learning_rate,
        k_cl=cfg.k_cl,
        gamma=1.0 / np.tile([0.4, 0.1, 0.1, 0.9], 2),
        alpha=0.1,
        sigma_bar1=10.0,
        lambda_star=np.ones(8),
    )
    assert consts == direct


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
        lambda_star=(), assumption_met=True,
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
        lambda_star=(), assumption_met=True,
    )
    t = np.linspace(0.0, 1.0, 11)
    log = make_log(t, np.ones_like(t), np.zeros_like(t))  # does not decay
    report = analysis.envelope_check(log, consts)
    assert report.n_violations == 10  # every point after t=0
    assert report.worst_ratio > 1.0


def test_envelope_check_multiplier_distance():
    consts = analysis.UubConstants(
        Lambda_min=0.5, Lambda_max=2.0, beta1=1.0, beta2=5.0,
        lambda_star=(3.0,), assumption_met=True,
    )
    t = np.linspace(0.0, 2.0, 21)
    lam = np.full_like(t, 3.0)  # parked at lambda*, contributes nothing
    log = make_log(t, np.exp(-t), np.zeros_like(t), lam=lam)
    report = analysis.envelope_check(log, consts)
    assert report.n_violations == 0
    bad = analysis.UubConstants(
        Lambda_min=0.5, Lambda_max=2.0, beta1=1.0, beta2=5.0,
        lambda_star=(3.0, 1.0), assumption_met=True,
    )
    with pytest.raises(ValueError):
        analysis.envelope_check(log, bad)


def test_kkt_residuals_zero_at_saddle():
    plant = benchmark_plant()
    cfg = UpdateLawConfig(law=UpdateLaw.GRADIENT, dim_param=4, learning_rate=1.0)
    res = analysis.kkt_residuals(cfg, np.zeros(2), np.zeros((2, 4)), None,
                                 (), (), plant.theta, plant.theta)
    assert res.stationarity == 0.0
    assert res.complementary_slackness == 0.0


def test_kkt_residuals_hand_values():
    plant = benchmark_plant()
    group = component_bounds([3.0, 6.0, 10.0, 12.0], [6.0, 12.0, 17.0, 22.0])
    th = np.array([4.5, 8.0, 12.0, 15.0])
    lam = np.full(8, 2.0)
    ms = MultiplierState(lam=tuple(lam), gamma_inv=(0.5,) * 8, alpha=0.1)
    cfg = UpdateLawConfig(law=UpdateLaw.BARRIER_CONSTRAINED, dim_param=4,
                          learning_rate=1.0)
    e = np.array([1.0, -1.0])
    Y = plant.eval_regressor([1.0, 2.0])
    res = analysis.kkt_residuals(cfg, e, Y, None, (group,), (ms,), th, plant.theta)
    grad = -(Y.T @ e) + group.gradients(th).T @ lam
    assert res.stationarity == pytest.approx(float(np.linalg.norm(grad)), rel=1e-12)
    c = group.values(th)
    defect = np.abs(lam * (-0.1 * lam + 0.5 * c))
    assert res.complementary_slackness == pytest.approx(float(defect.max()), rel=1e-12)


def test_steady_state_rms_window():
    t = np.linspace(0.0, 30.0, 301)
    v = np.where(t < 20.0, 100.0, 2.0)
    assert analysis.steady_state_rms(t, v) == pytest.approx(2.0)


def test_steady_state_rms_short_log_fallback():
    t = np.linspace(0.0, 9.0, 10)
    v = t.copy()
    # log ends before the window opens; the last third stands in
    expected = math.sqrt(np.mean(v[6:] ** 2))
    assert analysis.steady_state_rms(t, v) == pytest.approx(expected, rel=1e-12)
