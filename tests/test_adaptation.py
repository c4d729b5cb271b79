import math

import numpy as np
import pytest

from baradapt.adaptation import (
    MultiplierState,
    UpdateLaw,
    UpdateLawConfig,
    _lambda_dot,
    projection,
    theta_hat_dot,
)
from baradapt.barrier import component_bounds
from baradapt.errors import _vector
from baradapt.history import HistoryStack
from baradapt.model import benchmark_plant

LO = [3.0, 6.0, 10.0, 12.0]
HI = [6.0, 12.0, 17.0, 22.0]


def make_stack(n_entries=6, seed=3):
    """Stack of exact model data, so cl_term(theta) vanishes at the truth."""
    rng = np.random.default_rng(seed)
    plant = benchmark_plant()
    stack = HistoryStack(2, 4, capacity=20, min_eig_threshold=1e-3)
    for _ in range(n_entries):
        x = rng.uniform(-2.0, 2.0, size=2)
        u = rng.uniform(-1.0, 1.0, size=2)
        Y = plant.eval_regressor(x)
        stack.try_insert(Y, u, Y @ plant.theta + u)
    return plant, stack


def test_projection_passes_when_base_positive():
    a = np.array([-2.0, 0.0, 3.0])
    b = np.ones(3)
    assert np.array_equal(projection(a, b), a)


def test_projection_clips_at_zero_base():
    a = np.array([-2.0, 0.0, 3.0])
    b = np.zeros(3)
    assert np.array_equal(projection(a, b), [0.0, 0.0, 3.0])


def test_projection_mixed_and_negative_base():
    a = np.array([-1.0, -1.0])
    b = np.array([0.5, 0.0])
    assert np.array_equal(projection(a, b), [-1.0, 0.0])
    with pytest.raises(ValueError):
        projection(a, np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        projection(np.ones(2), np.ones(3))


def test_multiplier_state_validation():
    ms = MultiplierState(lam=(1.0, 2.0), gamma_inv=(0.5, 0.25), alpha=0.1)
    assert np.array_equal(ms.gamma_array, [2.0, 4.0])
    assert len(ms.lam) == 2
    with pytest.raises(ValueError):
        MultiplierState(lam=(-0.1,), gamma_inv=(1.0,), alpha=0.1)
    with pytest.raises(ValueError):
        MultiplierState(lam=(1.0,), gamma_inv=(0.0,), alpha=0.1)
    # NaN fails every sign test, and no gain may be infinite
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^multipliers must be non-negative and finite"):
            MultiplierState(lam=(1.0, bad), gamma_inv=(1.0, 1.0), alpha=0.1)
        with pytest.raises(ValueError, match="^gamma_inv entries must be positive and finite"):
            MultiplierState(lam=(1.0, 1.0), gamma_inv=(bad, 1.0), alpha=0.1)
    with pytest.raises(ValueError):
        MultiplierState(lam=(1.0,), gamma_inv=(1.0,), alpha=0.0)
    with pytest.raises(ValueError):
        MultiplierState(lam=(1.0, 1.0), gamma_inv=(1.0,), alpha=0.1)
    # a bool is no gain, as in a JSON config
    for alpha in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match="^alpha must be positive and finite"):
            MultiplierState(lam=(1.0,), gamma_inv=(1.0,), alpha=alpha)
    # a bool entry is no multiplier and no gain, whether a tuple or numpy holds it
    for bad in ((True,), np.array([True])):
        with pytest.raises(ValueError, match=r"^multipliers must be numbers, got"):
            MultiplierState(lam=bad, gamma_inv=(1.0,), alpha=0.1)
        with pytest.raises(ValueError, match=r"^gamma_inv entries must be numbers, got"):
            MultiplierState(lam=(1.0,), gamma_inv=bad, alpha=0.1)
    alpha = MultiplierState(lam=(1.0,), gamma_inv=(1.0,), alpha=2).alpha
    assert alpha == 2.0 and type(alpha) is float


def test_lambda_dot_hand_values():
    lam, gamma_inv, alpha = np.array([2.0, 0.0]), np.array([0.5, 0.5]), 0.1
    c = np.array([1.0, -1.0])
    # first entry flows freely, second is clipped at the boundary
    got = _lambda_dot(lam, alpha, gamma_inv, c)
    assert np.allclose(got, [-0.2 + 0.5, 0.0], rtol=0, atol=1e-15)


def test_update_law_config_promotion():
    cfg = UpdateLawConfig(law="gradient", dim_param=4, learning_rate=0.075)
    assert cfg.learning_rate == (0.075,) * 4
    assert cfg.k_cl == (1.0,) * 4
    assert cfg.law is UpdateLaw.GRADIENT
    with pytest.raises(ValueError, match="^learning_rate must be positive and finite$"):
        UpdateLawConfig(law="gradient", dim_param=4, learning_rate=0.0)
    with pytest.raises(ValueError, match="^k_cl must be positive and finite$"):
        UpdateLawConfig(law="gradient", dim_param=4, learning_rate=1.0, k_cl=0.0)
    with pytest.raises(ValueError):
        UpdateLawConfig(law="gradient", dim_param=4, learning_rate=(1.0, 1.0))
    with pytest.raises(ValueError):
        UpdateLawConfig(law="gradient", dim_param=4, learning_rate=1.0, sigma2=-1.0)
    for sigma2 in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match="^sigma2 must be non-negative and finite"):
            UpdateLawConfig(law="gradient", dim_param=4, learning_rate=1.0, sigma2=sigma2)
    with pytest.raises(ValueError, match=r"^unknown law 'newton' \(choose from \['gradient'"):
        UpdateLawConfig(law="newton", dim_param=4, learning_rate=1.0)
    for dim_param in (2.5, True, math.nan, math.inf):
        with pytest.raises(ValueError, match="^dim_param must be an integer, got"):
            UpdateLawConfig(law="gradient", dim_param=dim_param, learning_rate=1.0)
    for dim_param in (0, -1):
        with pytest.raises(ValueError, match="^dim_param must be positive"):
            UpdateLawConfig(law="gradient", dim_param=dim_param, learning_rate=1.0)
    cfg = UpdateLawConfig(law="gradient", dim_param=4.0, learning_rate=1.0)
    assert cfg.dim_param == 4 and type(cfg.dim_param) is int
    # a bool is no gain, alone or as an entry, as on the JSON path
    for gain in (True, np.bool_(True), (True, 2.0, 1.0, 1.0), np.ones(4, dtype=bool)):
        with pytest.raises(ValueError, match="^learning_rate must be numbers, got"):
            UpdateLawConfig(law="gradient", dim_param=4, learning_rate=gain)
        with pytest.raises(ValueError, match="^k_cl must be numbers, got"):
            UpdateLawConfig(law="gradient", dim_param=4, learning_rate=1.0, k_cl=gain)
    with pytest.raises(ValueError, match=r"^k must be numbers, got \[True, 2\.0\]"):
        _vector([True, 2.0], 2, "k")
    assert _vector((1, 2.0), 2, "k") == (1.0, 2.0)
    assert _vector(np.float64(3.0), 2, "k") == (3.0, 3.0)


def test_gradient_law_hand_value():
    cfg = UpdateLawConfig(law=UpdateLaw.GRADIENT, dim_param=4, learning_rate=0.075)
    plant = benchmark_plant()
    x = np.array([1.0, -1.0])
    e = np.array([0.5, -0.25])
    Y = plant.eval_regressor(x)
    got = theta_hat_dot(cfg, e, Y, None, (), (), np.zeros(4))
    assert np.allclose(got, 0.075 * (Y.T @ e), rtol=0, atol=0)


def test_concurrent_learning_term_independent_recompute():
    plant, stack = make_stack()
    kcl = np.array([0.02, 0.5, 0.9, 0.02])
    cfg = UpdateLawConfig(law=UpdateLaw.CONCURRENT_LEARNING, dim_param=4,
                          learning_rate=0.075, k_cl=tuple(kcl))
    e = np.array([0.3, -0.7])
    Y = plant.eval_regressor([0.5, 1.5])
    th = np.array([4.0, 9.0, 14.0, 19.0])
    got = theta_hat_dot(cfg, e, Y, stack, (), (), th)
    # recompute the recorded-data sum entry by entry
    cl = np.zeros(4)
    for ent in stack._entries:
        cl += ent.Y.T @ (ent.xdot_hat - ent.u - ent.Y @ th)
    expected = 0.075 * (Y.T @ e) + 0.075 * (kcl * cl)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_cl_term_vanishes_at_true_parameters():
    plant, stack = make_stack()
    cfg = UpdateLawConfig(law=UpdateLaw.CONCURRENT_LEARNING, dim_param=4,
                          learning_rate=1.0)
    got = theta_hat_dot(cfg, np.zeros(2), np.zeros((2, 4)), stack, (), (),
                        plant.theta)
    assert np.abs(got).max() < 1e-9


def test_barrier_constrained_adds_constraint_force():
    plant, stack = make_stack()
    group = component_bounds(LO, HI)
    lam = np.array([1.0, 0.5, 0.0, 2.0, 0.25, 1.5, 3.0, 0.0])
    ms = MultiplierState(lam=tuple(lam), gamma_inv=(1.0,) * 8, alpha=0.1)
    th = np.array([4.5, 8.0, 12.0, 15.0])
    e = np.array([0.1, 0.2])
    Y = plant.eval_regressor([1.0, 1.0])
    base_cfg = UpdateLawConfig(law=UpdateLaw.CONCURRENT_LEARNING, dim_param=4,
                               learning_rate=0.075, k_cl=(0.02, 0.5, 0.9, 0.02))
    barrier_cfg = UpdateLawConfig(law=UpdateLaw.BARRIER_CONSTRAINED, dim_param=4,
                                  learning_rate=0.075, k_cl=(0.02, 0.5, 0.9, 0.02))
    baseline = theta_hat_dot(base_cfg, e, Y, stack, (), (), th)
    constrained = theta_hat_dot(barrier_cfg, e, Y, stack, (group,), (ms,), th)
    force = 0.075 * (group.evaluate(th, np.zeros(8)).gradients.T @ lam)
    assert np.allclose(constrained, baseline - force, rtol=1e-12, atol=1e-14)


def test_sigma_mod_law_skips_memory_term():
    plant, stack = make_stack()
    group = component_bounds(LO, HI)
    ms = MultiplierState(lam=(1.0,) * 8, gamma_inv=(1.0,) * 8, alpha=0.1)
    th = np.array([4.5, 8.0, 12.0, 15.0])
    e = np.array([0.1, 0.2])
    Y = plant.eval_regressor([1.0, 1.0])
    cfg = UpdateLawConfig(law=UpdateLaw.BARRIER_SIGMA_MOD, dim_param=4,
                          learning_rate=0.075, sigma2=0.1)
    got = theta_hat_dot(cfg, e, Y, stack, (group,), (ms,), th)
    force = 0.075 * group.evaluate(th, np.ones(8)).weighted_gradient
    expected = 0.075 * (Y.T @ e) - 0.1 * th - force
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_law_terms_skipped_not_zeroed():
    # an empty stack and empty groups must reproduce the gradient law bitwise
    cfg_grad = UpdateLawConfig(law=UpdateLaw.GRADIENT, dim_param=4,
                               learning_rate=0.075)
    cfg_cl = UpdateLawConfig(law=UpdateLaw.CONCURRENT_LEARNING, dim_param=4,
                             learning_rate=0.075)
    cfg_bar = UpdateLawConfig(law=UpdateLaw.BARRIER_CONSTRAINED, dim_param=4,
                              learning_rate=0.075)
    empty = HistoryStack(2, 4, capacity=20, min_eig_threshold=1e-3)
    plant = benchmark_plant()
    e = np.array([0.3, -0.2])
    Y = plant.eval_regressor([0.7, -1.3])
    th = np.array([4.5, 8.0, 12.0, 15.0])
    a = theta_hat_dot(cfg_grad, e, Y, None, (), (), th)
    b = theta_hat_dot(cfg_cl, e, Y, empty, (), (), th)
    c = theta_hat_dot(cfg_bar, e, Y, empty, (), (), th)
    assert np.array_equal(a, b)
    assert np.array_equal(b, c)


def lagrangian_value(cfg, e, Y, stack, groups, lambdas, theta_hat, theta_true):
    """The instantaneous Lagrangian e^T Y theta_tilde
    + 1/2 theta_tilde^T K_cl (sum_k Y_k^T Y_k) theta_tilde
    + sum_j lambda_j^T c_j(theta_hat): the reference whose finite-difference
    gradient lagrangian_gradient must match."""
    e = np.asarray(e, dtype=float)
    Y = np.asarray(Y, dtype=float)
    th = np.asarray(theta_hat, dtype=float)
    tilde = np.asarray(theta_true, dtype=float) - th
    val = float(e @ (Y @ tilde))
    if stack is not None and len(stack) > 0:
        val += 0.5 * float(tilde @ (cfg.k_cl_array * (stack.gram @ tilde)))
    for group, ms in zip(groups, lambdas):
        val += float(ms.lam_array @ group.evaluate(th, ms.lam_array).values)
    return val


def lagrangian_gradient(cfg, e, Y, stack, groups, lambdas, theta_hat, theta_true):
    """Gradient in theta_hat of lagrangian_value (for scalar K_cl its memory
    term K_cl gram theta_tilde is exactly the quadratic's derivative); the
    constrained law's theta_hat_dot is -P times this (acceptance criterion
    06), and analysis.kkt_residuals reports its norm."""
    e = np.asarray(e, dtype=float)
    Y = np.asarray(Y, dtype=float)
    th = np.asarray(theta_hat, dtype=float)
    tilde = np.asarray(theta_true, dtype=float) - th
    grad = -(Y.T @ e)
    if stack is not None and len(stack) > 0:
        grad = grad - cfg.k_cl_array * (stack.gram @ tilde)
    for group, ms in zip(groups, lambdas):
        grad = grad + group.evaluate(th, ms.lam_array).weighted_gradient
    return grad


def test_lagrangian_gradient_matches_finite_difference():
    plant, stack = make_stack()
    group = component_bounds(LO, HI)
    rng = np.random.default_rng(17)
    lam = rng.uniform(0.0, 3.0, size=8)
    ms = MultiplierState(lam=tuple(lam), gamma_inv=(1.0,) * 8, alpha=0.1)
    cfg = UpdateLawConfig(law=UpdateLaw.BARRIER_CONSTRAINED, dim_param=4,
                          learning_rate=0.075, k_cl=0.5)
    e = rng.uniform(-1.0, 1.0, size=2)
    Y = plant.eval_regressor(rng.uniform(-2.0, 2.0, size=2))
    th = rng.uniform(np.asarray(LO) + 0.5, np.asarray(HI) - 0.5)
    analytic = lagrangian_gradient(cfg, e, Y, stack, (group,), (ms,), th, plant.theta)
    h = 1e-6
    numeric = np.zeros(4)
    for j in range(4):
        up = th.copy()
        up[j] += h
        dn = th.copy()
        dn[j] -= h
        numeric[j] = (
            lagrangian_value(cfg, e, Y, stack, (group,), (ms,), up, plant.theta)
            - lagrangian_value(cfg, e, Y, stack, (group,), (ms,), dn, plant.theta)
        ) / (2.0 * h)
    assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-5)


def test_lagrangian_value_components():
    plant, stack = make_stack()
    cfg = UpdateLawConfig(law=UpdateLaw.BARRIER_CONSTRAINED, dim_param=4,
                          learning_rate=0.075, k_cl=1.0)
    th = plant.theta  # theta_tilde = 0 kills the tracking and memory terms
    group = component_bounds([0.0, 0.0, 0.0, 0.0], [10.0, 20.0, 25.0, 30.0])
    lam = np.ones(8)
    ms = MultiplierState(lam=tuple(lam), gamma_inv=(1.0,) * 8, alpha=0.1)
    e = np.array([1.0, -1.0])
    Y = plant.eval_regressor([1.0, 1.0])
    val = lagrangian_value(cfg, e, Y, stack, (group,), (ms,), th, plant.theta)
    assert val == pytest.approx(float(np.sum(group.evaluate(th, lam).values)), rel=1e-12)
