"""Acceptance suite: end-to-end claims about the shipped scenarios and the
library functions backing them.  Each test prints one verdict line; run with
`pytest tests/test_acceptance.py -v -s` to see them inline."""

import math

import numpy as np

from baradapt.adaptation import (
    MultiplierState,
    UpdateLaw,
    UpdateLawConfig,
    projection,
    theta_hat_dot,
)
from baradapt.analysis import min_margin
from baradapt.barrier import BarrierKind, component_bounds, norm_bounds
from baradapt.history import HistoryStack, fill_with_exact_model_data
from baradapt.model import benchmark_plant
from baradapt.sim import (
    ScenarioConfig,
    StackConfig,
    canonical_config,
    rk4,
    run_scenario,
)
from test_adaptation import lagrangian_gradient

MARGIN = 1e-6


def verdict(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}",
          flush=True)
    assert ok, f"criterion {num:02d} failed: {description}"


def component_bounds_hold(cfg, log) -> bool:
    lo = np.asarray(cfg.groups[0].lower)
    hi = np.asarray(cfg.groups[0].upper)
    th = log.block("theta_hat")
    return bool(np.all(th > lo + MARGIN) and np.all(th < hi - MARGIN))


def multipliers_nonnegative(log) -> bool:
    lam_cols = [c for c in log.columns if c.startswith("lambda")]
    return all(np.all(log.column(c) >= 0.0) for c in lam_cols)


# -- shipped scenarios -------------------------------------------------------


def test_component_bounds_hold_throughout_benchmark_run(sec5a_run):
    cfg, log, runtime = sec5a_run
    ok = (component_bounds_hold(cfg, log)
          and multipliers_nonnegative(log)
          and runtime < 10.0)
    verdict(1, "component bounds held with nonnegative multipliers, "
               f"run took {runtime:.1f}s", ok)


def test_norm_corridor_holds_throughout_norm_run(sec5b_run):
    cfg, log = sec5b_run
    lo, hi = cfg.groups[0].lower, cfg.groups[0].upper
    norms = np.linalg.norm(log.block("theta_hat"), axis=1)
    ok = bool(np.all(norms > lo + MARGIN) and np.all(norms < hi - MARGIN))
    verdict(2, f"estimate norm stayed inside ({lo:g}, {hi:g})", ok)


def test_log_barrier_run_feasible_and_estimates_converge(sec5c_run):
    cfg, log = sec5c_run
    tilde = log.column("theta_err_norm")
    ok = (component_bounds_hold(cfg, log)
          and multipliers_nonnegative(log)
          and tilde[-1] <= 0.25 * tilde[0])
    verdict(3, "log-barrier run stayed feasible and parameter error fell "
               f"to {tilde[-1] / tilde[0]:.1%} of its start", ok)


def test_tracking_error_settles_in_every_scenario(sec5a_run, sec5b_run,
                                                  sec5c_run):
    ok = True
    ratios = []
    for cfg, log in [sec5a_run[:2], sec5b_run, sec5c_run]:
        t = log.column("t")
        e = log.column("e_norm")
        transient = float(e[t <= 2.0].max())
        settled = float(np.sqrt(np.mean(e[t >= 20.0] ** 2)))
        ratios.append(settled / transient)
        ok = ok and settled < 0.05 * transient
    verdict(4, "steady tracking error under 5% of the initial transient "
               f"(ratios {', '.join(f'{r:.2%}' for r in ratios)})", ok)


# -- law structure -----------------------------------------------------------


def _reduction_cfg(law: str, stack_mode: str) -> ScenarioConfig:
    return canonical_config(ScenarioConfig(
        name="reduction",
        law=law,
        control_gain=10.0,
        learning_rate=0.075,
        k_cl=(0.02, 0.5, 0.9, 0.02),
        sigma2=0.1,
        dt=1e-3,
        t_final=5.0,
        log_every=10,
        x0=(10.0, 5.0),
        theta_hat0=(4.5, 8.0, 12.0, 15.0),
        groups=(),
        stack=StackConfig(mode=stack_mode),
    ))


def _equal_except_law_code(*logs) -> bool:
    first = logs[0]
    keep = [i for i, c in enumerate(first.columns) if c != "law_code"]
    return all(
        other.columns == first.columns
        and np.array_equal(other.data[:, keep], first.data[:, keep])
        for other in logs[1:]
    )


def test_degenerate_configs_reduce_to_simpler_laws_bitwise():
    # without constraint groups the constrained law is concurrent learning;
    # without recorded data both collapse to the plain gradient law
    log_b = run_scenario(_reduction_cfg("barrier_constrained", "online"))
    log_c = run_scenario(_reduction_cfg("concurrent_learning", "online"))
    pair_ok = _equal_except_law_code(log_b, log_c)
    # both runs must actually traverse the low-excitation fallback and the
    # final law, otherwise the comparison proves less than it claims
    codes_ok = (set(log_b.column("law_code")) == {3.0, 2.0}
                and set(log_c.column("law_code")) == {3.0, 1.0})

    log_b0 = run_scenario(_reduction_cfg("barrier_constrained", "none"))
    log_c0 = run_scenario(_reduction_cfg("concurrent_learning", "none"))
    log_g0 = run_scenario(_reduction_cfg("gradient", "none"))
    bare_ok = _equal_except_law_code(log_b0, log_c0, log_g0)
    verdict(5, "degenerate configurations reproduce the simpler laws bitwise",
            pair_ok and codes_ok and bare_ok)


def test_constrained_update_is_scaled_lagrangian_descent():
    rng = np.random.default_rng(11)
    plant = benchmark_plant()
    stack = HistoryStack(2, 4, capacity=20, min_eig_threshold=1e-3)
    fill_with_exact_model_data(stack, plant, rng.uniform(-2.0, 2.0, (20, 2)))
    group = component_bounds([3.0, 6.0, 10.0, 12.0], [6.0, 12.0, 17.0, 22.0])
    cfg = UpdateLawConfig(
        law=UpdateLaw.BARRIER_CONSTRAINED, dim_param=4,
        learning_rate=(0.075,) * 4, k_cl=(0.02, 0.5, 0.9, 0.02), sigma2=0.1,
    )
    P = cfg.learning_rate_array
    lo = np.asarray(group.lower)
    hi = np.asarray(group.upper)
    worst = 0.0
    for _ in range(100):
        th = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        ms = MultiplierState(lam=tuple(rng.uniform(0.0, 5.0, 8)),
                             gamma_inv=(0.4, 0.1, 0.1, 0.9) * 2, alpha=0.1)
        e = rng.normal(size=2)
        Y = plant.eval_regressor(rng.uniform(-3.0, 3.0, 2))
        flow = theta_hat_dot(cfg, e, Y, stack, (group,), (ms,), th)
        descent = -P * lagrangian_gradient(cfg, e, Y, stack, (group,), (ms,),
                                           th, plant.theta)
        worst = max(worst, float(np.abs(flow - descent).max()))
    verdict(6, "constrained update equals scaled Lagrangian descent "
               f"(worst gap {worst:.1e})", worst <= 1e-9)


def test_barrier_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    lo = np.array([3.0, 6.0, 10.0, 12.0])
    hi = np.array([6.0, 12.0, 17.0, 22.0])
    cases = [
        (component_bounds(lo, hi, barrier=BarrierKind.INVERSE), "component"),
        (component_bounds(lo, hi, barrier=BarrierKind.LOG), "component"),
        (norm_bounds(25.0, 28.0, dim_param=4), "norm"),
        (norm_bounds(25.0, 28.0, dim_param=4, barrier=BarrierKind.LOG,
                     norm_log_ok=True), "norm"),
    ]
    h = 1e-6
    worst = 0.0
    for group, kind in cases:
        for _ in range(100):
            if kind == "component":
                th = rng.uniform(lo + 0.2, hi - 0.2)
            else:
                direction = rng.normal(size=4)
                direction /= np.linalg.norm(direction)
                th = rng.uniform(25.2, 27.8) * direction
            lam0 = np.zeros(group.n_constraints)
            analytic = group.evaluate(th, lam0).gradients
            fd = np.zeros_like(analytic)
            for j in range(4):
                up, dn = th.copy(), th.copy()
                up[j] += h
                dn[j] -= h
                fd[:, j] = (group.evaluate(up, lam0).values
                            - group.evaluate(dn, lam0).values) / (2.0 * h)
            scale = np.maximum(np.abs(analytic), np.abs(fd))
            mask = scale > 0
            rel = np.abs(analytic - fd)[mask] / scale[mask]
            worst = max(worst, float(rel.max()))
    verdict(7, "all four barrier gradients match finite differences "
               f"(worst relative gap {worst:.1e})", worst < 1e-5)


def test_multiplier_projection_truth_table():
    scalar_cases = [
        (-1.5, 0.0, 0.0),  # inward flow blocked at the boundary
        (-1.5, 3.0, -1.5),
        (0.0, 0.0, 0.0),
        (0.0, 3.0, 0.0),
        (2.0, 0.0, 2.0),  # outward flow always passes
        (2.0, 3.0, 2.0),
    ]
    ok = all(projection(a, b) == expected for a, b, expected in scalar_cases)
    mixed = projection([-1.0, -1.0, 0.0, 2.0], [0.0, 2.0, 0.0, 0.0])
    ok = ok and np.array_equal(mixed, [0.0, -1.0, 0.0, 2.0])
    verdict(8, "projection clips inward flow exactly at the boundary", ok)


def test_integrator_shows_fourth_order_convergence():
    decay = lambda t, y: -y  # noqa: E731
    anchor = rk4(decay, 0.0, np.array([1.0]), 0.1)[0]
    anchor_ok = abs(anchor - 0.9048375) < 1e-12
    errs = []
    for dt in (0.01, 0.005, 0.0025):
        y = np.array([1.0])
        t = 0.0
        for _ in range(round(1.0 / dt)):
            y = rk4(decay, t, y, dt)
            t += dt
        errs.append(abs(float(y[0]) - math.exp(-1.0)))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    order_ok = all(8.0 <= r <= 32.0 for r in ratios)
    verdict(9, "one-step value matches the hand computation and global error "
               f"drops 16x per halving (ratios {ratios[0]:.1f}, {ratios[1]:.1f})",
            anchor_ok and order_ok)


def test_excitation_level_never_decreases():
    rng = np.random.default_rng(7)
    plant = benchmark_plant()
    stack = HistoryStack(2, 4, capacity=6, min_eig_threshold=1e-2)
    levels = []
    for _ in range(1000):
        x = rng.uniform(-3.0, 3.0, 2) * rng.choice([0.01, 1.0, 10.0])
        Y = plant.eval_regressor(x)
        u = rng.normal(size=2)
        stack.try_insert(Y, u, Y @ plant.theta + u)
        levels.append(stack.excitation_level())
    ok = bool(np.all(np.diff(levels) >= 0.0)) and levels[-1] > 0.0
    verdict(10, "recorded-data excitation is monotone over 1000 offers", ok)


# -- comparative claims ------------------------------------------------------


def test_constrained_law_beats_gradient_on_feasibility_and_error(
        sec5a_run, gradient_run):
    _, log_b, _ = sec5a_run
    _, log_g = gradient_run
    tilde_b = float(log_b.column("theta_err_norm")[-1])
    tilde_g = float(log_g.column("theta_err_norm")[-1])
    margin_b = min_margin(log_b)
    ok = tilde_b < tilde_g and margin_b > 0.0
    verdict(11, f"constrained law ends closer ({tilde_b:.2e} < {tilde_g:.2e}) "
                f"and stays feasible (margin {margin_b:.3f})", ok)


def test_higher_control_gain_does_not_worsen_steady_error(gain_sweep_runs):
    rms = gain_sweep_runs
    ok = rms[5.0] >= rms[10.0] >= rms[20.0]
    verdict(12, "steady tracking error non-increasing in the control gain "
                f"({rms[5.0]:.2e} >= {rms[10.0]:.2e} >= {rms[20.0]:.2e})", ok)
