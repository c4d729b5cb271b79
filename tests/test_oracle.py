"""An independent oracle for the closed loop.

The paper's vector field is written here directly in numpy, from the
definitions rather than from the package's law kernel:

    plant        xdot       = Y(x) theta + u
    control      u          = xdot_d - Y(x) theta_hat - k e
    estimate     theta_hat' = P Y^T e - P sum_j lambda_j . grad c_j
                              (+ P K_cl sum_k Y_k^T (xdot_hat_k - u_k - Y_k theta_hat)
                               when the stack holds recorded data)
    multipliers  lambda_j'  = proj(-alpha_j lambda_j + Gamma_j^-1 c_j, lambda_j)

and integrated by an adaptive 8th-order Runge-Kutta method at tight
tolerance.  The fixed-step RK4 run must agree with it to a stated bound and
converge to it at fourth order.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from baradapt import model
from baradapt.cli import load_config
from baradapt.sim import (
    GroupConfig,
    ScenarioConfig,
    StackConfig,
    TrajectoryLog,
    build_context,
    run_scenario,
)

integrate = pytest.importorskip("scipy.integrate")

# the largest errors occur in the first 0.05 s, as theta_hat_1 of sec5a and
# sec5c turns back from its upper bound
HORIZON = 0.5


def _barrier(group, th):
    """Values c and gradient rows dc/dtheta_hat of one constraint group."""
    if group.kind == "component":
        lo, hi = np.asarray(group.lower), np.asarray(group.upper)
        s = np.concatenate([th - lo, hi - th])
        eye = np.eye(th.size)
        ds = np.vstack([eye, -eye])
    else:
        r = np.sqrt(th @ th)
        s = np.array([r - group.lower, group.upper - r])
        ds = np.vstack([th / r, -th / r])
    if group.barrier == "inverse":
        return 1.0 / s, -(1.0 / s**2)[:, None] * ds
    return -np.log(s), -(1.0 / s)[:, None] * ds


def _oracle(cfg):
    """A function of the logged times returning the oracle's states at
    them.  Gains come from the canonical config and recorded data from the
    stack a run of cfg starts with."""
    ctx = build_context(cfg)
    cfg = ctx.cfg
    plant, traj = ctx.plant, ctx.traj
    n, p = plant.dim_state, plant.dim_param
    theta = np.asarray(plant.theta_true)
    k = np.asarray(cfg.control_gain)
    P = np.asarray(cfg.learning_rate)
    k_cl = np.asarray(cfg.k_cl)
    entries = ctx.stack._entries
    groups = cfg.groups
    widths = [len(g.lambda0) for g in groups]
    bounds = np.cumsum([n + p] + widths)

    def field(t, z):
        x, th = z[:n], z[n: n + p]
        x_d, xdot_d = traj.eval(t)
        Y = plant.eval_regressor(x)
        e = x - x_d
        u = xdot_d - Y @ th - k * e
        th_dot = P * (Y.T @ e)
        for ent in entries:
            th_dot += P * k_cl * (ent.Y.T @ (ent.xdot_hat - ent.u - ent.Y @ th))
        lam_dots = []
        for grp, lo, hi in zip(groups, bounds[:-1], bounds[1:]):
            lam = z[lo:hi]
            c, grad = _barrier(grp, th)
            th_dot -= P * (lam @ grad)
            a = -grp.alpha * lam + np.asarray(grp.gamma_inv) * c
            lam_dots.append(np.where(lam > 0.0, a, np.maximum(a, 0.0)))
        return np.concatenate([Y @ theta + u, th_dot, *lam_dots])

    z0 = np.concatenate([cfg.x0, cfg.theta_hat0, *[g.lambda0 for g in groups]])

    def solve(times):
        sol = integrate.solve_ivp(field, (0.0, times[-1]), z0, method="DOP853",
                                  t_eval=times, rtol=1e-12, atol=1e-12)
        assert sol.success, sol.message
        return sol.y.T

    return solve


def _error(cfg, solve) -> tuple[float, TrajectoryLog]:
    """Largest absolute deviation of the logged x, theta_hat and multipliers
    from the oracle at the logged times, and the log."""
    log = run_scenario(cfg)
    logged = np.hstack([log.block("x"), log.block("theta_hat"), log.multipliers()])
    return float(np.abs(logged - solve(log.column("t"))).max()), log


SEC5A, SEC5B, SEC5C = (load_config(name).groups[0] for name in ("sec5a", "sec5b", "sec5c"))
# an inverse-barrier norm group whose bounds hold sec5a's start
NORM_15_30 = GroupConfig(kind="norm", barrier="inverse", lower=15.0, upper=30.0,
                         gamma_inv=0.1, alpha=0.1, lambda0=5.0)
# sec5c's log-barrier group widened by 1 on every side
WIDE_LOG = replace(SEC5C, lower=(2.0, 5.0, 9.0, 11.0), upper=(7.0, 13.0, 18.0, 23.0))

#: the groups of each 'scenario:layout' case, in order, in place of the
#: scenario's own
LAYOUTS = {
    "sec5a:component+norm": (SEC5A, NORM_15_30),
    "sec5a:norm+component": (NORM_15_30, SEC5A),
    "sec5b:norm+component": (SEC5B, SEC5A),
    "sec5b:component+norm": (SEC5A, SEC5B),
    "sec5a:component+norm+log": (SEC5A, NORM_15_30, WIDE_LOG),
    # every slack of sec5c's start is above 1, so c = -ln s < 0 and, with a
    # large Gamma^-1, the multipliers run onto the clamp at 0
    "sec5c:gamma_inv=20": (replace(SEC5C, gamma_inv=20.0),),
}


def _case(name, mode="none"):
    """A bundled scenario over HORIZON, with the groups LAYOUTS gives a
    'scenario:layout' name."""
    scenario, layout, _ = name.partition(":")
    cfg = load_config(scenario)
    if layout:
        cfg = replace(cfg, groups=LAYOUTS[name])
    return replace(cfg, t_final=HORIZON, stack=replace(cfg.stack, mode=mode))


@pytest.mark.parametrize("name, bound", [("sec5a", 5e-6), ("sec5c", 5e-6),
                                         ("sec5c:gamma_inv=20", 2e-5)])
def test_rk4_converges_to_oracle_at_fourth_order(name, bound):
    cfg = _case(name)
    solve = _oracle(cfg)
    coarse, log = _error(cfg, solve)
    # the same logged times at half the step
    fine, _ = _error(replace(cfg, dt=cfg.dt / 2, log_every=2 * cfg.log_every), solve)
    assert coarse < bound
    # halving the step divides a fourth-order error by about 16
    assert coarse / fine > 12.0
    # only the clamped case logs multipliers exactly at 0
    assert np.any(log.multipliers() == 0.0) == name.endswith("gamma_inv=20")


@pytest.mark.parametrize("name, mode, bound", [
    ("sec5b", "none", 1e-8),
    ("sec5a", "offline", 5e-6),
    # two groups, in both orders
    ("sec5a:component+norm", "none", 5e-6),
    ("sec5a:norm+component", "none", 5e-6),
    ("sec5b:norm+component", "none", 1e-8),
    ("sec5b:component+norm", "none", 1e-8),
    # three groups, two of them component groups
    ("sec5a:component+norm+log", "none", 5e-6),
])
def test_rk4_matches_oracle(name, mode, bound):
    cfg = _case(name, mode)
    assert _error(cfg, _oracle(cfg))[0] < bound


def _triple_regressor(x):
    """A 3-state, 6-parameter regressor whose columns mix the states."""
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    return np.array([[x1, math.sin(x2), 0.0, 0.0, x3, 0.0],
                     [0.0, 0.0, x2 * math.cos(x1), x3, 0.0, 0.0],
                     [0.0, x1 * x2, 0.0, 0.0, x1 * x3, math.sin(x3)]])


def _triple_reference(t):
    return (np.array([math.sin(t), math.cos(2.0 * t), 0.5 * math.sin(3.0 * t)]),
            np.array([math.cos(t), -2.0 * math.sin(2.0 * t), 1.5 * math.cos(3.0 * t)]))


def test_three_state_six_parameter_plant_converges_to_oracle(monkeypatch):
    # n = 3 and p = 6, off the bundled layout: an offline stack of 20
    # entries (excitation 0.017) and a component group whose margin falls
    # from 0.5 to about 0.29
    monkeypatch.setitem(model.PLANTS, "triple", lambda theta_true=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
                        model.PlantModel("triple", 3, 6, _triple_regressor, tuple(theta_true)))
    monkeypatch.setitem(model.TRAJECTORIES, "triple",
                        lambda: model.DesiredTrajectory("triple", 3, _triple_reference))
    group = GroupConfig(kind="component", barrier="inverse", lower=(0.5, 0.5, 1.5, 3.0, 3.5, 5.0),
                        upper=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0), gamma_inv=0.2, alpha=0.1,
                        lambda0=1.0)
    cfg = ScenarioConfig(name="triple", law="barrier_constrained", plant="triple",
                         trajectory="triple", control_gain=10.0, learning_rate=3.0, k_cl=0.5,
                         x0=(3.0, -2.0, 2.5), theta_hat0=(1.5, 1.5, 2.5, 4.5, 4.5, 6.5),
                         t_final=HORIZON, groups=(group,),
                         stack=StackConfig(mode="offline", size=20))
    assert build_context(cfg).stack.assumption_met
    solve = _oracle(cfg)
    coarse, log = _error(cfg, solve)
    fine, _ = _error(replace(cfg, dt=cfg.dt / 2, log_every=2 * cfg.log_every), solve)
    assert log.block("x").shape[1] == 3 and log.block("theta_hat").shape[1] == 6
    assert coarse < 5e-6
    assert coarse / fine > 12.0
