"""Per-call timings of single layer functions on fixed inputs.

Every input is built from the bundled ``sec5a`` scenario (whatever the
seed), with its history stack filled to capacity from exact model data at
points of the reference trajectory, so the numbers compare across commits
and workloads.
"""

from __future__ import annotations

import copy
import statistics
from time import perf_counter

import numpy as np

BLOCK_S = 0.02
BLOCKS = 5
TRY_INSERT_REPEATS = 40


def per_call_us(fn, block_s: float = BLOCK_S, blocks: int = BLOCKS) -> float:
    """Median over blocks of the mean time per call, in microseconds."""
    n = 1
    while True:
        started = perf_counter()
        for _ in range(n):
            fn()
        took = perf_counter() - started
        if took >= block_s / 4:
            break
        n *= 2
    n = max(1, round(n * block_s / took))
    samples = []
    for _ in range(blocks):
        started = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - started) / n)
    return statistics.median(samples) * 1e6


def micro_metrics(mods, sec5a_path) -> dict[str, float]:
    cli, sim, adaptation = mods.cli, mods.sim, mods.adaptation
    barrier, history = mods.barrier, mods.history
    ctx = sim.build_context(cli.load_config(str(sec5a_path)))
    cfg = ctx.cfg
    samples = [ctx.traj.eval(float(t))[0] for t in np.linspace(0.5, 30.0, ctx.stack.capacity)]
    history.fill_with_exact_model_data(ctx.stack, ctx.plant, samples)
    ctx.refresh_active_law()

    t = 0.5
    y = ctx.pack(ctx.initial_state())
    n, p = ctx.n, ctx.p
    x, th = y[:n], y[n: n + p]
    state = ctx.unpack(t, y)
    x_d, _ = ctx.traj.eval(t)
    Y = ctx.plant.regressor(x)
    group = ctx.groups[0]
    lam = ctx.multipliers[0].lam_array
    radius = float(np.linalg.norm(th))
    pairs = {
        "component_inverse": (barrier.component_bounds(
            group.lower, group.upper, barrier.BarrierKind.INVERSE), lam),
        "component_log": (barrier.component_bounds(
            group.lower, group.upper, barrier.BarrierKind.LOG), lam),
        "norm_inverse": (barrier.norm_bounds(
            0.8 * radius, 1.2 * radius, p, barrier.BarrierKind.INVERSE), lam[:2]),
        "norm_log": (barrier.norm_bounds(
            0.8 * radius, 1.2 * radius, p, barrier.BarrierKind.LOG, norm_log_ok=True),
            lam[:2]),
    }
    out = {f"barrier.evaluate_us.{key}": per_call_us(lambda g=g, lm=lm: g.evaluate(th, lm))
           for key, (g, lm) in pairs.items()}
    out["barrier.feasibility_us"] = per_call_us(lambda: group.feasibility(th))
    out["model.regressor_us"] = per_call_us(lambda: ctx.plant.regressor(x))
    out["model.reference_us"] = per_call_us(lambda: ctx.traj.eval(t))
    out["adaptation.projection_us"] = per_call_us(
        lambda: adaptation.projection(-lam, lam))
    out["adaptation.theta_hat_dot_us"] = per_call_us(
        lambda: adaptation.theta_hat_dot(ctx.law_cfg, x - x_d, Y, ctx.stack,
                                         ctx.groups, ctx.multipliers, th))
    out["sim.rhs_us"] = per_call_us(lambda: ctx.rhs_flat(t, y))
    out["sim.step_us"] = per_call_us(lambda: sim.rk4_step(state, ctx, cfg.dt))
    out["history.cl_term_us"] = per_call_us(lambda: ctx.stack.cl_term(th))

    # a candidate from the middle of the reference trajectory, against the
    # full stack; the copy is made outside the timed call
    x_c = ctx.traj.eval(15.25)[0]
    Y_c = ctx.plant.regressor(x_c)
    u_c = np.zeros(n)
    xd_c = Y_c @ ctx.theta
    times = []
    for _ in range(TRY_INSERT_REPEATS):
        stack = copy.deepcopy(ctx.stack)
        started = perf_counter()
        stack.try_insert(Y_c, u_c, xd_c)
        times.append(perf_counter() - started)
    out["history.try_insert_full_us"] = statistics.median(times) * 1e6
    return out
