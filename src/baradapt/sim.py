"""Closed-loop integration of plant, controller, estimate and multipliers.

The composite state (x, theta_hat, lambda_1, ..., lambda_G) advances with a
classic fixed-step 4-stage Runge-Kutta update.  Barrier blow-up is treated
as a step-size problem: if any stage or the step result leaves the feasible
set, the step is replaced by two half steps, recursively, up to
MAX_HALVINGS; only then is the run declared breached.  Multiplier entries
are clamped at zero after every accepted step, the discrete shadow of the
projection in the continuous flow.

run_scenario is deterministic: identical configs produce bitwise identical
logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from numbers import Real
from typing import Callable

import numpy as np

from . import analysis
from .adaptation import (
    LAWS_WITH_BARRIER,
    LAWS_WITH_MEMORY,
    MultiplierState,
    UpdateLaw,
    UpdateLawConfig,
    _control,
    _estimate_flow,
    _lambda_dot,
    projection,  # noqa: F401  bench/tracing.py wraps it as sim.projection
)
from .barrier import ConstraintGroup, ConstraintKind
from .errors import (
    BarrierBreach,
    ConfigError,
    InfeasibleEvaluation,
    NumericalDivergence,
    SingularGradient,
)
from .history import (
    HistoryStack,
    estimate_state_derivative,
    fill_with_exact_model_data,
    write_csv,
)
from .model import get_plant, get_trajectory

Array = np.ndarray

MAX_HALVINGS = 20

LAW_CODES = {
    UpdateLaw.GRADIENT: 0,
    UpdateLaw.CONCURRENT_LEARNING: 1,
    UpdateLaw.BARRIER_CONSTRAINED: 2,
    UpdateLaw.BARRIER_SIGMA_MOD: 3,
}


# ---------------------------------------------------------------------------
# configuration


def _integral(value, key: str) -> int:
    """value as an int; a float passes only when it is integral."""
    # value % 1 is NaN, so truthy, for NaN and the infinities
    if isinstance(value, bool) or not isinstance(value, Real) or value % 1:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class StackConfig:
    """History-stack policy.  mode is one of:
    online  - record a candidate every record_every steps during the run
    offline - prefill with exact model data before t0, record nothing after
    none    - keep the stack empty for the whole run
    """

    mode: str = "online"
    size: int = 20
    record_every: int = 50
    min_excitation: float = 1e-3

    def __post_init__(self):
        if self.mode not in ("online", "offline", "none"):
            raise ConfigError(f"stack.mode must be online/offline/none, got '{self.mode}'")
        size = _integral(self.size, "stack.size")
        record_every = _integral(self.record_every, "stack.record_every")
        if size < 0:
            raise ConfigError("stack.size must be non-negative")
        if record_every < 1:
            raise ConfigError("stack.record_every must be at least 1")
        if not self.min_excitation >= 0:  # NaN fails too
            raise ConfigError("stack.min_excitation must be non-negative")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "record_every", record_every)
        object.__setattr__(self, "min_excitation", float(self.min_excitation))


@dataclass(frozen=True)
class GroupConfig:
    """Declarative form of one constraint group plus its multiplier gains."""

    kind: str
    barrier: str
    lower: tuple[float, ...] | float
    upper: tuple[float, ...] | float
    gamma_inv: tuple[float, ...] | float
    alpha: float
    lambda0: tuple[float, ...] | float
    norm_log_ok: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs.  Vector-valued gains may be given as scalars;
    canonical_config promotes them to full tuples."""

    name: str
    law: str
    control_gain: tuple[float, ...] | float
    learning_rate: tuple[float, ...] | float
    x0: tuple[float, ...]
    theta_hat0: tuple[float, ...]
    plant: str = "benchmark"
    trajectory: str = "benchmark"
    k_cl: tuple[float, ...] | float = 1.0
    sigma2: float = 0.0
    dt: float = 1e-3
    t_final: float = 30.0
    log_every: int = 10
    theta_true: tuple[float, ...] | None = None
    groups: tuple[GroupConfig, ...] = ()
    stack: StackConfig = field(default_factory=StackConfig)


def _as_tuple(value, length: int, key: str) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1 and length != 1:
        arr = np.full(length, float(arr[0]))
    if arr.shape != (length,):
        raise ConfigError(f"{key} must be a scalar or a vector of length {length}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{key} must be finite")
    return tuple(float(v) for v in arr)


def _checked(key_prefix: str, build):
    """Call a constructor that validates its own arguments, re-raising its
    error as a ConfigError under the config key it was built from."""
    try:
        return build()
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key_prefix}{err}") from None


def _compile(cfg: ScenarioConfig) -> tuple:
    """Validate a config by building what a run needs from it: returns the
    canonical config, its UpdateLawConfig, ConstraintGroups,
    MultiplierStates, plant and reference trajectory.  Each gain is checked
    by the object that owns it; only facts about the config as a whole are
    checked here."""
    try:
        plant = get_plant(cfg.plant, cfg.theta_true)
        traj = get_trajectory(cfg.trajectory)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    n, p = plant.dim_state, plant.dim_param
    if traj.dim != n:
        raise ConfigError(
            f"trajectory '{cfg.trajectory}' has dimension {traj.dim}, plant needs {n}"
        )
    law_cfg = _checked("", lambda: UpdateLawConfig(
        law=str(cfg.law).lower(), dim_param=p, learning_rate=cfg.learning_rate,
        k_cl=cfg.k_cl, sigma2=cfg.sigma2,
    ))
    control_gain = _as_tuple(cfg.control_gain, n, "control_gain")
    if any(v <= 0 for v in control_gain):
        raise ConfigError("control_gain entries must be positive")
    x0 = _as_tuple(cfg.x0, n, "x0")
    _checked(f"plant '{cfg.plant}': ", lambda: plant.eval_regressor(x0))
    theta_hat0 = _as_tuple(cfg.theta_hat0, p, "theta_hat0")
    theta_true = None if cfg.theta_true is None else _as_tuple(cfg.theta_true, p, "theta_true")
    if cfg.dt <= 0:
        raise ConfigError("dt must be positive")
    if cfg.t_final < cfg.dt:
        raise ConfigError("t_final must be at least dt")
    steps = cfg.t_final / cfg.dt
    if not np.isfinite(steps) or abs(round(steps) * cfg.dt - cfg.t_final) > 1e-6 * cfg.dt:
        raise ConfigError("t_final must be an integer multiple of dt")
    log_every = _integral(cfg.log_every, "log_every")
    if log_every < 1:
        raise ConfigError("log_every must be at least 1")

    groups, built, multipliers = [], [], []
    th = np.asarray(theta_hat0)
    for g_idx, grp in enumerate(cfg.groups, start=1):
        key = f"groups[{g_idx}]"
        kind = str(grp.kind).lower()
        if kind == ConstraintKind.COMPONENT.value:
            lower = _as_tuple(grp.lower, p, f"{key}.lower")
            upper = _as_tuple(grp.upper, p, f"{key}.upper")
        elif kind == ConstraintKind.NORM.value:
            lower, upper = grp.lower, grp.upper
        else:
            raise ConfigError(f"{key}.kind must be component or norm, got '{grp.kind}'")
        group = _checked(f"{key}: ", lambda: ConstraintGroup(
            kind=kind, barrier=str(grp.barrier).lower(), lower=lower, upper=upper,
            dim_param=p, norm_log_ok=bool(grp.norm_log_ok),
        ))
        n_con = group.n_constraints
        # a length-p gamma_inv applies to the lower and upper family alike
        gi_raw = np.atleast_1d(np.asarray(grp.gamma_inv, dtype=float))
        if group.kind is ConstraintKind.COMPONENT and gi_raw.size == p:
            gamma_inv = tuple(float(v) for v in np.tile(gi_raw, 2))
        else:
            gamma_inv = _as_tuple(grp.gamma_inv, n_con, f"{key}.gamma_inv")
        lambda0 = _as_tuple(grp.lambda0, n_con, f"{key}.lambda0")
        if any(v <= 0 for v in lambda0):
            raise ConfigError(f"{key}.lambda0 entries must be positive")
        ms = _checked(f"{key}.", lambda: MultiplierState(
            lam=lambda0, gamma_inv=gamma_inv, alpha=grp.alpha))
        _check_initial_feasibility(group, th, key)
        groups.append(GroupConfig(
            kind=kind, barrier=group.barrier.value, lower=group.lower, upper=group.upper,
            gamma_inv=ms.gamma_inv, alpha=float(ms.alpha), lambda0=ms.lam,
            norm_log_ok=group.norm_log_ok,
        ))
        built.append(group)
        multipliers.append(ms)

    out = replace(
        cfg,
        law=law_cfg.law.value,
        control_gain=control_gain,
        learning_rate=law_cfg.learning_rate,
        k_cl=law_cfg.k_cl,
        sigma2=law_cfg.sigma2,
        dt=float(cfg.dt),
        t_final=float(cfg.t_final),
        log_every=log_every,
        x0=x0,
        theta_hat0=theta_hat0,
        theta_true=theta_true,
        groups=tuple(groups),
    )
    return out, law_cfg, tuple(built), tuple(multipliers), plant, traj


def canonical_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Validate and normalize: scalars promoted to full tuples, enum strings
    lowered, so that equal effective configs compare equal."""
    return _compile(cfg)[0]


def _check_initial_feasibility(group: ConstraintGroup, th: Array, key: str):
    ok, margin = group.feasibility(th)
    if ok:
        return
    if group.kind is ConstraintKind.COMPONENT:
        p = group.dim_param
        worst = int(np.argmin(group.slacks(th)))
        if worst < p:
            bound, side, comp = group.lower[worst], "lower", worst + 1
        else:
            bound, side, comp = group.upper[worst - p], "upper", worst - p + 1
        raise ConfigError(
            f"theta_hat0 violates {side} bound {bound:g} on component {comp} "
            f"of {key} (margin {margin:g})"
        )
    r = float(np.linalg.norm(th))
    side, bound = ("lower", group.lower) if r <= group.lower else ("upper", group.upper)
    raise ConfigError(
        f"theta_hat0 violates {side} norm bound {bound:g} of {key} "
        f"(norm {r:g}, margin {margin:g})"
    )


# ---------------------------------------------------------------------------
# runtime state


@dataclass
class CompositeState:
    t: float
    x: Array
    theta_hat: Array
    lambdas: tuple[Array, ...] = ()


def control_input(x, x_d, xdot_d, theta_hat, Y, control_gain) -> Array:
    """Certainty-equivalence input xdot_d - Y theta_hat - k (x - x_d)."""
    e = np.asarray(x, dtype=float) - np.asarray(x_d, dtype=float)
    return _control(np.asarray(xdot_d, dtype=float), np.asarray(Y, dtype=float),
                    np.asarray(theta_hat, dtype=float),
                    np.asarray(control_gain, dtype=float), e)


class _NonFinite(Exception):
    pass


class RunContext:
    """Compiled form of a ScenarioConfig: resolved plant and trajectory,
    built constraint groups, flat-state layout, and the history stack."""

    def __init__(self, cfg: ScenarioConfig):
        (cfg, self.law_cfg, self.groups, self.multipliers,
         self.plant, self.traj) = _compile(cfg)
        self.cfg = cfg
        self.n = self.plant.dim_state
        self.p = self.plant.dim_param
        self.theta = self.plant.theta
        self.k = np.asarray(cfg.control_gain)
        self.law = self.law_cfg.law
        self.P = self.law_cfg.learning_rate_array
        self.kcl = self.law_cfg.k_cl_array
        # diagonal of Gamma over every group, for the Lyapunov bookkeeping
        self.gamma = np.concatenate([ms.gamma_array for ms in self.multipliers]
                                    or [np.empty(0)])
        # multipliers are integrated only for barrier laws; other laws still
        # log the constraint margins of any configured groups
        self.has_multipliers = self.law in LAWS_WITH_BARRIER and bool(self.groups)
        widths = [grp.n_constraints for grp in self.groups] if self.has_multipliers else []
        ends = list(accumulate(widths, initial=self.n + self.p))
        self.lam_slices = tuple(map(slice, ends[:-1], ends[1:]))
        self.state_size = ends[-1]
        self._group_runtime = tuple(
            (grp, sl, ms.alpha, ms.gamma_inv_array)
            for grp, sl, ms in zip(self.groups, self.lam_slices, self.multipliers)
        )
        self.stack = HistoryStack(
            self.n, self.p, capacity=cfg.stack.size,
            min_eig_threshold=cfg.stack.min_excitation,
        )
        self.online = cfg.stack.mode == "online"
        if cfg.stack.mode == "offline" and cfg.stack.size > 0:
            ts = np.linspace(cfg.t_final / cfg.stack.size, cfg.t_final, cfg.stack.size)
            states = [self.traj.eval(float(t))[0] for t in ts]
            fill_with_exact_model_data(self.stack, self.plant, states)
        self.active_law = self.law
        self.refresh_active_law()

    def uub_constants(self, sigma_bar1: float, lambda_star=None) -> analysis.UubConstants:
        """Decay constants of this run's gains over every constraint group
        (with or without multipliers); lambda_star defaults to zero."""
        alpha = min((ms.alpha for ms in self.multipliers), default=0.0)
        if lambda_star is None:
            lambda_star = np.zeros(self.gamma.size)
        return analysis.uub_constants(self.cfg.control_gain, self.cfg.learning_rate,
                                      self.cfg.k_cl, self.gamma, alpha, sigma_bar1, lambda_star)

    # -- law scheduling ----------------------------------------------------

    def refresh_active_law(self) -> UpdateLaw:
        """While an online stack is below its excitation threshold, laws with
        a recorded-data term run their sigma-mod variant instead; once the
        stack passes they switch back.  Explicit sigma-mod never switches."""
        law = self.law
        if law in LAWS_WITH_MEMORY and self.online and not self.stack.assumption_met:
            law = UpdateLaw.BARRIER_SIGMA_MOD
        self.active_law = law
        return law

    # -- packing -----------------------------------------------------------

    def pack(self, state: CompositeState) -> Array:
        y = np.empty(self.state_size)
        y[: self.n] = state.x
        y[self.n: self.n + self.p] = state.theta_hat
        for sl, lam in zip(self.lam_slices, state.lambdas):
            y[sl] = lam
        return y

    def unpack(self, t: float, y: Array) -> CompositeState:
        return CompositeState(
            t=t,
            x=y[: self.n].copy(),
            theta_hat=y[self.n: self.n + self.p].copy(),
            lambdas=tuple(y[sl].copy() for sl in self.lam_slices),
        )

    def initial_state(self) -> CompositeState:
        return CompositeState(
            t=0.0,
            x=np.asarray(self.cfg.x0),
            theta_hat=np.asarray(self.cfg.theta_hat0),
            lambdas=tuple(ms.lam_array for ms in self.multipliers)
            if self.has_multipliers else (),
        )

    # -- dynamics ----------------------------------------------------------

    def rhs_flat(self, t: float, y: Array) -> Array:
        """The law kernel: closed-loop vector field at (t, y) under the
        active law.  Its inputs were validated when the context was
        compiled, so it makes no per-call shape or sign checks."""
        n, p = self.n, self.p
        x = y[:n]
        th = y[n: n + p]
        x_d, xdot_d = self.traj.eval(t)
        Y = self.plant.regressor(x)
        e = x - x_d
        yd = np.empty(self.state_size)
        yd[:n] = Y @ self.theta + _control(xdot_d, Y, th, self.k, e)
        forces = []
        for grp, sl, alpha, gamma_inv in self._group_runtime:
            # floor stage multipliers at zero: RK stage combinations may dip
            # below the projection's domain even though accepted steps never do
            lam = np.maximum(y[sl], 0.0)
            values, force = grp._core(th, lam)
            forces.append(force)
            yd[sl] = _lambda_dot(lam, alpha, gamma_inv, values)
        yd[n: n + p] = _estimate_flow(self.active_law, self.P, self.kcl, self.cfg.sigma2,
                                      e, Y, th, self.stack, forces)
        return yd


def build_context(cfg: ScenarioConfig) -> RunContext:
    return RunContext(cfg)


# ---------------------------------------------------------------------------
# integration


def rk4(f: Callable[[float, Array], Array], t: float, y: Array, dt: float) -> Array:
    """One classic 4-stage Runge-Kutta step for ydot = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _attempt(ctx: RunContext, t: float, y: Array, dt: float) -> Array:
    try:
        out = rk4(ctx.rhs_flat, t, y, dt)
    except (ArithmeticError, ValueError):
        # a callback may raise on a non-finite stage (math.sin(inf)): replay
        # with each stage checked; an error on a finite stage propagates
        def finite_stages(ts: float, ys: Array) -> Array:
            if not np.isfinite(ys).all():
                raise _NonFinite
            return ctx.rhs_flat(ts, ys)

        rk4(finite_stages, t, y, dt)
        raise
    if not np.isfinite(out).all():
        raise _NonFinite
    n, p = ctx.n, ctx.p
    th = out[n: n + p]
    for grp in ctx.groups if ctx.has_multipliers else ():
        ok, margin = grp.feasibility(th)
        if not ok:
            raise InfeasibleEvaluation(
                f"step landed outside the feasible set (margin {margin:g})",
                margin=margin,
            )
    for sl in ctx.lam_slices:
        np.maximum(out[sl], 0.0, out=out[sl])
    return out


def _step_flat(ctx: RunContext, t: float, y: Array, dt: float,
               budget: list | None = None) -> Array:
    # budget counts halving events shared across the whole outer step, so a
    # coarse step cannot hide behind an exponential number of tiny substeps
    if budget is None:
        budget = [MAX_HALVINGS]
    try:
        return _attempt(ctx, t, y, dt)
    except (InfeasibleEvaluation, SingularGradient, _NonFinite) as err:
        if not ctx.has_multipliers:
            raise NumericalDivergence(
                f"non-finite state while integrating at t={t:.6g}", time=t
            ) from None
        if budget[0] <= 0:
            if isinstance(err, _NonFinite):
                raise NumericalDivergence(
                    f"non-finite state at t={t:.6g} with step {dt:g}", time=t
                ) from None
            raise BarrierBreach(
                f"barrier stayed infeasible at t={t:.6g} after {MAX_HALVINGS} "
                f"halvings (step {dt:g})",
                time=t,
                dt=dt,
            ) from None
        budget[0] -= 1
        half = 0.5 * dt
        mid = _step_flat(ctx, t, y, half, budget)
        return _step_flat(ctx, t + half, mid, half, budget)


def rk4_step(state: CompositeState, ctx: RunContext, dt: float) -> CompositeState:
    """Advance the composite state by exactly dt, halving internally when a
    barrier is about to be crossed."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ctx.refresh_active_law()
    y = _step_flat(ctx, state.t, ctx.pack(state), dt)
    return ctx.unpack(state.t + dt, y)


# ---------------------------------------------------------------------------
# trajectory log


@dataclass
class TrajectoryLog:
    columns: tuple[str, ...]
    data: Array
    meta: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index = {name: i for i, name in enumerate(self.columns)}

    def column(self, name: str) -> Array:
        return self.data[:, self._index[name]]

    def block(self, prefix: str) -> Array:
        """All columns named prefix1, prefix2, ... in order, as a matrix."""
        idx = []
        i = 1
        while f"{prefix}{i}" in self._index:
            idx.append(self._index[f"{prefix}{i}"])
            i += 1
        return self.data[:, idx]

    def multipliers(self) -> Array:
        """All multiplier columns lambda<g>_<i>, group after group."""
        return self.data[:, [i for name, i in self._index.items() if name.startswith("lambda")]]

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def to_csv(self, path_or_buf) -> None:
        # Python floats format faster than numpy scalars, to the same text
        write_csv(path_or_buf, self.columns, map(np.ndarray.tolist, self.data))


def run_scenario(cfg: ScenarioConfig) -> TrajectoryLog:
    """Integrate the scenario and return the logged trajectory.

    Logs one row at t=0, one every log_every steps, and one at t_final
    when log_every does not divide the step count.  The loop records only
    what it cannot recompute: per logged step its index, state, stack
    excitation and active law.  The log is built from those records after
    the run (_trajectory_log).  log.meta holds the run's RunContext
    ("context", whose cfg is the canonical config), the final state and,
    when multipliers run, "lambda_star".  Step errors (BarrierBreach,
    NumericalDivergence) propagate with the failure time attached; a
    logged value that is not finite is a NumericalDivergence too.
    """
    ctx = build_context(cfg)
    cfg = ctx.cfg
    dt = cfg.dt
    n_steps = round(cfg.t_final / dt)

    # _step_flat returns a new array, so the states kept here are never
    # written again and need no copies
    y_prev, y = None, ctx.pack(ctx.initial_state())
    ctx.refresh_active_law()
    records = [(0, y, ctx.stack.excitation_level(), ctx.active_law)]
    # the finiteness checks decide divergence, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            ctx.refresh_active_law()
            y_next = _step_flat(ctx, k * dt, y, dt)
            if ctx.online and y_prev is not None and (k + 1) % cfg.stack.record_every == 0:
                _record_sample(ctx, k, y_prev, y, y_next)
            y_prev, y = y, y_next
            if (k + 1) % cfg.log_every == 0 or k + 1 == n_steps:
                records.append((k + 1, y, ctx.stack.excitation_level(), ctx.active_law))
        log = _trajectory_log(ctx, records)
    # a finite state can still be too large for its norms and energy
    bad = ~np.isfinite(log.data).all(axis=1)
    if bad.any():
        t = float(log.data[bad.argmax(), 0])
        raise NumericalDivergence(f"non-finite logged value at t={t:.6g}", time=t)
    log.meta["context"] = ctx
    log.meta["final_state"] = ctx.unpack(n_steps * dt, y)
    return log


def _record_sample(ctx: RunContext, k: int, y_prev: Array, y: Array, y_next: Array):
    """Offer the stack the sample at step k: the regressor and applied input
    at step k, and the central difference over steps k-1..k+1."""
    n, p, dt = ctx.n, ctx.p, ctx.cfg.dt
    x = y[:n]
    xdot_hat = estimate_state_derivative([(k - 1) * dt, k * dt, (k + 1) * dt],
                                         [y_prev[:n], x, y_next[:n]])
    x_d, xdot_d = ctx.traj.eval(k * dt)
    Y = ctx.plant.regressor(x)
    u = _control(xdot_d, Y, y[n: n + p], ctx.k, x - x_d)
    ctx.stack.try_insert(Y, u, xdot_hat)


def _trajectory_log(ctx: RunContext, records) -> TrajectoryLog:
    """The log of (step, y, excitation, law) records.  Each column block is
    named next to the values it holds.  The Lyapunov column uses the final
    logged multipliers as the stationary-multiplier estimate."""
    n, p = ctx.n, ctx.p
    steps, ys, excitation, laws = zip(*records)
    ts = [k * ctx.cfg.dt for k in steps]
    ys = np.array(ys)
    x, th = ys[:, :n], ys[:, n: n + p]
    x_d = np.array([ctx.traj.eval(t)[0] for t in ts])
    e = x - x_d
    tilde = ctx.theta - th
    lam_names = [f"lambda{g}_{i + 1}" for g, grp in enumerate(ctx.groups, start=1)
                 for i in range(grp.n_constraints)]
    meta = {}
    if ctx.has_multipliers:
        # the multiplier slices run, in group order, to the end of y
        lam = ys[:, n + p:]
        meta["lambda_star"] = tuple(lam[-1])
        gamma, lam_tilde = ctx.gamma, lam - lam[-1]
    else:
        lam = np.zeros((len(ts), len(lam_names)))
        gamma, lam_tilde = np.empty(0), np.empty((len(ts), 0))

    def numbered(prefix: str, count: int) -> list[str]:
        return [f"{prefix}{i + 1}" for i in range(count)]

    blocks = [
        (["t"], ts),
        (numbered("x", n), x),
        (numbered("xd", n), x_d),
        (numbered("e", n), e),
        (["e_norm"], [np.linalg.norm(row) for row in e]),
        (numbered("theta_hat", p), th),
        (numbered("theta_err", p), tilde),
        (["theta_err_norm"], [np.linalg.norm(row) for row in tilde]),
        (lam_names, lam),
        (numbered("margin", len(ctx.groups)),
         [[grp.feasibility(row).margin for grp in ctx.groups] for row in th]),
        (["excitation"], excitation),
        (["lyapunov"], [analysis.lyapunov_value(e[i], tilde[i], lam_tilde[i], ctx.P, gamma)
                        for i in range(len(ts))]),
        (["law_code"], [LAW_CODES[law] for law in laws]),
    ]
    columns = tuple(name for names, _ in blocks for name in names)
    data = np.hstack([np.asarray(values, dtype=float).reshape(len(ts), len(names))
                      for names, values in blocks])
    return TrajectoryLog(columns=columns, data=data, meta=meta)


# ---------------------------------------------------------------------------
# derived metrics


def steady_state_rms(log: TrajectoryLog) -> float:
    """RMS of the tracking error norm over the steady-state window."""
    return analysis.steady_state_rms(log.column("t"), log.column("e_norm"))


def min_margin(log: TrajectoryLog) -> float:
    """Smallest logged constraint margin across all groups; +inf if the
    scenario has no groups."""
    margins = log.block("margin")
    return float(margins.min()) if margins.size else float("inf")
