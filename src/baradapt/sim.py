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
from enum import Enum
from itertools import accumulate, cycle
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
    _flow_terms,
    _lambda_dot,
    _memory_terms,
    projection,  # noqa: F401  bench/tracing.py wraps it as sim.projection
)
from .barrier import ConstraintGroup, ConstraintKind
from .errors import (
    BarrierBreach,
    ConfigError,
    InfeasibleEvaluation,
    NumericalDivergence,
    _integral,
    _real,
    _vector,
)
from .history import (
    HistoryStack,
    _central_difference,
    fill_with_exact_model_data,
    write_csv,
)
from .model import get_plant, get_trajectory

Array = np.ndarray

MAX_HALVINGS = 20

# The step path keeps numpy on its cheapest entry points: a ufunc with a
# 0-d ndarray operand skips the scalar conversion a Python float or an
# np.float64 pays on every call, and gives the same bits.
_ZERO = np.array(0.0)
_TWO = np.array(2.0)

#: the logged law_code of each law: its position in UpdateLaw
LAW_CODES = {law: code for code, law in enumerate(UpdateLaw)}


# ---------------------------------------------------------------------------
# configuration


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
        object.__setattr__(self, "size", _integral(self.size, "stack.size", 0))
        object.__setattr__(self, "record_every",
                           _integral(self.record_every, "stack.record_every", 1))
        object.__setattr__(self, "min_excitation",
                           _real(self.min_excitation, "stack.min_excitation", "non-negative"))


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


def _lowered(value) -> str:
    """A law, kind or barrier field as lower-case text; an enum member
    (UpdateLaw, ConstraintKind, BarrierKind) reads as its value."""
    return str(value.value if isinstance(value, Enum) else value).lower()


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
    theta_true = cfg.theta_true
    if theta_true is not None:
        # checked at its own length: the plant checks it or takes p from it
        theta_true = _vector(theta_true, np.asarray(theta_true, dtype=object).size, "theta_true")
    try:
        plant = get_plant(cfg.plant, theta_true)
        traj = get_trajectory(cfg.trajectory)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    n, p = plant.dim_state, plant.dim_param
    if traj.dim != n:
        raise ConfigError(
            f"trajectory '{cfg.trajectory}' has dimension {traj.dim}, plant needs {n}"
        )
    law_cfg = _checked("", lambda: UpdateLawConfig(
        law=_lowered(cfg.law), dim_param=p, learning_rate=cfg.learning_rate,
        k_cl=cfg.k_cl, sigma2=cfg.sigma2,
    ))
    control_gain = _vector(cfg.control_gain, n, "control_gain", "positive")
    x0 = _vector(cfg.x0, n, "x0")
    _checked(f"plant '{cfg.plant}': ", lambda: plant.eval_regressor(x0))
    theta_hat0 = _vector(cfg.theta_hat0, p, "theta_hat0")
    dt = _real(cfg.dt, "dt", "positive")
    t_final = _real(cfg.t_final, "t_final")
    if t_final < dt:
        raise ConfigError("t_final must be at least dt")
    steps = t_final / dt
    if not np.isfinite(steps) or abs(round(steps) * dt - t_final) > 1e-6 * dt:
        raise ConfigError("t_final must be an integer multiple of dt")
    log_every = _integral(cfg.log_every, "log_every", 1)

    groups, built, multipliers = [], [], []
    th = np.asarray(theta_hat0)
    for g_idx, grp in enumerate(cfg.groups, start=1):
        key = f"groups[{g_idx}]"
        kind = _lowered(grp.kind)
        if kind == ConstraintKind.COMPONENT.value:
            lower = _vector(grp.lower, p, f"{key}.lower")
            upper = _vector(grp.upper, p, f"{key}.upper")
        elif kind == ConstraintKind.NORM.value:
            lower, upper = grp.lower, grp.upper
        else:
            raise ConfigError(f"{key}.kind must be component or norm, got '{grp.kind}'")
        group = _checked(f"{key}: ", lambda: ConstraintGroup(
            kind=kind, barrier=_lowered(grp.barrier), lower=lower, upper=upper,
            dim_param=p, norm_log_ok=bool(grp.norm_log_ok),
        ))
        n_con = group.n_constraints
        # a length-p gamma_inv serves both families; dtype=object sizes a ragged one too
        per_param = (group.kind is ConstraintKind.COMPONENT
                     and np.asarray(grp.gamma_inv, dtype=object).size == p)
        gamma_inv = _vector(grp.gamma_inv, p if per_param else n_con, f"{key}.gamma_inv")
        if per_param:
            gamma_inv *= 2
        lambda0 = _vector(grp.lambda0, n_con, f"{key}.lambda0", "positive")
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
        dt=dt,
        t_final=t_final,
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
    slacks = group._slacks(th)
    worst = int(np.argmin(slacks))
    margin = float(slacks[worst])
    if margin > 0.0:
        return
    # the lower block of slacks comes first, then the upper one
    upper, comp = divmod(worst, len(slacks) // 2)
    side, bound = ("upper", group.upper) if upper else ("lower", group.lower)
    if group.kind is ConstraintKind.COMPONENT:
        raise ConfigError(
            f"theta_hat0 violates {side} bound {bound[comp]:g} on component {comp + 1} "
            f"of {key} (margin {margin:g})"
        )
    r = float(np.linalg.norm(th))
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
        # diagonal of Gamma over every group, for the Lyapunov column and the summary
        self.gamma = np.concatenate([ms.gamma_array for ms in self.multipliers]
                                    or [np.empty(0)])
        # multipliers are integrated only for barrier laws (lam_slices is
        # then not empty); other laws still log the groups' margins
        widths = [grp.n_constraints for grp in self.groups if self.law in LAWS_WITH_BARRIER]
        ends = list(accumulate(widths, initial=self.n + self.p))
        self.lam_slices = tuple(map(slice, ends[:-1], ends[1:]))
        self.state_size = ends[-1]
        # each group whose multipliers are integrated, with their slice of y
        self._group_runtime = tuple(zip(self.groups, self.lam_slices))
        self.stack = HistoryStack(
            self.n, self.p, capacity=cfg.stack.size,
            min_eig_threshold=cfg.stack.min_excitation,
        )
        self.online = cfg.stack.mode == "online"
        if cfg.stack.mode == "offline" and cfg.stack.size > 0:
            ts = np.linspace(cfg.t_final / cfg.stack.size, cfg.t_final, cfg.stack.size)
            states = [self.traj.eval(float(t))[0] for t in ts]
            fill_with_exact_model_data(self.stack, self.plant, states)
        self.refresh_active_law()
        self._stage = self._bind_stage()
        # RK4's weights (dt / 2, dt, dt / 6) per step size, as 0-d arrays;
        # a lane halves to at most MAX_HALVINGS + 1 sizes
        self._weights = {}
        # the other operand of _attempt's one-call finiteness test
        self._zeros = np.zeros(self.state_size)

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
            if self.lam_slices else (),
        )

    # -- dynamics ----------------------------------------------------------

    def rhs_flat(self, t: float, y: Array) -> Array:
        """The law kernel: closed-loop vector field at (t, y) under the
        law the stack calls for.  Its inputs were validated when the
        context was compiled, so it makes no per-call shape or sign checks.
        It runs the stage _bind_stage built for this lane, whose result is
        one of four output rows: it stays valid until the fourth call after
        it, and a caller that keeps it longer must copy it."""
        return self._stage(t, y)

    def _bind_stage(self) -> Callable[[float, Array], Array]:
        """rhs_flat's vector field with the lane's constants and buffers
        bound once.  The stage reads y through views of one input buffer,
        self._stage_in, and copies any other y into it first.  It writes
        its result into the next of four output rows, self._stage_out,
        cycling, and returns that row.  The reference is evaluated again
        only when t changes (traj.eval must be a pure function of t, and
        its arrays are only read).  The memory terms and the active law are
        formed again after every stack change (see _revision), so no caller
        refreshes the law.  plant.regressor gets a view of the input buffer
        and must not keep it."""
        n, n_p = self.n, self.n + self.p
        theta, k, P, kcl, stack = self.theta, self.k, self.P, self.kcl, self.stack
        regressor, reference = self.plant.regressor, self.traj.eval
        flow = _flow_terms(P, np.array(self.cfg.sigma2))
        y_in = self._stage_in = np.empty(self.state_size)
        rows = self._stage_out = np.empty((4, self.state_size))
        x, th = y_in[:n], y_in[n:n_p]
        groups = tuple((grp._core, y_in[sl], np.array(ms.alpha), ms.gamma_inv_array,
                        P * grp._jac)
                       for (grp, sl), ms in zip(self._group_runtime, self.multipliers))
        # each row with its plant, estimate and multiplier blocks
        outs = cycle([(row, row[:n], row[n:n_p], [row[sl] for sl in self.lam_slices])
                      for row in rows])
        # last (t, reference): RK4 stages 2 and 3 share t; stage 4's is
        # usually the next step's t.  The active law and the memory terms
        # (A, b), and the stack revision they were formed at.
        ref_t = ref = law = memory = memory_rev = None

        def stage(t: float, y: Array) -> Array:
            nonlocal ref_t, ref, law, memory, memory_rev
            if y is not y_in:
                y_in[...] = y  # a copy, cheaper than np.copyto's call
            row, kx, kth, klams = next(outs)
            if t != ref_t:
                ref_t, ref = t, reference(t)
            x_d, xdot_d = ref
            if memory_rev != stack._revision:
                # set first, so a stage the refresh reaches does not refresh
                memory_rev = stack._revision
                memory = _memory_terms(P, kcl, stack)
                law = self.refresh_active_law()
            Y = regressor(x)
            e = x - x_d
            th_dot = flow(law, memory, e, Y, th)
            for (core, lam, alpha, gamma_inv, jac), klam in zip(groups, klams):
                # floor stage multipliers at zero: RK stage combinations may
                # dip below the projection's domain even though accepted
                # steps never do.  A vector whose list min is > 0 is its own
                # floor (a NaN entry stays NaN either way) and has no 0.0.
                positive = min(lam.tolist()) > 0.0
                if not positive:
                    lam = np.maximum(lam, _ZERO)
                values, force = core(th, lam, jac)
                # every group subtracts its force into the estimate block:
                # in place from the second group on
                th_dot = np.subtract(th_dot, force, out=kth)
                _lambda_dot(lam, alpha, gamma_inv, values, out=klam, positive=positive)
            if not groups:
                kth[...] = th_dot
            # the plant Y theta plus the input xdot_d - Y th - k e
            np.add(Y.dot(theta - th), xdot_d - k * e, out=kx)
            return row

        return stage


def build_context(cfg: ScenarioConfig) -> RunContext:
    return RunContext(cfg)


# ---------------------------------------------------------------------------
# integration


def _attempt(ctx: RunContext, t: float, y: Array, dt: float) -> Array:
    """One classic 4-stage Runge-Kutta step of the lane's vector field,
    stages 2 to 4 formed in the stage's input buffer (times stay Python
    floats), then the margin test and multiplier clamp.  A fresh result."""
    half, whole, sixth = ctx._weights.get(dt) or ctx._weights.setdefault(
        dt, (np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)))
    f, y_in = ctx.rhs_flat, ctx._stage_in
    try:
        k1 = f(t, y)
        k2 = f(t + 0.5 * dt, np.add(y, half * k1, out=y_in))
        k3 = f(t + 0.5 * dt, np.add(y, half * k2, out=y_in))
        k4 = f(t + dt, np.add(y, whole * k3, out=y_in))
        out = y + sixth * (k1 + _TWO * k2 + _TWO * k3 + k4)
    except (ArithmeticError, ValueError):
        # a callback may raise on a non-finite stage input (math.sin(inf)).
        # The stage's input buffer still holds the input of the stage that
        # raised, and a non-finite input makes every later one non-finite.
        # Callbacks are pure, so an error on a finite input is the
        # callback's own: it propagates
        if not np.isfinite(y_in).all():
            raise _NonFinite
        raise
    # one call: inf * 0 and NaN * 0 are NaN, so the dot is NaN exactly when
    # an entry is not finite, and +-0 otherwise.  The run loop ignores the
    # invalid-value flag it raises (np.errstate).
    if out.dot(ctx._zeros) != 0.0:
        raise _NonFinite
    th = out[ctx.n: ctx.n + ctx.p]
    for grp, sl in ctx._group_runtime:
        # out is finite, so no slack is NaN and the list's min is theirs
        margin = min(grp._slacks(th).tolist())
        if margin <= 0.0:
            raise InfeasibleEvaluation(
                f"step landed outside the feasible set (margin {margin:g})",
                margin=margin,
            )
        # a vector of positive multipliers is its own np.maximum(lam, 0)
        lam = out[sl]
        if min(lam.tolist()) <= 0.0:
            np.maximum(lam, _ZERO, out=lam)
    return out


def _step_flat(ctx: RunContext, t: float, y: Array, dt: float,
               budget: list | None = None) -> Array:
    # budget counts halving events shared across the whole outer step, so a
    # coarse step cannot hide behind an exponential number of tiny substeps
    if budget is None:
        budget = [MAX_HALVINGS]
    try:
        return _attempt(ctx, t, y, dt)
    except (InfeasibleEvaluation, _NonFinite) as err:
        if not ctx.lam_slices:
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
    y = _step_flat(ctx, state.t, ctx.pack(state), dt)
    return ctx.unpack(state.t + dt, y)


# ---------------------------------------------------------------------------
# trajectory log


@dataclass
class TrajectoryLog:
    columns: tuple[str, ...]
    data: Array
    #: the RunContext the run was integrated with; None on a log built from
    #: columns and data alone, or sent back by a forked lane worker
    context: RunContext | None = field(default=None, repr=False, compare=False)

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
    the run (_trajectory_log).  log.context is the run's RunContext, whose
    cfg is the canonical config; the final state is the last logged row.
    Step errors (BarrierBreach, NumericalDivergence) propagate with the
    failure time attached; a logged value that is not finite is a
    NumericalDivergence too.
    """
    ctx = build_context(cfg)
    cfg = ctx.cfg
    dt = cfg.dt
    n_steps = round(cfg.t_final / dt)

    # _step_flat returns a new array, so the states kept here are never
    # written again and need no copies
    y_prev, y = None, ctx.pack(ctx.initial_state())
    records = [(0, y, ctx.stack.excitation_level(), ctx.active_law)]
    # the finiteness checks decide divergence, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
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
    return log


def _record_sample(ctx: RunContext, k: int, y_prev: Array, y: Array, y_next: Array):
    """Offer the stack the sample at step k: the regressor and applied input
    at step k, and the central difference over steps k-1..k+1."""
    n, p, dt = ctx.n, ctx.p, ctx.cfg.dt
    x = y[:n]
    xdot_hat = _central_difference(y_prev[:n], y_next[:n], (k - 1) * dt, (k + 1) * dt)
    x_d, xdot_d = ctx.traj.eval(k * dt)
    Y = ctx.plant.regressor(x)
    u = _control(xdot_d, Y, y[n: n + p], ctx.k, x - x_d)
    ctx.stack.try_insert(Y, u, xdot_hat)


def _trajectory_log(ctx: RunContext, records) -> TrajectoryLog:
    """The log of (step, y, excitation, law) records, with ctx as its
    context.  Each column block is named next to the values it holds.
    Derived columns are computed a whole column at a time, by
    ConstraintGroup._slacks, analysis._lyapunov and np.vecdot; each value
    is bitwise what np.linalg.norm, feasibility or lyapunov_value gives for
    its row.  The Lyapunov column uses the final logged multipliers as the
    stationary-multiplier estimate."""
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
    # the multiplier slices run, in group order, to the end of y; laws
    # without multipliers log zeros, whose lam_tilde adds 0.0 to lyapunov
    lam = ys[:, n + p:] if ctx.lam_slices else np.zeros((len(ts), len(lam_names)))

    def numbered(prefix: str, count: int) -> list[str]:
        return [f"{prefix}{i + 1}" for i in range(count)]

    blocks = [
        (["t"], ts),
        (numbered("x", n), x),
        (numbered("xd", n), x_d),
        (numbered("e", n), e),
        (["e_norm"], np.sqrt(np.vecdot(e, e))),
        (numbered("theta_hat", p), th),
        (numbered("theta_err", p), tilde),
        (["theta_err_norm"], np.sqrt(np.vecdot(tilde, tilde))),
        (lam_names, lam),
        (numbered("margin", len(ctx.groups)),
         np.transpose([grp._slacks(th).min(axis=-1) for grp in ctx.groups])),
        (["excitation"], excitation),
        (["lyapunov"], analysis._lyapunov(e, tilde, lam - lam[-1], ctx.P, ctx.gamma)),
        (["law_code"], [LAW_CODES[law] for law in laws]),
    ]
    columns = tuple(name for names, _ in blocks for name in names)
    data = np.hstack([np.asarray(values, dtype=float).reshape(len(ts), len(names))
                      for names, values in blocks])
    return TrajectoryLog(columns=columns, data=data, context=ctx)
