import io
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from baradapt import analysis, sim
from baradapt.adaptation import (
    LAWS_WITH_BARRIER,
    UpdateLaw,
    _control,
    _flow_terms,
    _memory_terms,
    projection,
    theta_hat_dot,
)
from baradapt.barrier import BarrierKind, ConstraintKind
from baradapt.cli import load_config
from baradapt.errors import (
    BarrierBreach,
    ConfigError,
    InfeasibleEvaluation,
    NumericalDivergence,
)
from baradapt.history import _central_difference, fill_with_exact_model_data
from baradapt.sim import (
    CompositeState,
    GroupConfig,
    ScenarioConfig,
    StackConfig,
    TrajectoryLog,
    build_context,
    canonical_config,
    rk4_step,
    run_scenario,
)

SEC5A_GROUP = GroupConfig(
    kind="component",
    barrier="inverse",
    lower=(3.0, 6.0, 10.0, 12.0),
    upper=(6.0, 12.0, 17.0, 22.0),
    gamma_inv=(0.4, 0.1, 0.1, 0.9),
    alpha=0.1,
    lambda0=5.0,
)


def barrier_cfg(**overrides) -> ScenarioConfig:
    base = dict(
        name="case",
        law="barrier_constrained",
        control_gain=10.0,
        learning_rate=0.075,
        k_cl=(0.02, 0.5, 0.9, 0.02),
        sigma2=0.1,
        dt=1e-3,
        t_final=1.0,
        log_every=10,
        x0=(10.0, 5.0),
        theta_hat0=(4.5, 8.0, 12.0, 15.0),
        groups=(SEC5A_GROUP,),
        stack=StackConfig(mode="online"),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_canonical_promotes_scalars():
    cfg = canonical_config(barrier_cfg())
    assert cfg.control_gain == (10.0, 10.0)
    assert cfg.learning_rate == (0.075,) * 4
    # a per-parameter gamma_inv applies to the lower and upper families alike
    assert cfg.groups[0].gamma_inv == (0.4, 0.1, 0.1, 0.9) * 2
    assert cfg.groups[0].lambda0 == (5.0,) * 8


def test_canonical_is_idempotent():
    cfg = canonical_config(barrier_cfg())
    assert canonical_config(cfg) == cfg


def test_enum_members_canonicalise_as_their_values():
    cases = [
        (UpdateLaw.GRADIENT, SEC5A_GROUP, ConstraintKind.COMPONENT, BarrierKind.LOG),
        (UpdateLaw.BARRIER_SIGMA_MOD, NORM_GROUP, ConstraintKind.NORM, BarrierKind.INVERSE),
    ]
    for law, group, kind, barrier in cases:
        theta_hat0 = NORM_THETA if group is NORM_GROUP else (4.5, 8.0, 12.0, 15.0)
        by_text = barrier_cfg(law=law.value, theta_hat0=theta_hat0,
                              groups=(replace(group, barrier=barrier.value),))
        by_enum = barrier_cfg(law=law, theta_hat0=theta_hat0,
                              groups=(replace(group, kind=kind, barrier=barrier),))
        assert canonical_config(by_enum) == canonical_config(by_text)


def test_canonical_rejects_bad_values():
    with pytest.raises(ConfigError):
        canonical_config(barrier_cfg(law="midpoint"))
    with pytest.raises(ConfigError):
        canonical_config(barrier_cfg(control_gain=0.0))
    with pytest.raises(ConfigError):
        canonical_config(barrier_cfg(dt=-1.0))
    with pytest.raises(ConfigError):
        canonical_config(barrier_cfg(t_final=0.0015))  # not a multiple of dt
    with pytest.raises(ConfigError):
        canonical_config(barrier_cfg(log_every=0))
    with pytest.raises(ConfigError):
        canonical_config(barrier_cfg(x0=(1.0, 2.0, 3.0)))
    with pytest.raises(ConfigError):
        canonical_config(barrier_cfg(plant="no_such_plant"))


def test_canonical_names_violated_bound():
    with pytest.raises(ConfigError, match=r"lower bound 3 on component 1"):
        canonical_config(barrier_cfg(theta_hat0=(2.0, 8.0, 12.0, 15.0)))
    with pytest.raises(ConfigError, match=r"upper bound 22 on component 4"):
        canonical_config(barrier_cfg(theta_hat0=(4.5, 8.0, 12.0, 23.0)))
    norm_group = GroupConfig(kind="norm", barrier="inverse", lower=25.0,
                             upper=28.0, gamma_inv=0.1, alpha=0.1, lambda0=5.0)
    with pytest.raises(ConfigError, match=r"lower norm bound 25"):
        canonical_config(barrier_cfg(groups=(norm_group,),
                                     theta_hat0=(1.0, 1.0, 1.0, 1.0)))


def test_canonical_rejects_bad_group_gains():
    with pytest.raises(ConfigError, match=r"groups\[1\]"):
        canonical_config(barrier_cfg(groups=(replace(SEC5A_GROUP, alpha=0.0),)))
    with pytest.raises(ConfigError, match=r"lambda0"):
        canonical_config(barrier_cfg(groups=(replace(SEC5A_GROUP, lambda0=0.0),)))
    with pytest.raises(ConfigError, match=r"kind"):
        canonical_config(barrier_cfg(groups=(replace(SEC5A_GROUP, kind="ball"),)))
    # a per-parameter gamma_inv is checked like a full-length one
    for bad in (np.nan, np.inf):
        group = replace(SEC5A_GROUP, gamma_inv=(bad, 0.1, 0.1, 0.9))
        with pytest.raises(ConfigError, match=r"^groups\[1\]\.gamma_inv must be finite"):
            canonical_config(barrier_cfg(groups=(group,)))
    # and a bool entry is caught before numpy reads it as 1.0
    group = replace(SEC5A_GROUP, gamma_inv=(True, 0.1, 0.1, 0.9))
    with pytest.raises(ConfigError,
                       match=r"^groups\[1\]\.gamma_inv must be numbers, got \(True, 0\.1"):
        canonical_config(barrier_cfg(groups=(group,)))


def test_canonical_checks_the_regressor_shape(monkeypatch):
    from baradapt import model

    def flat_plant():
        return replace(model.benchmark_plant(), regressor=lambda x: np.zeros(4))

    monkeypatch.setitem(model.PLANTS, "flat", flat_plant)
    with pytest.raises(ConfigError, match=r"plant 'flat': regressor returned shape \(4,\)"):
        canonical_config(barrier_cfg(plant="flat"))


def test_stack_config_validation():
    with pytest.raises(ConfigError):
        StackConfig(mode="buffered")
    with pytest.raises(ConfigError):
        StackConfig(record_every=0)
    with pytest.raises(ConfigError):
        StackConfig(min_excitation=-1.0)
    with pytest.raises(ConfigError, match=r"^stack\.size must be non-negative"):
        StackConfig(size=-1)
    # a bool is not a threshold, as on the JSON path
    with pytest.raises(ConfigError, match=r"^stack\.min_excitation must be non-negative"):
        StackConfig(min_excitation=True)


def with_field(name: str, key: str, value) -> ScenarioConfig:
    """canonical_config of a bundled scenario with the field at a dotted key
    (a top-level field, stack.<field> or groups[1].<field>) replaced."""
    cfg = load_config(name)
    head, _, field = key.partition(".")
    if head == "stack":
        cfg = replace(cfg, stack=replace(cfg.stack, **{field: value}))
    elif head == "groups[1]":
        cfg = replace(cfg, groups=(replace(cfg.groups[0], **{field: value}),))
    else:
        cfg = replace(cfg, **{key: value})
    return canonical_config(cfg)


NUMERIC_KEYS = ["control_gain", "learning_rate", "k_cl", "sigma2", "dt", "t_final", "x0",
                "theta_hat0", "theta_true", "stack.min_excitation"]
GROUP_KEYS = [f"groups[1].{field}" for field in
              ("lower", "upper", "gamma_inv", "alpha", "lambda0")]
# (scenario, dotted key, the pattern its message matches): a norm group's
# bounds are checked together by ConstraintGroup, under the group's key
NON_FINITE_CASES = (
    [("sec5a", key, rf"^{re.escape(key)} must") for key in NUMERIC_KEYS + GROUP_KEYS]
    + [("sec5b", key, r"^groups\[1\]: " if key.endswith(("lower", "upper"))
        else rf"^{re.escape(key)} must") for key in GROUP_KEYS]
)


# (scenario, dotted key, value, the whole message): a value numpy cannot
# read as floats is a ConfigError under its key, as any other bad number
UNREADABLE_VECTORS = [
    ("sec5a", "x0", ((1.0, 2.0), 3.0), r"^x0 must be a scalar or a vector of length 2$"),
    ("sec5a", "control_gain", [1.0, [2.0]],
     r"^control_gain must be a scalar or a vector of length 2$"),
    ("sec5a", "groups[1].gamma_inv", [0.1, [0.2]],
     r"^groups\[1\]\.gamma_inv must be a scalar or a vector of length 8$"),
    ("sec5b", "groups[1].gamma_inv", [0.1, [0.2]],
     r"^groups\[1\]\.gamma_inv must be a scalar or a vector of length 2$"),
    ("sec5a", "theta_true", [1.0, [2.0]], r"^theta_true must be a scalar or a vector of length 2$"),
    ("sec5a", "x0", "ab", r"^x0 must be numbers, got 'ab'$"),
    ("sec5a", "x0", 10**400, r"^x0 must be finite$"),
    ("sec5a", "groups[1].lambda0", 10**400, r"^groups\[1\]\.lambda0 must be finite$"),
    ("sec5a", "learning_rate", 10**400, r"^learning_rate must be finite$"),
]


@pytest.mark.parametrize("build, pattern", [
    (lambda: canonical_config(barrier_cfg(log_every=2.5)), r"^log_every must"),
    (lambda: StackConfig(size=2.7), r"^stack\.size must"),
    (lambda: StackConfig(record_every=1.5), r"^stack\.record_every must"),
    (lambda: StackConfig(min_excitation=float("nan")), r"^stack\.min_excitation must"),
    # a scalar is one value: the plant takes theta_true's length as given
    (lambda: with_field("sec5a", "theta_true", 5.0), r"^theta_true has length 1, expected 4"),
] + [
    (lambda name=name, key=key, value=value: with_field(name, key, value), pattern)
    for name, key, pattern in NON_FINITE_CASES for value in (np.nan, np.inf, True)
] + [
    (lambda name=name, key=key, value=value: with_field(name, key, value), pattern)
    for name, key, value, pattern in UNREADABLE_VECTORS
], ids=["log_every", "stack_size", "record_every", "nan_min_excitation", "scalar_theta_true"] + [
    f"{name}-{key}-{value}" for name, key, _ in NON_FINITE_CASES
    for value in ("nan", "inf", "True")
] + [
    f"{name}-{key}-{type(value).__name__}" for name, key, value, _ in UNREADABLE_VECTORS
])
def test_config_rejects_non_integral_counts_and_nan(build, pattern):
    # int() would truncate these counts, NaN fails no `< 0` check,
    # float(True) is 1.0, and numpy raises its own ValueError or
    # OverflowError for an unreadable vector
    with pytest.raises(ConfigError, match=pattern):
        build()


def test_theta_true_sets_a_zero_regressor_plants_parameter_count():
    # zero_regressor takes its parameter count from theta_true's length
    cfg = replace(load_config("sanity"), theta_true=(1.0, 2.0), theta_hat0=(0.0, 0.0),
                  learning_rate=0.075, k_cl=1.0, t_final=0.1)
    assert canonical_config(cfg).theta_true == (1.0, 2.0)
    assert build_context(cfg).p == 2
    assert run_scenario(cfg).block("theta_hat").shape[1] == 2


def test_stack_config_normalises_its_fields():
    stack = StackConfig(size=20.0, record_every=np.int64(50), min_excitation=1)
    assert stack == StackConfig(min_excitation=1.0)
    assert type(stack.size) is int and type(stack.record_every) is int
    assert type(stack.min_excitation) is float


# ---------------------------------------------------------------------------
# pieces


def test_control_input_hand_value():
    # u = xdot_d - Y theta_hat - k e
    Y = np.array([[1.0, 0.0], [0.0, 2.0]])
    e = np.array([1.0, 1.0]) - np.array([0.0, 2.0])
    u = _control(np.array([0.5, 0.5]), Y, np.array([2.0, 3.0]), np.array([10.0, 10.0]), e)
    assert np.allclose(u, [0.5 - 2.0 - 10.0, 0.5 - 6.0 + 10.0], rtol=0, atol=0)


def rk4(f, t, y, dt):
    """One classic 4-stage Runge-Kutta step for ydot = f(t, y), written out
    with fresh stage inputs and Python-float weights: the tests' reference,
    independent of sim._attempt."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_linear_decay_anchor():
    got = rk4(lambda t, y: -y, 0.0, np.array([1.0]), 0.1)
    assert abs(got[0] - 0.9048375) < 1e-12


def test_rk4_uses_time_argument():
    # ydot = 2t integrates exactly to t^2 under RK4
    got = rk4(lambda t, y: np.array([2.0 * t]), 1.0, np.array([1.0]), 0.5)
    assert got[0] == pytest.approx(1.0 + (1.5**2 - 1.0**2), rel=1e-14)


NORM_GROUP = GroupConfig(kind="norm", barrier="inverse", lower=25.0, upper=28.0,
                         gamma_inv=0.1, alpha=0.1, lambda0=5.0)
NORM_THETA = (4.5, 11.0, 13.5, 21.0)


@pytest.mark.parametrize("kind", ["component", "norm"])
@pytest.mark.parametrize("barrier", ["inverse", "log"])
def test_rhs_matches_module_pieces(kind, barrier):
    base = SEC5A_GROUP if kind == "component" else NORM_GROUP
    group = replace(base, barrier=barrier, norm_log_ok=kind == "norm")
    theta_hat0 = NORM_THETA if kind == "norm" else (4.5, 8.0, 12.0, 15.0)
    ctx = build_context(barrier_cfg(groups=(group,), theta_hat0=theta_hat0))
    x_ref = [ctx.traj.eval(float(t))[0] for t in np.linspace(0.5, 30.0, 20)]
    fill_with_exact_model_data(ctx.stack, ctx.plant, x_ref)
    assert ctx.refresh_active_law() is UpdateLaw.BARRIER_CONSTRAINED
    t = 0.5
    y = ctx.pack(ctx.initial_state())
    sl = ctx.lam_slices[0]
    # a multiplier exactly at 0 on the first constraint: its slack exceeds 1,
    # so the log barrier's value there is negative and the projection clips
    # the inward flow
    y[sl.start] = 0.0
    yd = ctx.rhs_flat(t, y)

    x, th, lam = y[:2], y[2:6], y[sl]
    x_d, xdot_d = ctx.traj.eval(t)
    Y = ctx.plant.eval_regressor(x)
    u = xdot_d - Y @ th - np.asarray(ctx.cfg.control_gain) * (x - x_d)
    assert np.allclose(yd[:2], Y @ ctx.plant.theta + u, rtol=1e-14, atol=0)
    grp, ms = ctx.groups[0], replace(ctx.multipliers[0], lam=tuple(lam))
    expected_th = theta_hat_dot(ctx.law_cfg, x - x_d, Y, ctx.stack, (grp,), (ms,), th)
    assert np.allclose(yd[2:6], expected_th, rtol=1e-14, atol=0)
    c = grp.evaluate(th, lam).values
    expected_lam = projection(-ms.alpha * lam + ms.gamma_inv_array * c, lam)
    assert np.allclose(yd[sl], expected_lam, rtol=1e-14, atol=0)
    if barrier == "log":
        assert yd[sl.start] == 0.0


def written_out_estimate_flow(ctx, t, y):
    """The estimate flow of ctx.active_law, barrier_constrained or its
    sigma-mod fallback, at (t, y), term by term."""
    x, th = y[:2], y[2:6]
    e = x - ctx.traj.eval(t)[0]
    Y = ctx.plant.eval_regressor(x)
    P, k_cl, stack = ctx.P, ctx.kcl, ctx.stack
    if ctx.active_law is UpdateLaw.BARRIER_CONSTRAINED:
        flow = P * (Y.T @ e) + P * k_cl * (stack._proj - stack.gram @ th)
    else:
        assert ctx.active_law is UpdateLaw.BARRIER_SIGMA_MOD
        flow = P * (Y.T @ e) - ctx.cfg.sigma2 * th
    for grp, sl in zip(ctx.groups, ctx.lam_slices):
        flow = flow - P * grp.evaluate(th, y[sl]).weighted_gradient
    return flow


def test_kernel_memory_terms_follow_every_stack_change(monkeypatch):
    # the kernel forms its memory terms and its law once per stack change;
    # after an append, a swap and a reverted swap it must match the stack
    # as it is
    ctx = build_context(barrier_cfg(stack=StackConfig(mode="online", size=3)))
    stack, t = ctx.stack, 0.5
    y = ctx.pack(ctx.initial_state())
    rng = np.random.default_rng(8)

    def offer(scale=1.0):
        return stack.try_insert(scale * rng.normal(size=(2, 4)), rng.normal(size=2),
                                rng.normal(size=2))

    laws = []

    def check():
        assert np.allclose(ctx.rhs_flat(t, y)[2:6], written_out_estimate_flow(ctx, t, y),
                           rtol=1e-14, atol=0)
        laws.append(ctx.active_law)

    ctx.rhs_flat(t, y)  # forms the terms of the empty stack
    for _ in range(3):
        assert offer()
        check()
    assert offer(scale=10.0) and len(stack) == 3  # a swap on the full stack
    check()

    before = (tuple(stack._entries), stack._grams.copy(), stack.gram, stack._proj,
              stack.excitation_level())
    level = stack.excitation_level
    calls, inside = [], []

    def level_after_swap():
        if inside:  # the stage's law refresh reads the level too
            return level()
        inside.append(True)
        calls.append(ctx.rhs_flat(t, y))  # forms the terms of the swapped stack
        inside.pop()
        return before[-1] if len(calls) == 2 else level()

    monkeypatch.setattr(stack, "excitation_level", level_after_swap)
    assert not offer(scale=10.0)
    monkeypatch.undo()
    assert len(calls) == 2  # the candidate passed the trial and was reverted
    entries, grams, gram, proj, excitation = before
    assert len(stack) == 3 and all(a is b for a, b in zip(stack._entries, entries))
    assert np.array_equal(stack._grams, grams)
    assert np.array_equal(stack.gram, gram) and np.array_equal(stack._proj, proj)
    assert stack.excitation_level() == excitation
    check()
    # one append leaves the stack unexcited: the stage ran the fallback
    assert laws == [UpdateLaw.BARRIER_SIGMA_MOD] + [UpdateLaw.BARRIER_CONSTRAINED] * 4


def test_rhs_raises_outside_a_group():
    ctx = build_context(barrier_cfg())
    y = ctx.pack(ctx.initial_state())
    y[2] = 2.0  # below the first lower bound
    with pytest.raises(InfeasibleEvaluation) as err:
        ctx.rhs_flat(0.0, y)
    assert err.value.margin == -1.0


def test_rhs_raises_infeasible_at_origin_of_norm_group():
    # the radial direction is undefined at the origin, which lies inside the
    # lower sphere: the stage is infeasible, and the integrator halves on it
    ctx = build_context(barrier_cfg(groups=(NORM_GROUP,), theta_hat0=NORM_THETA))
    y = ctx.pack(ctx.initial_state())
    y[2:6] = 0.0
    with pytest.raises(InfeasibleEvaluation) as err:
        ctx.rhs_flat(0.0, y)
    assert err.value.margin == -25.0


def test_sigma_mod_engages_until_stack_excited():
    ctx = build_context(barrier_cfg())
    # online stack starts empty, so the memory-term law falls back
    assert ctx.active_law is UpdateLaw.BARRIER_SIGMA_MOD
    ctx.stack.try_insert(np.eye(2, 4), np.zeros(2), np.zeros(2))
    ctx.stack.try_insert(np.eye(2, 4, k=2), np.zeros(2), np.zeros(2))
    assert ctx.stack.assumption_met
    assert ctx.refresh_active_law() is UpdateLaw.BARRIER_CONSTRAINED


def test_stage_follows_the_law_of_a_stack_filled_after_the_build():
    # the stage owns the law switch: filling sec5a's online stack past its
    # threshold switches the next rhs_flat call from the sigma-mod fallback
    # to the memory law, with no refresh in between
    ctx = build_context(load_config("sec5a"))
    assert ctx.active_law is UpdateLaw.BARRIER_SIGMA_MOD
    x_ref = [ctx.traj.eval(float(t))[0] for t in np.linspace(0.5, 30.0, 20)]
    fill_with_exact_model_data(ctx.stack, ctx.plant, x_ref)
    y, t = ctx.pack(ctx.initial_state()), 0.5
    got = ctx.rhs_flat(t, y).copy()
    assert ctx.active_law is UpdateLaw.BARRIER_CONSTRAINED
    assert np.array_equal(got, unbound_stage(ctx, t, y))


def test_run_refreshes_the_law_only_after_a_stack_change(monkeypatch):
    # the active law depends on the stack alone, so the stage refreshes it
    # at its first call and then only at the first stage after a stack
    # change; sec5a switches from sigma-mod at 0.11 s
    refresh = sim.RunContext.refresh_active_law
    calls = []

    def counted(ctx):
        calls.append(ctx.stack._revision)
        return refresh(ctx)

    monkeypatch.setattr(sim.RunContext, "refresh_active_law", counted)
    log = run_scenario(replace(load_config("sec5a"), t_final=0.5))
    # the constructor's refresh and the first stage's, then one per
    # revision the run's steps saw (500 steps, 9 samples offered)
    assert calls[0] == calls[1] and 2 < len(calls) <= 11
    assert all(a < b for a, b in zip(calls[1:], calls[2:]))
    assert set(log.column("law_code")) == {2.0, 3.0}


def test_explicit_sigma_mod_never_switches():
    ctx = build_context(barrier_cfg(law="barrier_sigma_mod"))
    assert ctx.active_law is UpdateLaw.BARRIER_SIGMA_MOD
    ctx.stack.try_insert(np.eye(2, 4), np.zeros(2), np.zeros(2))
    ctx.stack.try_insert(np.eye(2, 4, k=2), np.zeros(2), np.zeros(2))
    assert ctx.refresh_active_law() is UpdateLaw.BARRIER_SIGMA_MOD


def test_offline_stack_prefilled_and_law_steady():
    # offline mode never falls back to sigma-mod, whatever the excitation
    cfg = barrier_cfg(stack=StackConfig(mode="offline"), t_final=0.1)
    ctx = build_context(cfg)
    assert len(ctx.stack) == 20
    assert ctx.active_law is UpdateLaw.BARRIER_CONSTRAINED
    log = run_scenario(cfg)
    assert set(log.column("law_code")) == {2.0}


def test_online_stack_samples_hold_logged_states():
    # with a sample and a log row every step, entry j is the sample at step
    # k = j + 1, built from the logged states at steps k - 1, k and k + 1
    from baradapt.cli import load_config

    cfg = replace(load_config("sec5b"), t_final=0.05, log_every=1,
                  stack=StackConfig(mode="online", size=1000, record_every=1))
    log = run_scenario(cfg)
    ctx = log.context
    entries = ctx.stack._entries
    assert len(entries) == 49
    t, x, th = log.column("t"), log.block("x"), log.block("theta_hat")
    for j, entry in enumerate(entries):
        k = j + 1
        Y = ctx.plant.eval_regressor(x[k])
        x_d, xdot_d = ctx.traj.eval(t[k])
        assert np.array_equal(entry.Y, Y)
        assert np.array_equal(entry.u, xdot_d - Y @ th[k] - ctx.k * (x[k] - x_d))
        assert np.array_equal(entry.xdot_hat,
                              _central_difference(x[k - 1], x[k + 1], t[k - 1], t[k + 1]))


def test_rk4_step_advances_and_keeps_multipliers_nonnegative():
    ctx = build_context(barrier_cfg())
    state = ctx.initial_state()
    out = rk4_step(state, ctx, 1e-3)
    assert out.t == pytest.approx(1e-3)
    assert all(np.all(lam >= 0.0) for lam in out.lambdas)
    with pytest.raises(ValueError):
        rk4_step(state, ctx, 0.0)


def unbound_stage(ctx, t, y):
    """rhs_flat as it was written before the stage bound its buffers:
    slices of y, every group's multipliers floored, the multiplier flow
    through the checked projection, and one np.concatenate of fresh
    arrays."""
    n, n_p = ctx.n, ctx.n + ctx.p
    x, th = y[:n], y[n:n_p]
    x_d, xdot_d = ctx.traj.eval(t)
    Y = ctx.plant.regressor(x)
    e = x - x_d
    flow = _flow_terms(ctx.P, np.array(ctx.cfg.sigma2))
    th_dot = flow(ctx.active_law, _memory_terms(ctx.P, ctx.kcl, ctx.stack), e, Y, th)
    lam_dots = []
    for (grp, sl), ms in zip(ctx._group_runtime, ctx.multipliers):
        lam = np.maximum(y[sl], 0.0)
        values, force = grp._core(th, lam, ctx.P * grp._jac)
        th_dot = th_dot - force
        lam_dots.append(projection(ms.gamma_inv_array * values - ms.alpha * lam, lam))
    return np.concatenate([np.dot(Y, ctx.theta - th) + (xdot_d - ctx.k * e), th_dot, *lam_dots])


def unbound_attempt(ctx, t, y, dt):
    """An RK4 step as it was written before the step bound its weights per
    step size and its stage buffers, tested finiteness in one call and
    clamped only multipliers that are not all positive: rk4 on
    unbound_stage, then the margin of every integrated group, then every
    group's multipliers clamped at 0."""
    out = rk4(lambda ts, ys: unbound_stage(ctx, ts, ys), t, y, dt)
    assert np.isfinite(out).all()
    th = out[ctx.n: ctx.n + ctx.p]
    for grp, sl in zip(ctx.groups, ctx.lam_slices):
        margin = min(grp._slacks(th).tolist())
        if margin <= 0.0:
            raise InfeasibleEvaluation("outside", margin=margin)
        np.maximum(out[sl], 0.0, out=out[sl])
    return out


def fast_path_contexts():
    """(layout, law, context) triples: every kind x barrier pair under
    every law with a filled stack, a component and a norm group together
    under every law, the two with a norm log group third (whose force the
    stage subtracts in place after two others), and two lanes that
    integrate no group (sanity, and gradient on sec5a)."""
    layouts = [((replace(SEC5A_GROUP if kind == "component" else NORM_GROUP,
                         barrier=barrier, norm_log_ok=kind == "norm"),),
                NORM_THETA if kind == "norm" else (4.5, 8.0, 12.0, 15.0))
               for kind, barrier in itertools.product(["component", "norm"],
                                                      ["inverse", "log"])]
    layouts.append(((SEC5A_GROUP, NORM_GROUP), NORM_THETA))
    layouts.append(((SEC5A_GROUP, NORM_GROUP,
                     replace(NORM_GROUP, barrier="log", norm_log_ok=True)), NORM_THETA))
    for (groups, theta_hat0), law in itertools.product(layouts, [law.value for law in UpdateLaw]):
        ctx = build_context(barrier_cfg(law=law, groups=groups, theta_hat0=theta_hat0))
        x_ref = [ctx.traj.eval(float(t))[0] for t in np.linspace(0.5, 30.0, 20)]
        fill_with_exact_model_data(ctx.stack, ctx.plant, x_ref)
        ctx.refresh_active_law()
        yield [(g.kind, g.barrier) for g in groups], law, ctx
    yield "sanity", "concurrent_learning", build_context(load_config("sanity"))
    yield "sec5a", "gradient", build_context(replace(load_config("sec5a"), law="gradient"))


def test_step_fast_paths_match_the_unbound_step_bitwise():
    # every layout under every law, a multiplier of each group entering the
    # step at 0.0, -0.0 and just below 0, at dt and two halvings of it, and
    # at 2.5e-3 and 1.25e-3, where dt / 6.0 != dt * (1.0 / 6.0)
    clamped = unclamped = 0
    for layout, law, ctx in fast_path_contexts():
        for value in (0.0, -0.0, -1e-12):
            y = ctx.pack(ctx.initial_state())
            for sl in ctx.lam_slices:
                y[sl.start] = value
            for dt in (2.5e-3, 1.25e-3, 1e-3, 5e-4, 2.5e-4):
                got = sim._attempt(ctx, 0.5, y, dt)
                want = unbound_attempt(ctx, 0.5, y, dt)
                assert got.tobytes() == want.tobytes(), (layout, law, value, dt)
                if ctx.lam_slices:
                    raw = rk4(ctx.rhs_flat, 0.5, y, dt)[ctx.lam_slices[-1]]
                    clamped += min(raw.tolist()) <= 0.0
                    unclamped += min(raw.tolist()) > 0.0
        # one set per step size, each (dt / 2, dt, dt / 6) as 0-d arrays
        assert sorted(ctx._weights) == [2.5e-4, 5e-4, 1e-3, 1.25e-3, 2.5e-3]
        for dt, weights in ctx._weights.items():
            assert [(w.shape, float(w)) for w in weights] == [
                ((), 0.5 * dt), ((), dt), ((), dt / 6.0)]
    # both sides of the clamp rule were taken
    assert clamped and unclamped


def test_step_results_share_no_memory_with_the_stage_buffers():
    # the stage reads one input buffer and writes four output rows, bound
    # once per lane; run_scenario keeps the states a step returns without
    # copying them, so no step result may share those buffers, and a state
    # kept from one step keeps its bytes through the steps after it.  dt =
    # 0.3 halves on this layout, so halved steps are among them.
    ctx = build_context(barrier_cfg(groups=(SEC5A_GROUP, NORM_GROUP), theta_hat0=NORM_THETA))
    buffers = (ctx._stage_in, ctx._stage_out)
    y = ctx.pack(ctx.initial_state())
    kept = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(12):
            dt = 0.3 if k % 3 == 2 else 1e-3
            got = (sim._attempt(ctx, 0.5, y, 1e-3), sim._step_flat(ctx, 0.5, y, dt))
            assert not any(np.shares_memory(out, buf) for out in got for buf in buffers)
            kept += [(out, out.tobytes()) for out in got]
            y = got[1]
            assert all(state.tobytes() == saved for state, saved in kept), k
    assert len(ctx._weights) > 2  # 1e-3, 0.3 and its halvings


def test_rhs_results_stay_valid_until_the_fourth_call_after_them():
    ctx = build_context(barrier_cfg(groups=(SEC5A_GROUP, NORM_GROUP), theta_hat0=NORM_THETA))
    y0 = ctx.pack(ctx.initial_state())
    results = []
    for i in range(9):
        t, y = 0.5 + 1e-4 * i, y0 + 1e-3 * i
        results.append((ctx.rhs_flat(t, y), unbound_stage(ctx, t, y).tobytes()))
        # this result and the three before it hold their own values
        assert all(out.tobytes() == want for out, want in results[-4:]), i
    outs = [out for out, _ in results]
    for i, j in itertools.combinations(range(len(outs)), 2):
        if j - i < 4:  # four consecutive results are four distinct arrays
            assert outs[i] is not outs[j] and not np.shares_memory(outs[i], outs[j])
        else:  # the fourth call after a result writes over it
            assert (outs[i] is outs[j]) == ((j - i) % 4 == 0)
    # an input held in the very row the call writes is copied before it is read
    row = outs[-4]
    row[...] = y0
    assert ctx.rhs_flat(0.5, row) is row
    assert row.tobytes() == unbound_stage(ctx, 0.5, y0).tobytes()


# ---------------------------------------------------------------------------
# runs


def test_zero_regressor_tracks_closed_form():
    from baradapt.cli import load_config

    cfg = replace(load_config("sanity"), t_final=2.0)
    log = run_scenario(cfg)
    t = log.column("t")
    e = log.block("e")
    expected = np.array([10.0, 5.0])[None, :] * np.exp(-t)[:, None]
    assert np.abs(e - expected).max() < 1e-10
    # theta_hat never moves: the regressor is identically zero
    assert np.abs(log.block("theta_err")).max() == 0.0


def test_run_is_deterministic():
    cfg = barrier_cfg(t_final=0.5)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.columns == b.columns
    assert np.array_equal(a.data, b.data)


def test_log_shape_and_time_grid():
    cfg = barrier_cfg(t_final=0.5, log_every=25)
    log = run_scenario(cfg)
    assert log.n_rows == 1 + 500 // 25
    t = log.column("t")
    assert np.allclose(np.diff(t), 25 * 1e-3, rtol=0, atol=1e-12)
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.5)


def test_log_schema_stable_across_laws():
    cfg_barrier = barrier_cfg(t_final=0.2)
    cfg_gradient = barrier_cfg(t_final=0.2, law="gradient")
    log_b = run_scenario(cfg_barrier)
    log_g = run_scenario(cfg_gradient)
    assert log_b.columns == log_g.columns
    # the unconstrained law logs zero multipliers but real margins
    lam_cols = [c for c in log_g.columns if c.startswith("lambda")]
    assert len(lam_cols) == 8
    for c in lam_cols:
        assert np.all(log_g.column(c) == 0.0)
    assert np.all(log_b.column("margin1") > 0.0)
    assert "margin1" in log_g.columns


def test_lambda_star_only_for_barrier_laws():
    # lambda* is the last logged multiplier row: evolved from lambda0 under a
    # barrier law, held at zero under a law without multipliers
    log_b = run_scenario(barrier_cfg(t_final=0.2))
    lam_b = log_b.multipliers()[-1]
    assert lam_b.shape == (8,)
    assert np.all(lam_b > 0.0)
    assert not np.array_equal(lam_b, np.full(8, SEC5A_GROUP.lambda0))
    log_g = run_scenario(barrier_cfg(t_final=0.2, law="gradient"))
    assert np.array_equal(log_g.multipliers()[-1], np.zeros(8))


def test_unconstrained_law_may_violate_logged_margins():
    # constraints are evaluated, not enforced, for the gradient law
    cfg = barrier_cfg(t_final=3.0, law="gradient", log_every=100)
    log = run_scenario(cfg)
    assert analysis.min_margin(log) < 0.0


@pytest.mark.parametrize("law, once", [
    ("gradient", False), ("barrier_constrained", False),
    ("gradient", True), ("barrier_constrained", True),
], ids=["gradient", "barrier_constrained", "gradient-once", "barrier_constrained-once"])
def test_callback_error_on_a_finite_state_propagates(monkeypatch, law, once):
    # a failed step reads the input of the stage that raised; an error that
    # a plant raises on a finite state must come out as itself, whether the
    # plant would raise on that input again or (raised once) not
    from baradapt import model

    base = model.benchmark_plant()
    raised = []

    def picky(x):
        if x[0] < 9.5 and not (once and raised):
            raised.append(x[0])
            raise ValueError("picky regressor")
        return base.regressor(x)

    monkeypatch.setitem(model.PLANTS, "picky", lambda: replace(base, regressor=picky))
    with pytest.raises(ValueError, match="picky regressor"):
        run_scenario(barrier_cfg(plant="picky", law=law, t_final=0.1))


def test_non_finite_stage_with_multipliers_ends_as_divergence(monkeypatch):
    # a run with multipliers halves on a non-finite stage as on a breach;
    # a regressor that turns infinite near x0 keeps every halving
    # non-finite, so the budget runs out as a divergence, not a breach
    from baradapt import model

    base = model.benchmark_plant()

    def blowup(x):
        return base.regressor(x) * (np.inf if x[0] < 9.9 else 1.0)

    monkeypatch.setitem(model.PLANTS, "blowup", lambda: replace(base, regressor=blowup))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalDivergence,
                           match=r"^non-finite state at t=\S+ with step \S+$") as err:
            run_scenario(barrier_cfg(plant="blowup"))
    assert 0.0 < err.value.time < 0.01


@pytest.mark.parametrize("law", [law.value for law in UpdateLaw])
def test_error_on_a_non_finite_stage_input_halves_as_non_finite(monkeypatch, law):
    # a regressor that turns NaN without raising for 9.90 < x1 < 9.95, and
    # raises on a non-finite state: the stage after the NaN raises, on an
    # input that the stage's input buffer still holds.  A lane with
    # multipliers halves until its budget runs out; one without diverges
    from baradapt import model

    base = model.benchmark_plant()

    def holey(x):
        if not np.isfinite(x).all():
            raise ValueError("non-finite state")
        return base.regressor(x) * (np.nan if 9.90 < x[0] < 9.95 else 1.0)

    monkeypatch.setitem(model.PLANTS, "holey", lambda: replace(base, regressor=holey))
    cfg = replace(load_config("sec5a"), plant="holey", law=law, t_final=0.2)
    with pytest.raises(NumericalDivergence) as err:
        run_scenario(cfg)
    assert str(err.value) == ("non-finite state at t=0.000906071 with step 9.53674e-10"
                              if UpdateLaw(law) in LAWS_WITH_BARRIER
                              else "non-finite state while integrating at t=0")


def test_log_value_past_the_finite_range_is_divergence():
    # RK4 is unstable at k dt = 15: |e| grows about 1600x per step and passes
    # 1e154, where its norm overflows, long before the state itself does
    cfg = barrier_cfg(plant="zero_regressor", law="gradient", groups=(),
                      stack=StackConfig(mode="none"), control_gain=300.0,
                      dt=0.05, t_final=3.0)
    with pytest.raises(NumericalDivergence, match="non-finite logged value") as err:
        run_scenario(cfg)
    assert 0.0 < err.value.time <= 3.0


def test_final_state_meta():
    # the final state is the last logged row; the log carries the run's
    # context, which neither its repr nor its equality reads
    cfg = barrier_cfg(t_final=0.3)
    log = run_scenario(cfg)
    assert log.column("t")[-1] == pytest.approx(0.3)
    assert log.block("x")[-1].shape == (2,)
    assert log.block("theta_hat")[-1].shape == (4,)
    assert log.multipliers()[-1].shape == (8,)
    assert log.context.cfg == canonical_config(cfg)
    bare = TrajectoryLog(log.columns, log.data)
    assert bare.context is None and bare == log and repr(bare) == repr(log)


def test_final_step_logged_when_log_every_does_not_divide():
    # the rows are those of a run that logs every step, the last one included
    log = run_scenario(barrier_cfg(t_final=0.25, log_every=100))
    dense = run_scenario(barrier_cfg(t_final=0.25, log_every=1))
    assert log.column("t")[-1] == pytest.approx(0.25)
    assert np.array_equal(log.data, dense.data[[0, 100, 200, 250]])


def test_to_csv_round_trip_exact():
    log = run_scenario(barrier_cfg(t_final=0.2))
    buf = io.StringIO()
    log.to_csv(buf)
    buf.seek(0)
    header = buf.readline().strip().split(",")
    assert tuple(header) == log.columns
    data = np.loadtxt(buf, delimiter=",")
    # %.17g preserves doubles exactly
    assert np.array_equal(data, log.data)


def test_to_csv_matches_the_per_cell_reference(sec5b_run):
    # the logged sec5b run's CSV is byte for byte its header and every
    # cell's format(v, ".17g")
    _, log = sec5b_run
    buf = io.StringIO()
    log.to_csv(buf)
    assert buf.getvalue() == ",".join(log.columns) + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in log.data.tolist())


@pytest.mark.parametrize("name", ["sec5a", "sec5b"])
def test_derived_columns_match_their_row_helpers(name):
    # sec5a has a component group, sec5b a norm group
    log = run_scenario(replace(load_config(name), t_final=0.5))
    ctx = log.context
    e, th, tilde = log.block("e"), log.block("theta_hat"), log.block("theta_err")
    lam_tilde = log.multipliers() - log.multipliers()[-1]
    close = dict(rtol=1e-14, atol=0)
    np.testing.assert_allclose(log.column("e_norm"), [np.linalg.norm(r) for r in e], **close)
    np.testing.assert_allclose(log.column("theta_err_norm"),
                               [np.linalg.norm(r) for r in tilde], **close)
    for g, grp in enumerate(ctx.groups, start=1):
        np.testing.assert_allclose(log.column(f"margin{g}"),
                                   [grp.feasibility(r).margin for r in th], **close)
    np.testing.assert_allclose(
        log.column("lyapunov"),
        [analysis.lyapunov_value(e[i], tilde[i], lam_tilde[i], ctx.P, ctx.gamma)
         for i in range(log.n_rows)], **close)


def test_reference_evaluated_once_per_distinct_stage_time(monkeypatch):
    times = []
    get_trajectory = sim.get_trajectory

    def counted(name):
        traj = get_trajectory(name)
        return replace(traj, eval=lambda t: (times.append(t), traj.eval(t))[1])

    monkeypatch.setattr(sim, "get_trajectory", counted)
    cfg = replace(load_config("sec5a"), t_final=0.05)
    log = run_scenario(cfg)
    steps = 50
    samples = steps // cfg.stack.record_every
    # RK4's four stages have three distinct times; logged rows and stack
    # samples read the reference once each
    assert len(times) <= 3 * steps + log.n_rows + samples


def test_lyapunov_column_decreases_overall():
    log = run_scenario(barrier_cfg(t_final=1.0))
    v = log.column("lyapunov")
    assert v[0] > 0.0
    assert v[-1] < v[0]


def test_coarse_step_breaches_barrier():
    cfg = barrier_cfg(dt=10.0, t_final=30.0, log_every=1)
    with pytest.raises(BarrierBreach) as err:
        run_scenario(cfg)
    assert err.value.time >= 0.0
    assert err.value.dt is not None


def test_halving_recovers_and_run_ends_feasible(monkeypatch):
    from baradapt.cli import load_config

    attempts = 0
    step = sim._step_flat

    def counted(*args):
        nonlocal attempts
        attempts += 1
        return step(*args)

    monkeypatch.setattr(sim, "_step_flat", counted)
    log = run_scenario(replace(load_config("sec5a"), dt=0.05, t_final=30.0))
    # each halving adds two calls to the 600 outer steps (608 measured)
    assert attempts > 600
    assert analysis.min_margin(log) > 0.0
    lam = np.stack([log.column(c) for c in log.columns if c.startswith("lambda")])
    assert np.all(lam >= 0.0)


def test_divergent_gains_raise_with_time():
    cfg = barrier_cfg(law="gradient", control_gain=1e155, t_final=1.0,
                      groups=())
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalDivergence) as err:
            run_scenario(cfg)
    assert err.value.time >= 0.0


def test_composite_state_pack_unpack():
    ctx = build_context(barrier_cfg())
    state = CompositeState(
        t=0.5,
        x=np.array([1.0, 2.0]),
        theta_hat=np.array([4.0, 7.0, 11.0, 13.0]),
        lambdas=(np.arange(8.0),),
    )
    y = ctx.pack(state)
    back = ctx.unpack(0.5, y)
    assert np.array_equal(back.x, state.x)
    assert np.array_equal(back.theta_hat, state.theta_hat)
    assert np.array_equal(back.lambdas[0], state.lambdas[0])
