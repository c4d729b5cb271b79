"""Property tests of the JSON config schema: exact round trips for generated
feasible configs, and ConfigError as the only failure under mutation."""

import json
from importlib import resources

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from baradapt import cli  # noqa: E402
from baradapt.errors import ConfigError  # noqa: E402
from baradapt.sim import GroupConfig, ScenarioConfig, StackConfig, canonical_config  # noqa: E402

N, P = 2, 4
BUNDLED = sorted(p.name[:-5] for p in resources.files("baradapt").joinpath("configs").iterdir()
                 if p.name.endswith(".json"))
LAWS = ["gradient", "concurrent_learning", "barrier_constrained", "barrier_sigma_mod"]

positive = st.floats(min_value=1e-3, max_value=1e3)
coordinate = st.floats(min_value=-100.0, max_value=100.0)


def gain(length):
    return st.one_of(positive, st.tuples(*[positive] * length))


@st.composite
def feasible_groups(draw, theta_hat0):
    groups = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            gaps = st.floats(min_value=0.1, max_value=10.0)
            lower = tuple(v - draw(gaps) for v in theta_hat0)
            upper = tuple(v + draw(gaps) for v in theta_hat0)
            kind, barrier, norm_log_ok = "component", draw(st.sampled_from(["inverse", "log"])), False
            gamma_inv = draw(st.one_of(gain(P), st.tuples(*[positive] * (2 * P))))
        else:
            radius = sum(v * v for v in theta_hat0) ** 0.5
            lower = radius * draw(st.floats(min_value=0.1, max_value=0.9))
            upper = radius * draw(st.floats(min_value=1.1, max_value=10.0))
            kind, barrier = "norm", draw(st.sampled_from(["inverse", "log"]))
            norm_log_ok = barrier == "log" or draw(st.booleans())
            gamma_inv = draw(gain(2))
        groups.append(GroupConfig(
            kind=kind, barrier=barrier, lower=lower, upper=upper,
            gamma_inv=gamma_inv, alpha=draw(positive),
            lambda0=draw(gain(2 * P if kind == "component" else 2)),
            norm_log_ok=norm_log_ok,
        ))
    return tuple(groups)


@st.composite
def feasible_configs(draw):
    dt = draw(st.sampled_from([1e-3, 2e-3, 0.01, 0.05]))
    theta_hat0 = draw(st.tuples(*[st.floats(min_value=0.5, max_value=100.0)] * P))
    return ScenarioConfig(
        name=draw(st.text(max_size=8)),
        law=draw(st.sampled_from(LAWS)),
        control_gain=draw(gain(N)),
        learning_rate=draw(gain(P)),
        x0=draw(st.tuples(*[coordinate] * N)),
        theta_hat0=theta_hat0,
        plant=draw(st.sampled_from(["benchmark", "zero_regressor"])),
        k_cl=draw(gain(P)),
        sigma2=draw(st.floats(min_value=0.0, max_value=10.0)),
        dt=dt,
        t_final=dt * draw(st.integers(1, 1000)),
        log_every=draw(st.integers(1, 100)),
        theta_true=draw(st.none() | st.tuples(*[coordinate] * P)),
        groups=draw(feasible_groups(theta_hat0)),
        stack=StackConfig(
            mode=draw(st.sampled_from(["online", "offline", "none"])),
            size=draw(st.integers(0, 50)),
            record_every=draw(st.integers(1, 100)),
            min_excitation=draw(st.floats(min_value=0.0, max_value=1.0)),
        ),
    )


@settings(max_examples=200, deadline=None)
@given(feasible_configs())
def test_config_round_trips_through_json(cfg):
    cfg = canonical_config(cfg)
    assert cli.parse_config(json.dumps(cli.config_to_dict(cfg))) == cfg


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _containers(raw):
    """Every object and list in a parsed config, the root included."""
    out = [raw]
    for value in raw.values() if isinstance(raw, dict) else raw:
        if isinstance(value, (dict, list)):
            out += _containers(value)
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUNDLED), st.data())
def test_mutated_config_fails_only_with_config_error(name, data):
    raw = cli.config_to_dict(cli.load_config(name))
    for _ in range(data.draw(st.integers(1, 3))):
        owner = data.draw(st.sampled_from(_containers(raw)))
        keys = list(owner) if isinstance(owner, dict) else list(range(len(owner)))
        action = data.draw(st.sampled_from(["set", "delete", "add"]))
        if action == "add" or not keys:
            if isinstance(owner, dict):
                owner[data.draw(st.text(max_size=6))] = data.draw(json_values)
            else:
                owner.append(data.draw(json_values))
        elif action == "delete":
            del owner[data.draw(st.sampled_from(keys))]
        else:
            owner[data.draw(st.sampled_from(keys))] = data.draw(json_values)
    try:
        cli.parse_config(json.dumps(raw))
    except ConfigError:
        pass
