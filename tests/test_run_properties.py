"""Property tests of run outcomes: every short variant of a bundled scenario
either finishes with finite logs and the barrier invariants, or fails with
BarrierBreach or NumericalDivergence; through the CLI it exits with a
documented code and prints no traceback.  A finished sec5 run with scaled
gains that meets the excitation assumption stays inside its Lyapunov
envelope."""

import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from baradapt import cli  # noqa: E402
from baradapt.adaptation import LAWS_WITH_BARRIER, UpdateLaw  # noqa: E402
from baradapt.errors import BarrierBreach, NumericalDivergence  # noqa: E402
from baradapt.analysis import min_margin  # noqa: E402
from baradapt.sim import StackConfig, run_scenario  # noqa: E402

BUNDLED = {p.name[:-5]: cli.load_config(p.name[:-5])
           for p in resources.files("baradapt").joinpath("configs").iterdir()
           if p.name.endswith(".json")}


@st.composite
def short_runs(draw):
    """A bundled scenario at 20 to 100 steps with its gains, logging, stack
    and multiplier settings redrawn; theta_hat0 stays as bundled, so the
    start stays feasible."""
    cfg = BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]
    dt = draw(st.floats(min_value=1e-3, max_value=0.05))
    scale = draw(st.floats(min_value=0.1, max_value=100.0))
    alpha = draw(st.floats(min_value=0.01, max_value=10.0))
    lambda0 = draw(st.floats(min_value=0.1, max_value=50.0))
    return replace(
        cfg,
        law=draw(st.sampled_from([law.value for law in UpdateLaw])),
        dt=dt,
        t_final=dt * draw(st.integers(20, 100)),
        control_gain=draw(st.floats(min_value=0.1, max_value=300.0)),
        learning_rate=tuple(v * scale for v in cfg.learning_rate),
        log_every=draw(st.integers(1, 50)),
        stack=StackConfig(
            mode=draw(st.sampled_from(["online", "offline", "none"])),
            size=draw(st.integers(0, 30)),
            record_every=draw(st.integers(1, 20)),
        ),
        groups=tuple(replace(g, alpha=alpha, lambda0=lambda0) for g in cfg.groups),
    )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(short_runs())
def test_run_finishes_with_invariants_or_fails_as_documented(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            log = run_scenario(cfg)
        except (BarrierBreach, NumericalDivergence):
            return
    assert np.isfinite(log.data).all()
    if UpdateLaw(cfg.law) in LAWS_WITH_BARRIER and cfg.groups:
        assert min_margin(log) > 0.0
        assert (log.multipliers() >= 0.0).all()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(short_runs())
def test_cli_run_exits_with_a_documented_code(cfg):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = Path(tmp) / "variant.json"
        path.write_text(json.dumps(cli.config_to_dict(cfg)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
    err = err.getvalue()
    prefixes = {0: "", 1: ("BarrierBreach at t=", "NumericalDivergence at t="),
                2: "config error:"}
    assert rc in prefixes and err.startswith(prefixes[rc])
    assert "Traceback" not in err


SCALES = [0.3, 1.0, 3.0]


@st.composite
def scaled_sec5_runs(draw):
    """A sec5 scenario at 8 s under any law, with its control gain and
    learning rate scaled by 0.3, 1 or 3, its group's alpha drawn from
    {0.02, 0.1, 0.5, 2} and its gamma_inv scaled by 0.2, 1 or 5."""
    cfg = BUNDLED[draw(st.sampled_from(["sec5a", "sec5b", "sec5c"]))]
    gain, rate = draw(st.sampled_from(SCALES)), draw(st.sampled_from(SCALES))
    alpha = draw(st.sampled_from([0.02, 0.1, 0.5, 2.0]))
    gamma_inv = draw(st.sampled_from([0.2, 1.0, 5.0]))
    return replace(
        cfg,
        law=draw(st.sampled_from([law.value for law in UpdateLaw])),
        t_final=8.0,
        control_gain=tuple(gain * v for v in cfg.control_gain),
        learning_rate=tuple(rate * v for v in cfg.learning_rate),
        groups=tuple(replace(g, alpha=alpha, gamma_inv=tuple(gamma_inv * v for v in g.gamma_inv))
                     for g in cfg.groups),
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(scaled_sec5_runs())
def test_envelope_bounds_every_run_that_meets_the_assumption(cfg):
    # the decay constants take the final excitation and multipliers, so the
    # envelope is a diagnostic; on these gains it holds at every logged point
    try:
        log = run_scenario(cfg)
    except BarrierBreach:
        return
    summary = dict(line.split(": ", 1)
                   for line in cli.scenario_summary(log, runtime_seconds=0.0).splitlines())
    if summary["assumption_met"] == "true":
        assert summary["envelope_violations"] == "0", summary


SWEEP_VALUES = {"k_cl_scale": "0.5,2", "learning_rate_scale": "0.5,2",
                "control_gain": "5,20", "alpha": "0.05,0.2"}


@st.composite
def short_sweeps(draw):
    """sec5a or sanity under one of the four laws, with its stack redrawn
    and 1 to 60 steps, and a sweep key with two distinct values."""
    cfg = BUNDLED[draw(st.sampled_from(["sanity", "sec5a"]))]
    cfg = replace(
        cfg,
        law=draw(st.sampled_from([law.value for law in UpdateLaw])),
        t_final=cfg.dt * draw(st.integers(1, 60)),
        stack=StackConfig(
            mode=draw(st.sampled_from(["online", "offline", "none"])),
            size=draw(st.integers(0, 30)),
            record_every=draw(st.integers(1, 20)),
            min_excitation=draw(st.sampled_from([0.0, 1e-3, 1.0])),
        ),
    )
    return cfg, draw(st.sampled_from(sorted(SWEEP_VALUES)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(short_sweeps())
def test_sweep_warns_exactly_when_its_lanes_are_identical(case):
    # a sweep that runs warns exactly when both lanes wrote the same bytes;
    # one refused up front prints one config error and writes nothing; a
    # lane that breaches (a stack with min_excitation 0 can) exits 1
    cfg, key = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "variant.json", Path(tmp) / "out"
        path.write_text(json.dumps(cli.config_to_dict(cfg)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", "--config", str(path), "--out", str(out),
                           "--sweep-key", key, "--sweep-values", SWEEP_VALUES[key]])
        err = err.getvalue()
        if rc == 2:
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert not out.exists()
            return
        if rc == 1:
            assert err.startswith(("BarrierBreach at t=", "NumericalDivergence at t="))
            return
        assert rc == 0
        lanes = [(out / f"{key}_{float(v):g}" / "trajectory.csv").read_bytes()
                 for v in SWEEP_VALUES[key].split(",")]
        warning = (f"warning: sweep key '{key}' changed no lane: every value gave the same "
                   "trajectory\n")
        assert err == (warning if lanes[0] == lanes[1] else "")
