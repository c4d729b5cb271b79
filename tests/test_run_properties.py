"""Property tests of run outcomes: every short variant of a bundled scenario
either finishes with finite logs and the barrier invariants, or fails with
BarrierBreach or NumericalDivergence; through the CLI it exits with a
documented code and prints no traceback."""

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
