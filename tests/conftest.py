"""Shared fixtures.  The bundled 30 s scenarios are expensive, so each runs
once per session and is reused by unit tests and the acceptance suite."""

import time
from dataclasses import replace

import pytest

from baradapt.cli import load_config
from baradapt.sim import canonical_config, run_scenario


@pytest.fixture(scope="session")
def sec5a_run():
    """(config, log, runtime_seconds) for the component-bound inverse-barrier
    scenario."""
    cfg = load_config("sec5a")
    started = time.perf_counter()
    log = run_scenario(cfg)
    return cfg, log, time.perf_counter() - started


@pytest.fixture(scope="session")
def sec5b_run():
    cfg = load_config("sec5b")
    log = run_scenario(cfg)
    return cfg, log


@pytest.fixture(scope="session")
def sec5c_run():
    cfg = load_config("sec5c")
    log = run_scenario(cfg)
    return cfg, log


@pytest.fixture(scope="session")
def gradient_run():
    """The sec5a scenario rerun under the plain gradient law, for
    law-comparison claims."""
    cfg = canonical_config(replace(load_config("sec5a"), law="gradient"))
    log = run_scenario(cfg)
    return cfg, log


@pytest.fixture(scope="session")
def gain_sweep_runs(sec5a_run):
    """Steady-state tracking RMS keyed by control gain; the k=10 member is
    the sec5a session run itself."""
    from baradapt.cli import SWEEPS
    from baradapt.analysis import steady_state_rms

    base, base_log, _ = sec5a_run
    out = {10.0: steady_state_rms(base_log)}
    for k in (5.0, 20.0):
        cfg = SWEEPS["control_gain"](base, k)
        out[k] = steady_state_rms(run_scenario(cfg))
    return out
