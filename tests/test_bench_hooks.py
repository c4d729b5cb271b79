"""The benchmark's per-layer hooks still fit the program: bench/micro.py
times the names it resolves, and bench/tracing.py wraps the names a run
calls, so a rename in src/ that would break ``bench/run.py --trace 1``
fails here first."""

import importlib.util
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from baradapt import adaptation, analysis, barrier, cli, history, model, sim

BENCH = Path(__file__).resolve().parent.parent / "bench"
if not (BENCH / "micro.py").is_file() or not (BENCH / "tracing.py").is_file():
    pytest.skip("bench/ is not part of this checkout", allow_module_level=True)


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


MODS = SimpleNamespace(cli=cli, sim=sim, adaptation=adaptation, barrier=barrier,
                       history=history, analysis=analysis, model=model)


def test_micro_metrics_resolve_every_timed_name(monkeypatch):
    micro = load_bench_module("micro")
    monkeypatch.setattr(micro, "per_call_us", lambda fn, *args, **kwargs: (fn(), 1.0)[1])
    monkeypatch.setattr(micro, "TRY_INSERT_REPEATS", 1)
    sec5a = resources.files("baradapt").joinpath("configs", "sec5a.json")
    metrics = micro.micro_metrics(MODS, sec5a)
    assert metrics["sim.step_us"] == 1.0
    assert metrics["history.try_insert_full_us"] > 0.0


def test_traced_run_counts_steps_and_rhs_evaluations(tmp_path):
    tracing = load_bench_module("tracing")
    tracer = tracing.Tracer()
    with tracing.traced(tracer, MODS):
        rc = cli.main(["run", "--config", "sec5a", "--out", str(tmp_path),
                       "--t-final", "0.05"])
    assert rc == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["sim.steps"] == 50
    assert metrics["sim.rhs_evals"] == 200
    assert metrics["cli.summary_s"] > 0.0
    # the summary reaches its KKT lines through the name the tracer wraps
    assert metrics["analysis.kkt_residuals_s"] > 0.0
    # every wrapper is gone again after the block
    assert cli.run_scenario is sim.run_scenario
