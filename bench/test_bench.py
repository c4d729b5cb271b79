"""Self-tests of the benchmark, run separately from the package's suite:

    python3 -m pytest bench -q

The two count tests integrate the bundled horizons (30 s of simulated time),
so the file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads

SRC = run.ROOT / "src"


@pytest.fixture(scope="module")
def work():
    path = run.make_workdir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def mods():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return run.load_modules(SRC)


def traced_pass(mods, commands, work):
    tracer = tracing.Tracer()
    with tracing.traced(tracer, mods):
        run.run_pass(mods, commands, work / "out")
    return tracing.layer_metrics(tracer)


def test_seed_zero_is_the_bundled_configs():
    inputs = workloads.scenario_inputs(run.ROOT, 0)
    for name in workloads.BUNDLED:
        bundled = json.loads((SRC / "baradapt" / "configs" / f"{name}.json").read_text())
        assert inputs[name] == bundled
    assert workloads.scenario_inputs(run.ROOT, workloads.VARIANTS) == inputs


def test_jittered_inputs_parse_and_differ(mods):
    seed0 = workloads.scenario_inputs(run.ROOT, 0)
    for seed in range(1, workloads.VARIANTS):
        inputs = workloads.scenario_inputs(run.ROOT, seed)
        assert inputs == workloads.scenario_inputs(run.ROOT, seed)
        for name, raw in inputs.items():
            assert raw["x0"] != seed0[name]["x0"]
            assert raw["theta_hat0"] != seed0[name]["theta_hat0"]
            mods.cli.parse_config(json.dumps(raw))  # raises ConfigError if infeasible


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(2000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    mid()
    mid()
    spans = tracer.spans()
    assert (spans["mid"].calls, spans["leaf"].calls) == (2, 6)
    assert spans["leaf"].self_s == pytest.approx(spans["leaf"].busy_s, abs=1e-12)
    assert spans["mid"].self_s == pytest.approx(
        spans["mid"].busy_s - spans["leaf"].busy_s, abs=1e-12)
    assert spans["mid"].nested == 0
    tracer.reset()
    assert tracer.spans()["mid"].calls == 0


def test_sec5a_counts_at_seed_zero(mods, work):
    cfg = SRC / "baradapt" / "configs" / "sec5a.json"
    out = work / "out" / "sec5a"
    cmd = workloads.Command(("run", "--config", str(cfg), "--out", str(out)), ())
    m = traced_pass(mods, [cmd], work)
    assert m["sim.steps"] == 30_000
    assert m["sim.rhs_evals"] == 120_000
    assert m["sim.halvings"] == 0
    assert m["history.try_insert_calls"] == 600
    assert m["history.inserts"] + m["history.swaps"] == 244
    assert m["history.rejections"] == 356
    with open(out / "trajectory.csv") as fh:
        columns = fh.readline().strip().split(",")
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    t, code = data[:, columns.index("t")], data[:, columns.index("law_code")]
    switch = int(np.argmax(code == 2.0))
    assert (code[:switch] == 3.0).all() and (code[switch:] == 2.0).all()
    assert round(t[switch], 9) == 0.11


def test_dense_history_candidates_at_seed_zero(mods, work):
    commands = workloads.plan("dense_history", run.ROOT, 0, work, horizon=30.0)
    m = traced_pass(mods, commands, work)
    assert m["history.try_insert_calls"] == 29_999
    assert m["sim.log_rows"] == 30_001


def test_output_check_admits_reassociation_and_catches_a_wrong_rhs(mods, work, monkeypatch):
    commands = workloads.plan("scenario_run", run.ROOT, 0, work)
    expected = workloads.load_reference()["scenario_run"]["0"]
    lanes = [lane for cmd in commands for lane in cmd.lanes]
    rhs = mods.sim.RunContext.rhs_flat

    def outcome(scale):
        monkeypatch.setattr(mods.sim.RunContext, "rhs_flat",
                            lambda ctx, t, y: rhs(ctx, t, y) * scale)
        run.run_pass(mods, commands, work / "out")
        return [workloads.check_lane(lane, expected[lane.name]) for lane in lanes]

    assert outcome(1.0) == [None] * len(lanes)
    assert outcome(1.0 + 1e-13) == [None] * len(lanes)
    assert all(reason is not None for reason in outcome(1.0 + 1e-6))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scenario_run", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_baseline_worker_answers_and_exits(work):
    baseline = run.Baseline("dense_history", 3, work / "baseline")
    try:
        setup = baseline.request("setup")
        one = baseline.request("pass")
    finally:
        baseline.close()
    assert baseline.proc.returncode == 0
    assert setup["setup_s"] > 0
    assert one["wall_s"] >= one["run_s"] > 0
    assert one["steps"] == round(workloads.HORIZON / 1e-3)
