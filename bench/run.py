"""Benchmark of the baradapt CLI: one workload per invocation, in-process.

    python3 bench/run.py --workload scenario_run --seed 0 --seconds 40 --trace 0

Run from any directory; the repository root is found from this file.  The
program is imported from ``src/`` of that root.  Each run

1. writes the seeded scenario JSON files for the workload,
2. repeats passes of the workload until ``--seconds`` are used, each pass
   the ``baradapt run`` / ``compare`` / ``sweep`` commands exactly as the
   CLI runs them, one lane at a time in this process,
3. sets up once before each pass (fresh import of baradapt, every lane's
   config parsed and its RunContext built),
4. checks every lane's trajectory CSV (see workloads.check_lane).

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.  A
worker process runs the same workload on the frozen baseline program in
``bench/baseline``, taking turns with this one; each set-up and pass is
timed relative to the baseline's in the same pair, which cancels the
host's changes of speed.  With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, the micro timings and the tracing overhead.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy

import micro
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WARMUP_HORIZON = 0.05
# Median figures of the baseline program (bench/baseline) on the reference
# machine: a shared 2-vCPU KVM guest (Intel Xeon, family 6 model 207),
# Python 3.11.7, numpy 2.4.6.  The end-to-end times are the program's
# median ratio to the baseline, measured pass by pass, times these figures:
# seconds at the reference machine's speed, whatever the host's speed.
SEED_FIGURES = {
    "scenario_run": {"wall_s": 0.590, "lane_steps_per_s": 3560.0, "setup_s": 0.0540},
    "law_compare": {"wall_s": 0.820, "lane_steps_per_s": 3780.0, "setup_s": 0.0580},
    "dense_history": {"wall_s": 0.417, "lane_steps_per_s": 1270.0, "setup_s": 0.0500},
}
LAYER_MODULES = ("cli", "sim", "adaptation", "barrier", "history", "analysis", "model")


def make_workdir() -> Path:
    """A fresh scratch directory inside the checkout, one per process."""
    return Path(tempfile.mkdtemp(prefix="_work-", dir=ROOT / "bench"))


def load_modules(src: Path) -> SimpleNamespace:
    """Import baradapt afresh (dropping any earlier import of it)."""
    for name in [m for m in sys.modules if m == "baradapt" or m.startswith("baradapt.")]:
        del sys.modules[name]
    importlib.import_module("baradapt.cli")
    mods = SimpleNamespace(**{n: sys.modules[f"baradapt.{n}"] for n in LAYER_MODULES})
    if Path(mods.cli.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"imported baradapt from {mods.cli.__file__}, not from {src}")
    return mods


def set_up(src: Path, commands) -> tuple[float, SimpleNamespace]:
    started = perf_counter()
    mods = load_modules(src)
    for cmd in commands:
        for lane in cmd.lanes:
            cfg = mods.cli.load_config(str(lane.config))
            cfg = mods.sim.canonical_config(dataclasses.replace(cfg, **lane.overrides))
            mods.sim.build_context(cfg)
    return perf_counter() - started, mods


@contextlib.contextmanager
def lane_timer(cli):
    """Accumulate the time spent inside run_scenario, as the CLI calls it."""
    spent = [0.0]
    inner = cli.run_scenario

    def timed(*args, **kwargs):
        started = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent[0] += perf_counter() - started

    cli.run_scenario = timed
    try:
        yield spent
    finally:
        cli.run_scenario = inner


def run_pass(mods, commands, out_dir: Path) -> tuple[float, float]:
    """Run every command of one workload pass; returns (wall_s, seconds
    inside run_scenario).  A command that raises is reported on stderr and
    its lanes fail the output check."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    with lane_timer(mods.cli) as spent, contextlib.redirect_stdout(sink):
        started = perf_counter()
        for cmd in commands:
            try:
                mods.cli.main(list(cmd.argv))
            except Exception:  # keep measuring the other lanes
                traceback.print_exc()
        wall = perf_counter() - started
    return wall, spent[0]


def check_pass(commands, expected: dict) -> tuple[int, int, int]:
    """(lanes attempted, lanes failed, steps of the lanes that passed)."""
    attempted = failed = steps = 0
    for cmd in commands:
        for lane in cmd.lanes:
            attempted += 1
            reason = workloads.check_lane(lane, expected[lane.name])
            if reason is None:
                steps += lane.n_steps
            else:
                failed += 1
                print(f"check failed: {reason}", file=sys.stderr)
    return attempted, failed, steps


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


class Baseline:
    """The frozen baseline program in a worker process (baseline_worker.py),
    driven one request at a time, so that it never runs alongside the
    program under test."""

    def __init__(self, workload: str, seed: int, work: Path):
        worker = Path(__file__).with_name("baseline_worker.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(worker), workload, str(seed), str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._read()  # "ready", after its set-up and warm-up pass

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"baseline worker ended with code {self.proc.wait()}")
        return line

    def request(self, what: str) -> dict:
        try:
            self.proc.stdin.write(what + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # _read reports the exit code
        return json.loads(self._read())

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def first_of(flip: bool, a, b):
    """Call a then b, or b then a; return (a's result, b's result)."""
    if flip:
        rb = b()
        return a(), rb
    ra = a()
    return ra, b()


def measure_paired(args, src: Path, work: Path, commands, expected) -> tuple[dict, int, int]:
    """End-to-end metrics: passes of the program under test alternate with
    passes of the baseline program, and each time is taken relative to the
    baseline's adjacent one, then scaled by SEED_FIGURES."""
    baseline = Baseline(args.workload, args.seed, work / "baseline")
    try:
        started = perf_counter()
        deadline = started + args.seconds
        _, mods = set_up(src, commands)
        warm = workloads.plan(args.workload, ROOT, args.seed, work / "warmup", WARMUP_HORIZON)
        run_pass(mods, warm, work / "warmup" / "out")
        out_dir = work / "out"
        raw = {"wall": [], "rate": [], "setup": [], "base_wall": [], "base_rate": [],
               "base_setup": []}
        attempted = failed = 0
        iterations = []
        while True:
            began = perf_counter()
            # which program goes first alternates, so neither always runs
            # on caches the other just left
            flip = len(iterations) % 2 == 1
            base_setup, (took, mods) = first_of(
                flip, lambda: baseline.request("setup"), lambda: set_up(src, commands))
            base, (wall, run_s) = first_of(
                flip, lambda: baseline.request("pass"), lambda: run_pass(mods, commands, out_dir))
            n, bad, steps = check_pass(commands, expected)
            attempted += n
            failed += bad
            raw["wall"].append(wall)
            raw["rate"].append(steps / run_s if run_s > 0 else 0.0)
            raw["setup"].append(took)
            raw["base_wall"].append(base["wall_s"])
            raw["base_rate"].append(base["steps"] / base["run_s"])
            raw["base_setup"].append(base_setup["setup_s"])
            iterations.append(perf_counter() - began)
            if perf_counter() + statistics.median(iterations) > deadline:
                break
    finally:
        baseline.close()

    def relative(key):
        return statistics.median(
            a / b for a, b in zip(raw[key], raw["base_" + key]))

    seed = SEED_FIGURES[args.workload]
    values = {
        "wall_s": seed["wall_s"] * relative("wall"),
        "lane_steps_per_s": seed["lane_steps_per_s"] * relative("rate"),
        "setup_s": seed["setup_s"] * relative("setup"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"pairs: {len(iterations)}; measured {perf_counter() - started:.1f} s")
    for key in ("wall", "rate", "setup"):
        print(f"median raw {key}: program {statistics.median(raw[key]):.6g}, "
              f"baseline {statistics.median(raw['base_' + key]):.6g}, "
              f"median ratio {relative(key):.4f}")
    print("program pass wall_s: " + " ".join(f"{w:.3f}" for w in raw["wall"]))
    return values, attempted, failed


def measure_traced(args, src: Path, work: Path, commands, expected) -> tuple[dict, int, int]:
    """Per-layer metrics: untraced and traced passes alternate; spans are
    recorded in the traced ones only."""
    started = perf_counter()
    deadline = started + args.seconds
    _, mods = set_up(src, commands)
    values = micro.micro_metrics(mods, src / "baradapt" / "configs" / "sec5a.json")
    warm = workloads.plan(args.workload, ROOT, args.seed, work / "warmup", WARMUP_HORIZON)
    run_pass(mods, warm, work / "warmup" / "out")

    out_dir = work / "out"
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    layers, iterations = [], []
    attempted = failed = 0
    while True:
        began = perf_counter()
        _, mods = set_up(src, commands)
        trace_this = len(walls[True]) < len(walls[False])
        if trace_this:
            tracer.reset()
            with tracing.traced(tracer, mods):
                wall, _ = run_pass(mods, commands, out_dir)
            layers.append(tracing.layer_metrics(tracer))
        else:
            wall, _ = run_pass(mods, commands, out_dir)
        n, bad, _ = check_pass(commands, expected)
        attempted += n
        failed += bad
        walls[trace_this].append(wall)
        iterations.append(perf_counter() - began)
        if walls[True] and perf_counter() + statistics.median(iterations) > deadline:
            break

    for key in layers[0]:
        values[key] = statistics.median(layer[key] for layer in layers)
    untraced = statistics.median(walls[False])
    traced_wall = statistics.median(walls[True])
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced
    values["trace.overhead_share"] = (traced_wall - untraced) / untraced
    print(f"passes: {len(walls[False])} untraced, {len(walls[True])} traced; "
          f"measured {perf_counter() - started:.1f} s")
    for traced_pass, label in ((False, "untraced"), (True, "traced")):
        print(f"{label} pass wall_s: " + " ".join(f"{w:.3f}" for w in walls[traced_pass]))
    return values, attempted, failed


def measure(args, src: Path, work: Path) -> tuple[dict, int, int]:
    commands = workloads.plan(args.workload, ROOT, args.seed, work)
    reference = workloads.load_reference()
    if reference["horizon"] != workloads.HORIZON:
        raise RuntimeError("reference.json was recorded at another horizon; "
                           "run bench/record_reference.py")
    expected = reference[args.workload][str(args.seed % workloads.VARIANTS)]
    how = measure_traced if args.trace else measure_paired
    return how(args, src, work, commands, expected)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "baradapt" / "__init__.py").is_file():
        print(f"bench: no baradapt package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(src))
    work = make_workdir()
    try:
        values, attempted, failed = measure(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"machine: {json.dumps(machine())}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<38} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_share':<38} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} lanes)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
