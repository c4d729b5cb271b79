"""Seeded inputs, the CLI commands of each workload, and the output check.

Inputs are generated from the bundled scenario JSON files and handed to the
program only as JSON files on disk, which the CLI reads through
``load_config`` / ``parse_config`` like any user config.  ``--seed n``
selects input variant ``n % VARIANTS``; variant 0 is the bundled configs
exactly, the others jitter ``x0`` and ``theta_hat0`` strictly inside every
constraint group's feasible set.  The output check compares each lane with
values recorded for its variant in ``reference.json``.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Simulated horizon of every timed lane.  The bundled horizons (10 s and
# 30 s) cost 3 to 25 s of wall time per lane on a 2-core host, too long to
# repeat a workload the 20 or more times per run that a steady median needs
# on a noisy shared host.  0.5 s covers the law switch at t = 0.11 s; the
# 50-step stacks of the bundled scenarios stay below capacity, so only
# dense_history exercises full-stack insertion.
HORIZON = 0.5
VARIANTS = 16
LAWS = ("gradient", "concurrent_learning", "barrier_constrained", "barrier_sigma_mod")
BARRIER_LAWS = ("barrier_constrained", "barrier_sigma_mod")
SWEEP_GAINS = (5.0, 20.0)
BUNDLED = ("sanity", "sec5a", "sec5b", "sec5c")

X0_JITTER = 0.10        # relative, per state component
THETA_JITTER = 0.05     # share of the box width (component groups)
NORM_JITTER = 0.02      # relative, radius and direction (norm groups)
FEASIBLE_MARGIN = 0.10  # share of the width kept clear at both bounds
FREE_JITTER = 0.5       # absolute, for scenarios without groups

# A recorded value must match to within RTOL relative (plus ATOL).  Float
# reassociation moves results by ~1e-13; any change to the closed-loop
# vector field moves them by orders of magnitude more.
RTOL = 1e-8
ATOL = 1e-12

REFERENCE_FILE = Path(__file__).with_name("reference.json")

WORKLOADS = ("scenario_run", "law_compare", "dense_history")


@dataclass(frozen=True)
class Lane:
    """One scenario integration: its config file, the overrides the CLI
    applies to it, the law it runs, and the CSV it writes."""

    name: str
    config: Path
    overrides: dict
    law: str
    csv: Path
    n_steps: int
    log_every: int


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    lanes: tuple[Lane, ...]


# ---------------------------------------------------------------------------
# seeded inputs


def _jitter(raw: dict, rng: random.Random) -> dict:
    raw = copy.deepcopy(raw)
    raw["x0"] = [v * (1.0 + rng.uniform(-X0_JITTER, X0_JITTER)) for v in raw["x0"]]
    th = [float(v) for v in raw["theta_hat0"]]
    groups = raw.get("groups", [])
    if not groups:
        th = [v + rng.uniform(-FREE_JITTER, FREE_JITTER) for v in th]
    for grp in groups:
        if grp["kind"] == "component":
            for i, (lo, hi) in enumerate(zip(grp["lower"], grp["upper"])):
                width = hi - lo
                moved = th[i] + rng.uniform(-THETA_JITTER, THETA_JITTER) * width
                th[i] = min(max(moved, lo + FEASIBLE_MARGIN * width),
                            hi - FEASIBLE_MARGIN * width)
        else:
            lo, hi = float(grp["lower"]), float(grp["upper"])
            margin = FEASIBLE_MARGIN * (hi - lo)
            radius = math.sqrt(sum(v * v for v in th))
            target = min(max(radius * (1.0 + rng.uniform(-NORM_JITTER, NORM_JITTER)),
                             lo + margin), hi - margin)
            th = [v * (1.0 + rng.uniform(-NORM_JITTER, NORM_JITTER)) for v in th]
            scale = target / math.sqrt(sum(v * v for v in th))
            th = [v * scale for v in th]
    _require_interior(th, groups)
    raw["theta_hat0"] = th
    return raw


def _require_interior(th: list[float], groups: list[dict]) -> None:
    for grp in groups:
        if grp["kind"] == "component":
            pairs = [(v, lo, hi) for v, lo, hi in zip(th, grp["lower"], grp["upper"])]
        else:
            pairs = [(math.sqrt(sum(v * v for v in th)), grp["lower"], grp["upper"])]
        for v, lo, hi in pairs:
            # the 0.5 leaves room for the rounding of the clamps above
            margin = 0.5 * FEASIBLE_MARGIN * (hi - lo)
            if not lo + margin < v < hi - margin:
                raise ValueError(f"jittered theta_hat0 {th} is too close to a bound")


def scenario_inputs(root: Path, seed: int) -> dict[str, dict]:
    """Raw JSON configs for every scenario the workloads use."""
    variant = seed % VARIANTS
    base = root / "src" / "baradapt" / "configs"
    out = {}
    for name in BUNDLED:
        raw = json.loads((base / f"{name}.json").read_text())
        if variant:
            raw = _jitter(raw, random.Random(f"{name}:{variant}"))
        out[name] = raw
    dense = copy.deepcopy(out["sec5b"])
    dense["name"] = "sec5b_dense"
    dense["log_every"] = 1
    dense["stack"]["record_every"] = 1
    out["sec5b_dense"] = dense
    return out


# ---------------------------------------------------------------------------
# workloads


def _lane(name, path, raw, overrides, law, csv, horizon) -> Lane:
    n_steps = round(horizon / raw["dt"])
    return Lane(name, path, {**overrides, "t_final": horizon}, law, csv,
                n_steps, int(raw["log_every"]))


def plan(workload: str, root: Path, seed: int, workdir: Path,
         horizon: float = HORIZON) -> list[Command]:
    """Write the seeded configs under workdir and return the CLI commands
    of one pass of the workload, outputs going to workdir/out."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}' (choose from {WORKLOADS})")
    inputs = scenario_inputs(root, seed)
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, raw in inputs.items():
        paths[name] = cfg_dir / f"{name}.json"
        paths[name].write_text(json.dumps(raw, indent=2) + "\n")
    out = workdir / "out"
    tail = ("--t-final", repr(horizon))

    def run(name):
        raw = inputs[name]
        lane = _lane(name, paths[name], raw, {}, raw["law"],
                     out / name / "trajectory.csv", horizon)
        argv = ("run", "--config", str(paths[name]), "--out", str(out / name)) + tail
        return Command(argv, (lane,))

    if workload == "scenario_run":
        return [run(name) for name in BUNDLED]
    if workload == "dense_history":
        return [run("sec5b_dense")]
    raw, path = inputs["sec5a"], paths["sec5a"]
    compare = Command(
        ("compare", "--config", str(path), "--out", str(out / "compare"),
         "--laws", ",".join(LAWS)) + tail,
        tuple(_lane(law, path, raw, {"law": law}, law,
                    out / "compare" / f"{law}.csv", horizon) for law in LAWS),
    )
    sweep = Command(
        ("sweep", "--config", str(path), "--out", str(out / "sweep"),
         "--sweep-key", "control_gain",
         "--sweep-values", ",".join(f"{k:g}" for k in SWEEP_GAINS)) + tail,
        tuple(_lane(f"control_gain_{k:g}", path, raw, {"control_gain": k}, raw["law"],
                    out / "sweep" / f"control_gain_{k:g}" / "trajectory.csv", horizon)
              for k in SWEEP_GAINS),
    )
    return [compare, sweep]


# ---------------------------------------------------------------------------
# output check


def _steady_state_rms(t: np.ndarray, v: np.ndarray) -> float:
    # window [20, 30] s, else the last third of the samples, as the summary
    # defines it
    mask = (t >= 20.0) & (t <= 30.0)
    if not mask.any():
        mask = t >= t[max(0, int(2 * len(t) / 3))]
    return float(math.sqrt(float(np.mean(v[mask] ** 2))))


def lane_outcome(lane: Lane) -> tuple[float, float]:
    """Read a lane's trajectory CSV, check what holds for every law, and
    return (steady_state_rms, final_theta_err_norm).  Raises ValueError
    naming the first violated property."""
    with open(lane.csv) as fh:
        columns = fh.readline().strip().split(",")
    data = np.loadtxt(lane.csv, delimiter=",", skiprows=1, ndmin=2)
    rows = 1 + lane.n_steps // lane.log_every
    if data.shape != (rows, len(columns)):
        raise ValueError(f"log has shape {data.shape}, expected ({rows}, {len(columns)})")
    if not np.isfinite(data).all():
        raise ValueError("log holds non-finite values")
    col = {name: data[:, i] for i, name in enumerate(columns)}
    if lane.law in BARRIER_LAWS:
        margins = [v for name, v in col.items() if name.startswith("margin")]
        lams = [v for name, v in col.items() if name.startswith("lambda")]
        if margins and min(float(m.min()) for m in margins) <= 0.0:
            raise ValueError("a logged constraint margin is not positive")
        if lams and min(float(m.min()) for m in lams) < 0.0:
            raise ValueError("a logged multiplier is negative")
    return (_steady_state_rms(col["t"], col["e_norm"]),
            float(col["theta_err_norm"][-1]))


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def check_lane(lane: Lane, expected: list[float]) -> str | None:
    """None if the lane's output is correct, else the reason it is not."""
    try:
        got = lane_outcome(lane)
    except (OSError, ValueError) as err:
        return f"{lane.name}: {err}"
    for label, g, e in zip(("steady_state_rms", "final_theta_err_norm"), got, expected):
        if not abs(g - e) <= ATOL + RTOL * abs(e):
            return f"{lane.name}: {label} {g!r} differs from recorded {e!r}"
    return None
