"""Spans around calls into each baradapt layer, recorded from outside the
package.

Each public function is wrapped at the name its caller resolves (for example
``sim.projection`` as well as ``adaptation.projection``), for the length of
a ``traced`` block only.  Spans stay in memory as flat arrays of name, parent
span, start and end; a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder plus counters for the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: Counter = Counter()
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers stay valid."""
        for buf in (self.name_id, self.parent, self.start, self.end, self._open):
            del buf[:]
        self.counters.clear()

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            start.append(0.0)
            end.append(0.0)
            open_.append(idx)
            start[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_.pop()

        return traced

    def spans(self) -> dict[str, "SpanStats"]:
        """Per span name: durations of every call and summed self time."""
        ids = np.array(self.name_id, dtype=np.int64)
        par = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        parent_name = np.where(has_parent, ids[np.maximum(par, 0)], -1)
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            out[name] = SpanStats(
                durations=dur[mask],
                self_s=float(self_time[mask].sum()),
                nested=int(np.sum(parent_name[mask] == nid)),
            )
        return out


@dataclasses.dataclass
class SpanStats:
    durations: np.ndarray
    self_s: float
    nested: int  # calls whose parent span has the same name (recursion)

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return float(self.durations.sum())


@contextmanager
def traced(tracer: Tracer, mods):
    """Wrap the layer boundaries of the baradapt modules in ``mods`` (a
    namespace with cli, sim, adaptation, barrier, history and analysis) for
    the length of the block."""
    cli, sim, adaptation = mods.cli, mods.sim, mods.adaptation
    history, barrier, analysis = mods.history, mods.barrier, mods.analysis
    counters = tracer.counters
    saved = []

    def patch(owner, attr, name, fn=None):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, fn or original))

    try_insert = vars(history.HistoryStack)["try_insert"]

    def classified_try_insert(stack, *args, **kwargs):
        full = len(stack) >= stack.capacity
        changed = try_insert(stack, *args, **kwargs)
        counters["history.swaps" if changed and full else
                 "history.inserts" if changed else "history.rejections"] += 1
        return changed

    to_csv = vars(sim.TrajectoryLog)["to_csv"]

    def counted_to_csv(log, *args, **kwargs):
        counters["sim.log_rows"] += log.n_rows
        return to_csv(log, *args, **kwargs)

    get_plant = vars(sim)["get_plant"]
    get_trajectory = vars(sim)["get_trajectory"]
    regressor_span = tracer.wrap("model.regressor", lambda fn, x: fn(x))
    reference_span = tracer.wrap("model.reference", lambda fn, t: fn(t))

    def traced_plant(*args, **kwargs):
        plant = get_plant(*args, **kwargs)
        fn = plant.regressor
        return dataclasses.replace(plant, regressor=lambda x: regressor_span(fn, x))

    def traced_trajectory(*args, **kwargs):
        traj = get_trajectory(*args, **kwargs)
        fn = traj.eval
        return dataclasses.replace(traj, eval=lambda t: reference_span(fn, t))

    try:
        patch(cli, "parse_config", "cli.parse_config")
        patch(cli, "scenario_summary", "cli.summary")
        patch(cli, "run_scenario", "sim.run_scenario")
        patch(cli, "build_context", "sim.build_context")
        patch(sim, "build_context", "sim.build_context")
        patch(sim, "_step_flat", "sim.step")
        patch(sim.RunContext, "rhs_flat", "sim.rhs")
        patch(sim.TrajectoryLog, "to_csv", "sim.to_csv", counted_to_csv)
        patch(sim, "projection", "adaptation.projection")
        patch(adaptation, "projection", "adaptation.projection")
        patch(history.HistoryStack, "try_insert", "history.try_insert",
              classified_try_insert)
        patch(history.HistoryStack, "cl_term", "history.cl_term")
        patch(barrier.ConstraintGroup, "evaluate", "barrier.evaluate")
        patch(barrier.ConstraintGroup, "feasibility", "barrier.feasibility")
        patch(analysis, "lyapunov_value", "analysis.lyapunov_value")
        patch(analysis, "envelope_check", "analysis.envelope_check")
        patch(analysis, "kkt_residuals", "analysis.kkt_residuals")
        saved.append((sim, "get_plant", get_plant))
        sim.get_plant = traced_plant
        saved.append((sim, "get_trajectory", get_trajectory))
        sim.get_trajectory = traced_trajectory
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and busy times of the spans recorded since the last
    reset (one pass of a workload)."""
    s = tracer.spans()
    c = tracer.counters
    empty = SpanStats(np.empty(0), 0.0, 0)

    def get(name):
        return s.get(name, empty)

    steps = get("sim.step").calls - get("sim.step").nested
    rhs = get("sim.rhs")
    rows = c["sim.log_rows"]
    inserts, swaps, rejections = (
        c["history.inserts"], c["history.swaps"], c["history.rejections"])
    candidates = get("history.try_insert").calls
    return {
        "barrier.evaluate_calls": get("barrier.evaluate").calls,
        "barrier.evaluate_busy_s": get("barrier.evaluate").busy_s,
        "barrier.feasibility_calls": get("barrier.feasibility").calls,
        "model.regressor_calls": get("model.regressor").calls,
        "model.reference_calls": get("model.reference").calls,
        "adaptation.projection_calls": get("adaptation.projection").calls,
        "sim.steps": steps,
        "sim.halvings": get("sim.step").nested // 2,
        "sim.rhs_evals": rhs.calls,
        "sim.rhs_evals_per_step": rhs.calls / steps if steps else 0.0,
        "sim.rhs_busy_s": rhs.busy_s,
        "sim.rhs_us_p50": float(np.percentile(rhs.durations, 50)) * 1e6 if rhs.calls else 0.0,
        "sim.rhs_us_p99": float(np.percentile(rhs.durations, 99)) * 1e6 if rhs.calls else 0.0,
        "sim.loop_self_s": get("sim.run_scenario").self_s,
        "sim.log_rows": rows,
        "sim.to_csv_s": get("sim.to_csv").busy_s,
        "sim.to_csv_us_per_row": get("sim.to_csv").busy_s / rows * 1e6 if rows else 0.0,
        "history.try_insert_calls": candidates,
        "history.inserts": inserts,
        "history.swaps": swaps,
        "history.rejections": rejections,
        "history.accept_ratio": (inserts + swaps) / candidates if candidates else 0.0,
        "history.try_insert_busy_s": get("history.try_insert").busy_s,
        "history.cl_term_calls": get("history.cl_term").calls,
        "analysis.lyapunov_value_calls": get("analysis.lyapunov_value").calls,
        "analysis.lyapunov_busy_s": get("analysis.lyapunov_value").busy_s,
        "analysis.envelope_check_s": get("analysis.envelope_check").busy_s,
        "analysis.kkt_residuals_s": get("analysis.kkt_residuals").busy_s,
        "cli.parse_config_s": get("cli.parse_config").busy_s,
        "cli.summary_s": get("cli.summary").busy_s,
    }
