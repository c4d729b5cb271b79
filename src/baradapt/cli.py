"""Command-line front end: run one scenario, compare update laws on a shared
scenario, or sweep a gain.

Outputs are plain CSV and flat key-value text so external tooling can plot
them; nothing here depends on a plotting library.  Set BARADAPT_LOG to a
level name (debug, info, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import pickle
import signal
import sys
import time
import types
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path

from . import analysis
from .adaptation import LAWS_WITH_BARRIER, LAWS_WITH_MEMORY
from .errors import BarrierBreach, ConfigError, NumericalDivergence
from .history import write_csv
from .sim import (
    ScenarioConfig,
    TrajectoryLog,
    build_context,  # noqa: F401  bench/tracing.py wraps it as cli.build_context
    canonical_config,
    run_scenario,
)

log = logging.getLogger("baradapt")

#: sweep key -> how a value of it changes the base config
SWEEPS = {
    "control_gain": lambda cfg, v: replace(cfg, control_gain=v),
    "k_cl_scale": lambda cfg, v: replace(cfg, k_cl=tuple(x * v for x in cfg.k_cl)),
    "learning_rate_scale":
        lambda cfg, v: replace(cfg, learning_rate=tuple(x * v for x in cfg.learning_rate)),
    "alpha": lambda cfg, v: replace(cfg, groups=tuple(replace(g, alpha=v) for g in cfg.groups)),
}


def _stack_feeds_flow(cfg: ScenarioConfig) -> bool:
    """Whether the flow can read a stack sample before the run ends.  An
    offline stack is filled before t = 0.  An online one records its first
    sample after step max(record_every, 2) - 1 (the central difference
    needs the step before), and the flow reads it from the next step on."""
    stack = cfg.stack
    if stack.mode == "none" or stack.size == 0:
        return False
    return stack.mode == "offline" or round(cfg.t_final / cfg.dt) > max(stack.record_every, 2)


#: sweep keys that only some runs read: key -> (the laws that read it, what
#: they have, what the scenario must hold, whether a config holds it)
_SWEEP_LAWS = {
    "alpha": (LAWS_WITH_BARRIER, "multipliers", "constraint groups",
              lambda cfg: bool(cfg.groups)),
    "k_cl_scale": (LAWS_WITH_MEMORY, "a memory term",
                   "a history stack sampled before the run ends", _stack_feeds_flow),
}

_JSON_NAMES = {float: "a number", int: "an integer", str: "a string",
               bool: "true or false", type(None): "null"}


@functools.cache
def _schema(cls) -> dict[str, tuple[object, bool]]:
    """Field name -> (resolved type, required) of a config dataclass; a
    field is required when it has no default."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _describe(tp) -> str:
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return " or ".join(_describe(arm) for arm in typing.get_args(tp))
    if typing.get_origin(tp) is tuple:
        return "a list"
    return "an object" if is_dataclass(tp) else _JSON_NAMES[tp]


def _from_json(tp, value, key: str):
    """Strict conversion of a parsed JSON value to a config field type:
    objects to config dataclasses (unknown keys rejected, missing ones
    defaulted or reported as required), lists to tuples, and numbers to
    floats, or unchanged for an int field; a bool is never a number.
    Errors name the dotted key path."""
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{key or 'config'} must be a JSON object")
        prefix = f"{key}." if key else ""
        schema = _schema(tp)
        for name in value:
            if name not in schema:
                raise ConfigError(f"unknown key '{prefix}{name}'")
        kwargs = {}
        for name, (field_tp, required) in schema.items():
            if name in value:
                kwargs[name] = _from_json(field_tp, value[name], prefix + name)
            elif required:
                raise ConfigError(f"missing required key '{prefix}{name}'")
        return tp(**kwargs)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        for arm in typing.get_args(tp):
            try:
                return _from_json(arm, value, key)
            except ConfigError:
                pass
    elif typing.get_origin(tp) is tuple:
        if isinstance(value, list):
            item_tp = typing.get_args(tp)[0]
            return tuple(_from_json(item_tp, v, f"{key}[{i}]")
                         for i, v in enumerate(value, start=1))
    elif tp in (float, int):
        # the bound also rejects NaN, the infinities and ints beyond a double;
        # a count passes as written, and its config decides if it is whole
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value) if tp is float else value
    elif type(value) is tp:
        return value
    raise ConfigError(f"{key} must be {_describe(tp)}, got {json.dumps(value)}")


def parse_config(text: str) -> ScenarioConfig:
    """Parse a JSON scenario description into a canonical ScenarioConfig.
    The keys, defaults and JSON types are those of the ScenarioConfig,
    GroupConfig and StackConfig fields; errors name the offending key."""
    try:
        raw = json.loads(text)
    except ValueError as err:
        raise ConfigError(f"invalid JSON: {err}") from None
    return canonical_config(_from_json(ScenarioConfig, raw, ""))


def _json_fields(items) -> dict:
    # lists, not tuples, so the dict equals what json.loads gives back
    return {name: list(v) if isinstance(v, tuple) else v for name, v in items}


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical config as a JSON-ready dict; parse_config inverts this
    exactly."""
    out = asdict(canonical_config(cfg), dict_factory=_json_fields)
    if out["theta_true"] is None:
        del out["theta_true"]
    return out


def load_config(spec: str) -> ScenarioConfig:
    """Load a scenario from a file path or, when spec names no file, a
    bundled config name (sec5a, sec5b, sec5c, sanity)."""
    path = Path(spec)
    if path.is_file():
        try:
            return parse_config(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"config '{spec}' could not be read: {err}") from None
    name = spec[:-5] if spec.endswith(".json") else spec
    res = resources.files("baradapt").joinpath("configs", f"{name}.json")
    if res.is_file():
        return parse_config(res.read_text())
    raise ConfigError(f"config '{spec}' is neither a file nor a bundled scenario")


# ---------------------------------------------------------------------------
# reporting


def scenario_summary(trajectory: TrajectoryLog, runtime_seconds: float) -> str:
    """Flat key-value block: final errors, margins, decay constants, KKT
    residuals and the envelope report, all read off the log: its last row
    is the final state, and trajectory.context the run's gains and stack.
    The decay constants take the final excitation for sigma_bar1 and the
    final multipliers for lambda*."""
    ctx = trajectory.context
    cfg = ctx.cfg
    excitation = float(trajectory.column("excitation")[-1])
    lam_star = trajectory.multipliers()[-1]
    consts = analysis.uub_constants(ctx, excitation, lam_star)
    report = analysis.envelope_check(trajectory, consts)
    e, x, theta_hat = (trajectory.block(name)[-1] for name in ("e", "x", "theta_hat"))
    # groups without multipliers (laws without a barrier) add no KKT terms
    lambdas = [trajectory.block(f"lambda{g}_")[-1] for g in range(1, len(ctx.lam_slices) + 1)]
    kkt = analysis.kkt_residuals(ctx, e, x, theta_hat, lambdas)
    lines = [
        f"scenario: {cfg.name}",
        f"law: {cfg.law}",
        f"dt: {cfg.dt:g}",
        f"t_final: {cfg.t_final:g}",
        f"runtime_seconds: {runtime_seconds:.3f}",
        f"final_e_norm: {trajectory.column('e_norm')[-1]:.10g}",
        f"final_theta_err_norm: {trajectory.column('theta_err_norm')[-1]:.10g}",
        f"min_margin: {analysis.min_margin(trajectory):.10g}",
        f"steady_state_rms: {analysis.steady_state_rms(trajectory):.10g}",
        f"excitation_final: {excitation:.10g}",
        f"assumption_met: {str(ctx.stack.assumption_met).lower()}",
        f"uub_Lambda_min: {consts.Lambda_min:.10g}",
        f"uub_Lambda_max: {consts.Lambda_max:.10g}",
        f"uub_beta1: {consts.beta1:.10g}",
        f"uub_beta2: {consts.beta2:.10g}",
        f"envelope_points: {report.n_points}",
        f"envelope_violations: {report.n_violations}",
        f"envelope_fraction_satisfied: {report.fraction_satisfied:.6f}",
        f"envelope_worst_ratio: {report.worst_ratio:.6g}",
        f"envelope_beta1: {consts.beta1:.6g}",
        f"envelope_beta2: {consts.beta2:.6g}",
        f"kkt_stationarity: {kkt.stationarity:.10g}",
        f"kkt_complementary_slackness: {kkt.complementary_slackness:.10g}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _load_with_overrides(args) -> ScenarioConfig:
    """The loaded config with --dt / --t-final applied, validated before a
    command reads it."""
    changes = {key: getattr(args, key) for key in ("dt", "t_final")
               if getattr(args, key) is not None}
    return canonical_config(replace(load_config(args.config), **changes))


def _plan(out: Path, labels, lanes, files) -> None:
    """Check every path a command writes (each lane's CSV, then files under
    out) before making any directory, once every config is checked.  Two
    labels (--laws or --sweep-values tokens) must not write one file; a
    repeated label is the same lane run again, with the same bytes."""
    first = {}
    for label, (_, csv_path) in zip(labels, lanes):
        other = first.setdefault(csv_path, label)
        if other != label:
            raise ConfigError(f"'{other}' and '{label}' both write '{csv_path.relative_to(out)}'")
    try:  # an existing file, or a path through one, is bad input, not a crash
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out '{out}' is not a usable directory: {err.strerror}") from None
    paths = [csv_path for _, csv_path in lanes] + [out / name for name in files]
    for path in paths:  # only an --out that existed can hold a path in the way
        for held, fits, kind in ((path.parent, Path.is_dir, "directory"),
                                 (path, Path.is_file, "regular file")):
            if os.path.lexists(held) and not fits(held):  # a dangling link too
                raise ConfigError(f"'{held}' is in the way: it is not a {kind}")
    for path in paths:
        path.parent.mkdir(exist_ok=True)


def _run_lanes(lanes) -> list[tuple[TrajectoryLog, float]]:
    """Run (config, CSV path) lanes and write each trajectory to the path
    _plan checked; returns (log, runtime_seconds) per lane.

    With more than one lane and more than one CPU, lane i runs in worker
    i % W of W = min(lanes, CPUs this process may use).  Worker 0 is this
    process; the others are forked children that send each lane's (log,
    runtime_seconds), as this process's lanes give it, through a pipe.  A
    lane is a function of its config, so a lane no worker sent (its worker
    failed in it, or died) this process runs itself, and raises its error
    if it has one.  This process writes every CSV and logs every line in
    lane order, so a command's files, output and exit code are those of a
    serial run.
    """
    workers = (min(len(lanes), len(os.sched_getaffinity(0)))
               if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    children = []  # (pid, read end of its pipe), worker 1 first
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _lane_worker(lanes[w::workers], write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = []
        for i, (cfg, csv_path) in enumerate(lanes):
            log.info("running %s into %s", cfg.name, csv_path)
            reply = None
            if i % workers:
                try:
                    reply = pickle.load(children[i % workers - 1][1])
                except (EOFError, pickle.UnpicklingError):
                    pass
            trajectory, runtime = reply or _timed_lane(cfg)
            trajectory.to_csv(csv_path)
            results.append((trajectory, runtime))
        return results
    finally:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)  # a no-op on one that has exited
            os.waitpid(pid, 0)
            pipe.close()


def _timed_lane(cfg: ScenarioConfig) -> tuple[TrajectoryLog, float]:
    """(log, runtime_seconds) of one lane; a wrapper set on cli.run_scenario
    (bench/run.py's lane_timer) is the one called."""
    started = time.perf_counter()
    return run_scenario(cfg), time.perf_counter() - started


def _lane_worker(lanes, fd: int) -> typing.NoReturn:
    """Body of a forked worker: run lanes in order and send each one's (log,
    runtime_seconds) through the pipe fd, the log without its context
    (which need not pickle); stop at the first lane that raises, and exit
    without returning."""
    try:
        with open(fd, "wb") as pipe:
            for cfg, _ in lanes:
                trajectory, runtime = _timed_lane(cfg)
                trajectory.context = None
                pickle.dump((trajectory, runtime), pipe)
                pipe.flush()
    finally:
        os._exit(0)


def cmd_run(args) -> int:
    cfg = _load_with_overrides(args)
    effective = config_to_dict(cfg)
    out = Path(args.out)
    lanes = [(cfg, out / "trajectory.csv")]
    _plan(out, [cfg.name], lanes, ["effective_config.json", "summary.txt"])
    (out / "effective_config.json").write_text(json.dumps(effective, indent=2) + "\n")
    [(trajectory, runtime)] = _run_lanes(lanes)
    summary = scenario_summary(trajectory, runtime_seconds=runtime)
    (out / "summary.txt").write_text(summary)
    print(f"run {cfg.name}: {trajectory.n_rows} rows in {runtime:.2f}s, "
          f"final |e| = {trajectory.column('e_norm')[-1]:.3e}")
    return 0


def cmd_compare(args) -> int:
    base = _load_with_overrides(args)
    laws = [token.strip() for token in args.laws.split(",") if token.strip()]
    if not laws:
        raise ConfigError("no laws given")
    cfgs = [canonical_config(replace(base, law=law_name)) for law_name in laws]
    out = Path(args.out)
    lanes = [(cfg, out / f"{cfg.law}.csv") for cfg in cfgs]
    _plan(out, laws, lanes, ["compare.csv"])
    results = _run_lanes(lanes)
    rows = [[cfg.law, analysis.steady_state_rms(trajectory), analysis.min_margin(trajectory),
             float(trajectory.column("theta_err_norm")[-1])]
            for cfg, (trajectory, _) in zip(cfgs, results)]
    write_csv(out / "compare.csv",
              ["law", "steady_state_rms", "min_margin", "final_theta_err_norm"], rows)
    for row in rows:
        print(f"compare {row[0]}: rms={row[1]:.4e} margin={row[2]:.4e} "
              f"theta_err={row[3]:.4e}")
    return 0


def cmd_sweep(args) -> int:
    base = _load_with_overrides(args)
    key = args.sweep_key
    if key not in SWEEPS:
        raise ConfigError(f"unknown sweep key '{key}' (choose from {tuple(SWEEPS)})")
    if key in _SWEEP_LAWS:  # a key the run never reads would give identical lanes
        readers, term, held, holds = _SWEEP_LAWS[key]
        if not holds(base):  # e.g. no alpha to set, nor to check
            raise ConfigError(f"sweep key '{key}' needs a scenario with {held}, "
                              f"and '{base.name}' has none")
        if base.law not in readers:
            raise ConfigError(f"sweep key '{key}' needs a law with {term}, "
                              f"and '{base.law}' has none")
    tokens = [token.strip() for token in args.sweep_values.split(",") if token.strip()]
    try:
        values = [float(token) for token in tokens]
    except ValueError:
        raise ConfigError(f"sweep values must be numbers, got '{args.sweep_values}'")
    if not values:
        raise ConfigError("no sweep values given")
    out = Path(args.out)
    lanes = [(canonical_config(SWEEPS[key](base, value)),
              out / f"{key}_{value:g}" / "trajectory.csv") for value in values]
    _plan(out, tokens, lanes, ["sweep.csv"])
    results = _run_lanes(lanes)
    # no pre-run check sees every key a run ignores (a sigma-mod phase, a
    # zero regressor): warn when distinct values gave equal bits (equal CSVs)
    first = results[0][0].data.tobytes()
    if len(set(values)) > 1 and all(t.data.tobytes() == first for t, _ in results[1:]):
        print(f"warning: sweep key '{key}' changed no lane: every value gave the "
              "same trajectory", file=sys.stderr)
    rows = [[value, analysis.steady_state_rms(trajectory),
             float(trajectory.column("theta_err_norm")[-1])]
            for value, (trajectory, _) in zip(values, results)]
    write_csv(out / "sweep.csv", [key, "steady_state_rms", "final_theta_err_norm"], rows)
    for row in rows:
        print(f"sweep {key}={row[0]:g}: rms={row[1]:.4e} theta_err={row[2]:.4e}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baradapt",
        description="Barrier-constrained adaptive tracking simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True,
                        help="path to a JSON scenario or a bundled name")
    shared.add_argument("--out", required=True, help="output directory")
    shared.add_argument("--dt", type=float, help="override step size")
    shared.add_argument("--t-final", type=float, help="override horizon")

    run_p = sub.add_parser("run", parents=[shared], help="integrate one scenario")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", parents=[shared],
                           help="run several update laws on one scenario")
    cmp_p.add_argument(
        "--laws",
        default="gradient,concurrent_learning,barrier_constrained",
        help="comma-separated law names",
    )
    cmp_p.set_defaults(func=cmd_compare)

    swp_p = sub.add_parser("sweep", parents=[shared],
                           help="rerun a scenario across gain values")
    swp_p.add_argument("--sweep-key", required=True, help=f"one of {', '.join(SWEEPS)}")
    swp_p.add_argument("--sweep-values", required=True,
                       help="comma-separated numbers")
    swp_p.set_defaults(func=cmd_sweep)
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("BARADAPT_LOG", "").strip()
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        log.warning("BARADAPT_LOG=%s is not a level name", level_name)
        return
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (BarrierBreach, NumericalDivergence) as err:
        print(
            f"{type(err).__name__} at t={err.time:.6g}: {err}",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
