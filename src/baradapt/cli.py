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
import sys
import time
import types
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path

from . import analysis
from .adaptation import UpdateLaw
from .errors import BarrierBreach, ConfigError, NumericalDivergence
from .history import write_csv
from .sim import (
    ScenarioConfig,
    TrajectoryLog,
    build_context,  # noqa: F401  bench/tracing.py wraps it as cli.build_context
    canonical_config,
    min_margin,
    run_scenario,
    steady_state_rms,
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
    """Load a scenario from a file path or a bundled config name
    (sec5a, sec5b, sec5c, sanity)."""
    path = Path(spec)
    if path.exists():
        return parse_config(path.read_text())
    name = spec[:-5] if spec.endswith(".json") else spec
    res = resources.files("baradapt").joinpath("configs", f"{name}.json")
    if res.is_file():
        return parse_config(res.read_text())
    raise ConfigError(f"config '{spec}' is neither a file nor a bundled scenario")


def bundled_config_names() -> list[str]:
    base = resources.files("baradapt").joinpath("configs")
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


# ---------------------------------------------------------------------------
# reporting


def scenario_summary(trajectory: TrajectoryLog, runtime_seconds: float) -> str:
    """Flat key-value block: final errors, margins, decay constants, KKT
    residuals and the envelope report, all read off the run's own
    context in trajectory.meta."""
    ctx = trajectory.meta["context"]
    cfg, stack = ctx.cfg, ctx.stack
    final = trajectory.meta["final_state"]
    e_norm = float(trajectory.column("e_norm")[-1])
    tilde_norm = float(trajectory.column("theta_err_norm")[-1])
    excitation = float(trajectory.column("excitation")[-1])
    lines = [
        f"scenario: {cfg.name}",
        f"law: {cfg.law}",
        f"dt: {cfg.dt:g}",
        f"t_final: {cfg.t_final:g}",
        f"runtime_seconds: {runtime_seconds:.3f}",
        f"final_e_norm: {e_norm:.10g}",
        f"final_theta_err_norm: {tilde_norm:.10g}",
        f"min_margin: {min_margin(trajectory):.10g}",
        f"steady_state_rms: {steady_state_rms(trajectory):.10g}",
        f"excitation_final: {excitation:.10g}",
        f"assumption_met: {str(stack.assumption_met).lower()}",
    ]

    consts = ctx.uub_constants(excitation, trajectory.meta.get("lambda_star"))
    lines += [
        f"uub_Lambda_min: {consts.Lambda_min:.10g}",
        f"uub_Lambda_max: {consts.Lambda_max:.10g}",
        f"uub_beta1: {consts.beta1:.10g}",
        f"uub_beta2: {consts.beta2:.10g}",
    ]
    report = analysis.envelope_check(trajectory, consts)
    lines.append(report.as_text())

    x_d, _ = ctx.traj.at(final.t)
    Y = ctx.plant.eval_regressor(final.x)
    lambdas = tuple(replace(ms, lam=tuple(lam))
                    for lam, ms in zip(final.lambdas, ctx.multipliers))
    groups = ctx.groups[: len(lambdas)]
    kkt = analysis.kkt_residuals(
        ctx.law_cfg, final.x - x_d, Y, stack, groups, lambdas,
        final.theta_hat, ctx.plant.theta,
    )
    lines += [
        f"kkt_stationarity: {kkt.stationarity:.10g}",
        f"kkt_complementary_slackness: {kkt.complementary_slackness:.10g}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _load_with_overrides(args) -> ScenarioConfig:
    """The loaded config with --dt / --t-final applied; whatever runs or
    writes it next (run_scenario, config_to_dict) validates the result."""
    changes = {key: getattr(args, key) for key in ("dt", "t_final")
               if getattr(args, key) is not None}
    return replace(load_config(args.config), **changes)


def cmd_run(args) -> int:
    cfg = _load_with_overrides(args)
    effective = config_to_dict(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "effective_config.json", "w") as fh:
        json.dump(effective, fh, indent=2)
        fh.write("\n")
    log.info("running scenario %s", cfg.name)
    started = time.perf_counter()
    trajectory = run_scenario(cfg)
    runtime = time.perf_counter() - started
    trajectory.to_csv(out / "trajectory.csv")
    summary = scenario_summary(trajectory, runtime_seconds=runtime)
    (out / "summary.txt").write_text(summary)
    print(f"run {cfg.name}: {trajectory.n_rows} rows in {runtime:.2f}s, "
          f"final |e| = {trajectory.column('e_norm')[-1]:.3e}")
    return 0


def cmd_compare(args) -> int:
    base = _load_with_overrides(args)
    laws = [token.strip() for token in args.laws.split(",") if token.strip()]
    valid = [v.value for v in UpdateLaw]
    for law_name in laws:
        if law_name not in valid:
            raise ConfigError(f"unknown law '{law_name}' (choose from {valid})")
    if not laws:
        raise ConfigError("no laws given")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for law_name in laws:
        log.info("compare: running %s under %s", base.name, law_name)
        trajectory = run_scenario(replace(base, law=law_name))
        trajectory.to_csv(out / f"{law_name}.csv")
        rows.append([
            law_name,
            steady_state_rms(trajectory),
            min_margin(trajectory),
            float(trajectory.column("theta_err_norm")[-1]),
        ])
    write_csv(out / "compare.csv",
               ["law", "steady_state_rms", "min_margin", "final_theta_err_norm"],
               rows)
    for row in rows:
        print(f"compare {row[0]}: rms={row[1]:.4e} margin={row[2]:.4e} "
              f"theta_err={row[3]:.4e}")
    return 0


def _apply_sweep(cfg: ScenarioConfig, key: str, value: float) -> ScenarioConfig:
    if key not in SWEEPS:
        raise ConfigError(f"unknown sweep key '{key}' (choose from {tuple(SWEEPS)})")
    return SWEEPS[key](cfg, value)


def cmd_sweep(args) -> int:
    base = _load_with_overrides(args)
    try:
        values = [float(token) for token in args.sweep_values.split(",") if token.strip()]
    except ValueError:
        raise ConfigError(f"sweep values must be numbers, got '{args.sweep_values}'")
    if not values:
        raise ConfigError("no sweep values given")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        cfg = _apply_sweep(base, args.sweep_key, value)
        log.info("sweep: %s = %g", args.sweep_key, value)
        trajectory = run_scenario(cfg)
        run_dir = out / f"{args.sweep_key}_{value:g}"
        run_dir.mkdir(parents=True, exist_ok=True)
        trajectory.to_csv(run_dir / "trajectory.csv")
        rows.append([
            value,
            steady_state_rms(trajectory),
            float(trajectory.column("theta_err_norm")[-1]),
        ])
    write_csv(out / "sweep.csv",
               [args.sweep_key, "steady_state_rms", "final_theta_err_norm"],
               rows)
    for row in rows:
        print(f"sweep {args.sweep_key}={row[0]:g}: rms={row[1]:.4e} "
              f"theta_err={row[2]:.4e}")
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
