"""Command-line front end: run one scenario, compare update laws on a shared
scenario, or sweep a gain.

Outputs are plain CSV and flat key-value text so external tooling can plot
them; nothing here depends on a plotting library.  Set BARADAPT_LOG to a
level name (debug, info, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis
from .adaptation import MultiplierState, UpdateLaw, UpdateLawConfig
from .errors import BarrierBreach, ConfigError, NumericalDivergence
from .model import get_plant
from .sim import (
    GroupConfig,
    ScenarioConfig,
    StackConfig,
    TrajectoryLog,
    build_context,
    canonical_config,
    min_margin,
    run_scenario,
    steady_state_rms,
)

log = logging.getLogger("baradapt")

_TOP_KEYS = {
    "name", "plant", "trajectory", "law", "control_gain", "learning_rate",
    "k_cl", "sigma2", "dt", "t_final", "log_every", "x0", "theta_hat0",
    "theta_true", "groups", "stack",
}
_GROUP_KEYS = {"kind", "barrier", "lower", "upper", "gamma_inv", "alpha",
               "lambda0", "norm_log_ok"}
_STACK_KEYS = {"mode", "size", "record_every", "min_excitation"}
_REQUIRED = ("name", "law", "control_gain", "learning_rate", "x0", "theta_hat0")

SWEEP_KEYS = ("control_gain", "k_cl_scale", "learning_rate_scale", "alpha")


def parse_config(text: str) -> ScenarioConfig:
    """Parse a JSON scenario description into a canonical ScenarioConfig.
    Unknown or missing keys are rejected by name."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key '{key}'")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")

    groups = []
    raw_groups = raw.get("groups", [])
    if not isinstance(raw_groups, list):
        raise ConfigError("'groups' must be a list")
    for i, g in enumerate(raw_groups, start=1):
        if not isinstance(g, dict):
            raise ConfigError(f"groups[{i}] must be an object")
        for key in g:
            if key not in _GROUP_KEYS:
                raise ConfigError(f"unknown key 'groups[{i}].{key}'")
        for key in ("kind", "barrier", "lower", "upper", "gamma_inv", "alpha", "lambda0"):
            if key not in g:
                raise ConfigError(f"missing required key 'groups[{i}].{key}'")
        groups.append(
            GroupConfig(
                kind=g["kind"],
                barrier=g["barrier"],
                lower=_tuplify(g["lower"]),
                upper=_tuplify(g["upper"]),
                gamma_inv=_tuplify(g["gamma_inv"]),
                alpha=g["alpha"],
                lambda0=_tuplify(g["lambda0"]),
                norm_log_ok=bool(g.get("norm_log_ok", False)),
            )
        )

    raw_stack = raw.get("stack", {})
    if not isinstance(raw_stack, dict):
        raise ConfigError("'stack' must be an object")
    for key in raw_stack:
        if key not in _STACK_KEYS:
            raise ConfigError(f"unknown key 'stack.{key}'")
    stack = StackConfig(
        mode=raw_stack.get("mode", "online"),
        size=raw_stack.get("size", 20),
        record_every=raw_stack.get("record_every", 50),
        min_excitation=raw_stack.get("min_excitation", 1e-3),
    )

    cfg = ScenarioConfig(
        name=str(raw["name"]),
        plant=str(raw.get("plant", "benchmark")),
        trajectory=str(raw.get("trajectory", "benchmark")),
        law=str(raw["law"]),
        control_gain=_tuplify(raw["control_gain"]),
        learning_rate=_tuplify(raw["learning_rate"]),
        k_cl=_tuplify(raw.get("k_cl", 1.0)),
        sigma2=raw.get("sigma2", 0.0),
        dt=raw.get("dt", 1e-3),
        t_final=raw.get("t_final", 30.0),
        log_every=raw.get("log_every", 10),
        x0=_tuplify(raw["x0"]),
        theta_hat0=_tuplify(raw["theta_hat0"]),
        theta_true=_tuplify(raw["theta_true"]) if raw.get("theta_true") is not None else None,
        groups=tuple(groups),
        stack=stack,
    )
    return canonical_config(cfg)


def _tuplify(value):
    if isinstance(value, list):
        return tuple(value)
    return value


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical config as a JSON-ready dict; parse_config inverts this
    exactly."""
    cfg = canonical_config(cfg)
    out = {
        "name": cfg.name,
        "plant": cfg.plant,
        "trajectory": cfg.trajectory,
        "law": cfg.law,
        "control_gain": list(cfg.control_gain),
        "learning_rate": list(cfg.learning_rate),
        "k_cl": list(cfg.k_cl),
        "sigma2": cfg.sigma2,
        "dt": cfg.dt,
        "t_final": cfg.t_final,
        "log_every": cfg.log_every,
        "x0": list(cfg.x0),
        "theta_hat0": list(cfg.theta_hat0),
        "groups": [
            {
                "kind": g.kind,
                "barrier": g.barrier,
                "lower": list(g.lower) if isinstance(g.lower, tuple) else g.lower,
                "upper": list(g.upper) if isinstance(g.upper, tuple) else g.upper,
                "gamma_inv": list(g.gamma_inv),
                "alpha": g.alpha,
                "lambda0": list(g.lambda0),
                "norm_log_ok": g.norm_log_ok,
            }
            for g in cfg.groups
        ],
        "stack": {
            "mode": cfg.stack.mode,
            "size": cfg.stack.size,
            "record_every": cfg.stack.record_every,
            "min_excitation": cfg.stack.min_excitation,
        },
    }
    if cfg.theta_true is not None:
        out["theta_true"] = list(cfg.theta_true)
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


def scenario_summary(cfg: ScenarioConfig, trajectory: TrajectoryLog,
                     runtime_seconds: float | None = None) -> str:
    """Flat key-value block: final errors, margins, decay constants, KKT
    residuals and the envelope report."""
    cfg = canonical_config(cfg)
    final = trajectory.meta["final_state"]
    stack = trajectory.meta.get("stack")
    plant = get_plant(cfg.plant, cfg.theta_true)
    ctx = build_context(cfg)
    e_norm = float(trajectory.column("e_norm")[-1])
    tilde_norm = float(trajectory.column("theta_err_norm")[-1])
    excitation = float(trajectory.column("excitation")[-1])
    lines = [
        f"scenario: {cfg.name}",
        f"law: {cfg.law}",
        f"dt: {cfg.dt:g}",
        f"t_final: {cfg.t_final:g}",
        f"final_e_norm: {e_norm:.10g}",
        f"final_theta_err_norm: {tilde_norm:.10g}",
        f"min_margin: {min_margin(trajectory):.10g}",
        f"steady_state_rms: {steady_state_rms(trajectory):.10g}",
        f"excitation_final: {excitation:.10g}",
        f"assumption_met: {str(bool(stack.assumption_met)).lower() if stack else 'false'}",
    ]
    if runtime_seconds is not None:
        lines.insert(4, f"runtime_seconds: {runtime_seconds:.3f}")

    lam_star = trajectory.meta.get("lambda_star", ())
    consts = analysis.uub_constants_from_config(
        cfg, sigma_bar1=excitation, lambda_star=np.asarray(lam_star, dtype=float)
        if len(lam_star) else None,
    )
    lines += [
        f"uub_Lambda_min: {consts.Lambda_min:.10g}",
        f"uub_Lambda_max: {consts.Lambda_max:.10g}",
        f"uub_beta1: {consts.beta1:.10g}",
        f"uub_beta2: {consts.beta2:.10g}",
    ]
    report = analysis.envelope_check(trajectory, consts)
    lines.append(report.as_text())

    law_cfg = UpdateLawConfig(
        law=UpdateLaw(cfg.law),
        dim_param=plant.dim_param,
        learning_rate=cfg.learning_rate,
        k_cl=cfg.k_cl,
        sigma2=cfg.sigma2,
    )
    x_d, _ = ctx.traj.at(final.t)
    Y = plant.eval_regressor(final.x)
    lambdas = tuple(
        MultiplierState(lam=tuple(lam), gamma_inv=g.gamma_inv, alpha=g.alpha)
        for lam, g in zip(final.lambdas, cfg.groups)
    )
    groups = ctx.groups[: len(lambdas)]
    kkt = analysis.kkt_residuals(
        law_cfg, final.x - x_d, Y, stack, groups, lambdas,
        final.theta_hat, plant.theta,
    )
    lines += [
        f"kkt_stationarity: {kkt.stationarity:.10g}",
        f"kkt_complementary_slackness: {kkt.complementary_slackness:.10g}",
    ]
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                v if isinstance(v, str) else format(float(v), ".17g") for v in row
            ) + "\n")


# ---------------------------------------------------------------------------
# commands


def _load_with_overrides(args) -> ScenarioConfig:
    cfg = load_config(args.config)
    changes = {}
    if getattr(args, "dt", None) is not None:
        changes["dt"] = args.dt
    if getattr(args, "t_final", None) is not None:
        changes["t_final"] = args.t_final
    if changes:
        cfg = canonical_config(replace(cfg, **changes))
    return cfg


def cmd_run(args) -> int:
    cfg = _load_with_overrides(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "effective_config.json", "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
    log.info("running scenario %s", cfg.name)
    started = time.perf_counter()
    trajectory = run_scenario(cfg)
    runtime = time.perf_counter() - started
    trajectory.to_csv(out / "trajectory.csv")
    summary = scenario_summary(cfg, trajectory, runtime_seconds=runtime)
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
        cfg = canonical_config(replace(base, law=law_name))
        log.info("compare: running %s under %s", cfg.name, law_name)
        trajectory = run_scenario(cfg)
        trajectory.to_csv(out / f"{law_name}.csv")
        rows.append([
            law_name,
            steady_state_rms(trajectory),
            min_margin(trajectory),
            float(trajectory.column("theta_err_norm")[-1]),
        ])
    _write_csv(out / "compare.csv",
               ["law", "steady_state_rms", "min_margin", "final_theta_err_norm"],
               rows)
    for row in rows:
        print(f"compare {row[0]}: rms={row[1]:.4e} margin={row[2]:.4e} "
              f"theta_err={row[3]:.4e}")
    return 0


def _apply_sweep(cfg: ScenarioConfig, key: str, value: float) -> ScenarioConfig:
    if key == "control_gain":
        swept = replace(cfg, control_gain=value)
    elif key == "k_cl_scale":
        swept = replace(cfg, k_cl=tuple(v * value for v in cfg.k_cl))
    elif key == "learning_rate_scale":
        swept = replace(cfg, learning_rate=tuple(v * value for v in cfg.learning_rate))
    elif key == "alpha":
        swept = replace(cfg, groups=tuple(replace(g, alpha=value) for g in cfg.groups))
    else:
        raise ConfigError(f"unknown sweep key '{key}' (choose from {SWEEP_KEYS})")
    return canonical_config(swept)


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
    _write_csv(out / "sweep.csv",
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

    run_p = sub.add_parser("run", help="integrate one scenario")
    run_p.add_argument("--config", required=True,
                       help="path to a JSON scenario or a bundled name")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--dt", type=float, default=None, help="override step size")
    run_p.add_argument("--t-final", type=float, default=None, help="override horizon")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several update laws on one scenario")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--out", required=True)
    cmp_p.add_argument(
        "--laws",
        default="gradient,concurrent_learning,barrier_constrained",
        help="comma-separated law names",
    )
    cmp_p.add_argument("--dt", type=float, default=None)
    cmp_p.add_argument("--t-final", type=float, default=None)
    cmp_p.set_defaults(func=cmd_compare)

    swp_p = sub.add_parser("sweep", help="rerun a scenario across gain values")
    swp_p.add_argument("--config", required=True)
    swp_p.add_argument("--out", required=True)
    swp_p.add_argument("--sweep-key", required=True,
                       help=f"one of {', '.join(SWEEP_KEYS)}")
    swp_p.add_argument("--sweep-values", required=True,
                       help="comma-separated numbers")
    swp_p.add_argument("--dt", type=float, default=None)
    swp_p.add_argument("--t-final", type=float, default=None)
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
