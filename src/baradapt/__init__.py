"""Barrier-constrained adaptive trajectory tracking.

Simulates plants xdot = Y(x) theta + u under a certainty-equivalence
tracking controller whose parameter estimate evolves by one of four update
laws: plain gradient, concurrent learning, a primal-dual barrier-constrained
law that keeps the estimate inside declared bounds, and a sigma-modification
fallback for phases without informative recorded data.  Includes the
Lyapunov bookkeeping to check the predicted ultimate bound on each run.

The top level holds what a scenario needs: its config types, canonical_config
and run_scenario with the TrajectoryLog it returns, the law, barrier and
constraint-kind enums, and the errors the CLI reports.  Everything else is
imported from its submodule (baradapt.sim, baradapt.analysis, ...).
"""

from .adaptation import UpdateLaw
from .barrier import BarrierKind, ConstraintKind
from .errors import BarrierBreach, ConfigError, NumericalDivergence
from .sim import (
    GroupConfig,
    ScenarioConfig,
    StackConfig,
    TrajectoryLog,
    canonical_config,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierBreach",
    "BarrierKind",
    "ConfigError",
    "ConstraintKind",
    "GroupConfig",
    "NumericalDivergence",
    "ScenarioConfig",
    "StackConfig",
    "TrajectoryLog",
    "UpdateLaw",
    "canonical_config",
    "run_scenario",
]
