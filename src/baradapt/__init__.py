"""Barrier-constrained adaptive trajectory tracking.

Simulates plants xdot = Y(x) theta + u under a certainty-equivalence
tracking controller whose parameter estimate evolves by one of four update
laws: plain gradient, concurrent learning, a primal-dual barrier-constrained
law that keeps the estimate inside declared bounds, and a sigma-modification
fallback for phases without informative recorded data.  Includes the
Lyapunov bookkeeping to check the predicted ultimate bound on each run.
"""

from .adaptation import (
    LAWS_WITH_BARRIER,
    LAWS_WITH_MEMORY,
    MultiplierState,
    UpdateLaw,
    UpdateLawConfig,
    lagrangian_gradient,
    lagrangian_value,
    lambda_dot,
    projection,
    theta_hat_dot,
)
from .analysis import (
    EnvelopeReport,
    KktResiduals,
    UubConstants,
    envelope_check,
    kkt_residuals,
    lyapunov_value,
    uub_constants,
    uub_constants_from_config,
)
from .barrier import (
    BarrierKind,
    ConstraintGroup,
    ConstraintKind,
    component_bounds,
    norm_bounds,
)
from .errors import (
    BarrierBreach,
    ConfigError,
    InfeasibleEvaluation,
    InsufficientWindow,
    NumericalDivergence,
    SingularGradient,
)
from .history import (
    HistoryStack,
    estimate_state_derivative,
    fill_with_exact_model_data,
)
from .model import (
    BENCHMARK_THETA,
    DesiredTrajectory,
    PlantModel,
    benchmark_plant,
    benchmark_trajectory,
    get_plant,
    get_trajectory,
    zero_regressor_plant,
)
from .sim import (
    CompositeState,
    GroupConfig,
    RunContext,
    ScenarioConfig,
    StackConfig,
    TrajectoryLog,
    build_context,
    canonical_config,
    control_input,
    min_margin,
    rk4,
    rk4_step,
    run_scenario,
    steady_state_rms,
)

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_THETA",
    "BarrierBreach",
    "BarrierKind",
    "CompositeState",
    "ConfigError",
    "ConstraintGroup",
    "ConstraintKind",
    "DesiredTrajectory",
    "EnvelopeReport",
    "GroupConfig",
    "HistoryStack",
    "InfeasibleEvaluation",
    "InsufficientWindow",
    "KktResiduals",
    "LAWS_WITH_BARRIER",
    "LAWS_WITH_MEMORY",
    "MultiplierState",
    "NumericalDivergence",
    "PlantModel",
    "RunContext",
    "ScenarioConfig",
    "SingularGradient",
    "StackConfig",
    "TrajectoryLog",
    "UpdateLaw",
    "UpdateLawConfig",
    "UubConstants",
    "benchmark_plant",
    "benchmark_trajectory",
    "build_context",
    "canonical_config",
    "component_bounds",
    "control_input",
    "envelope_check",
    "estimate_state_derivative",
    "fill_with_exact_model_data",
    "get_plant",
    "get_trajectory",
    "kkt_residuals",
    "lagrangian_gradient",
    "lagrangian_value",
    "lambda_dot",
    "lyapunov_value",
    "min_margin",
    "norm_bounds",
    "projection",
    "rk4",
    "rk4_step",
    "run_scenario",
    "steady_state_rms",
    "theta_hat_dot",
    "uub_constants",
    "uub_constants_from_config",
    "zero_regressor_plant",
]
