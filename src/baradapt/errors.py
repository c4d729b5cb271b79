"""Exception types shared across the package, and the integer check.

Contract violations (bad shapes, non-positive gains, malformed configs) raise
plain ValueError / ConfigError.  The classes below are signals with meaning to
the integrator or the CLI.
"""

from numbers import Real


class InfeasibleEvaluation(Exception):
    """A barrier was evaluated at a point outside, or exactly on, the boundary
    of its feasible set.  Recoverable: the integrator reacts by shrinking the
    step, it is an error only if step shrinking is exhausted."""

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class SingularGradient(Exception):
    """Norm-constraint gradient requested at ||theta_hat|| = 0 where the
    radial direction is undefined."""


class BarrierBreach(Exception):
    """Step-size halving was exhausted while a barrier stayed infeasible."""

    def __init__(self, message: str, time: float, dt: float | None = None):
        super().__init__(message)
        self.time = time
        self.dt = dt


class NumericalDivergence(Exception):
    """NaN or Inf appeared in the integrated state."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class ConfigError(ValueError):
    """Scenario configuration rejected; the message names the offending key."""


def _integral(value, key: str, non_negative: bool = False) -> int:
    """value as an int; a float passes only when it is integral, and a
    negative value fails when non_negative is set."""
    # value % 1 is NaN, so truthy, for NaN and the infinities
    if (isinstance(value, bool) or not isinstance(value, Real) or value % 1
            or non_negative and value < 0):
        kind = "a non-negative integer" if non_negative else "an integer"
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return int(value)
