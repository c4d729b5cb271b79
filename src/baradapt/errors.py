"""Exception types shared across the package, and the number rules.

Contract violations (bad shapes, non-positive gains, malformed configs) raise
plain ValueError / ConfigError.  The classes below are signals with meaning to
the integrator or the CLI.  _integral, _real and _vector are the one check of
a count, a real number and a vector of reals: every count, gain, bound and
time that a config or a constructor takes goes through them, so a bool is no
number on the Python path as on the JSON path.
"""

import sys
from numbers import Real

import numpy as np


class InfeasibleEvaluation(Exception):
    """A barrier was evaluated at a point outside, or exactly on, the boundary
    of its feasible set.  Recoverable: the integrator reacts by shrinking the
    step, it is an error only if step shrinking is exhausted."""

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


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


def _integral(value, key: str, minimum: int) -> int:
    """value as an int of at least minimum (0 or 1); a float passes only
    when it is integral."""
    # value % 1 is NaN, so truthy, for NaN and the infinities
    if isinstance(value, bool) or not isinstance(value, Real) or value % 1:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{key} must be {'positive' if minimum else 'non-negative'}")
    return int(value)


def _real(value, key: str, sign: str = "") -> float:
    """value as a finite float, and a positive or non-negative one when sign
    says so.  numpy's bool is no Real, and Python's is rejected by name."""
    # NaN fails every comparison, and an int too large for a float fails too;
    # float is named first because the Real ABC check alone costs ~0.5 us
    ok = (isinstance(value, (float, Real)) and not isinstance(value, bool)
          and abs(value) <= sys.float_info.max)
    if ok and sign:
        ok = value > 0 if sign == "positive" else value >= 0
    if not ok:
        raise ConfigError(f"{key} must be {sign} and finite" if sign
                          else f"{key} must be finite")
    return float(value)


def _vector(value, length: int, key: str, sign: str = "") -> tuple[float, ...]:
    """value as a tuple of length reals, each passed through _real; a
    scalar fills every entry.  A bool entry is caught before numpy would
    read it as 1.0, and numpy's own conversion errors become ConfigErrors."""
    entries = value if isinstance(value, (list, tuple)) else (value,)
    if (any(isinstance(v, (bool, np.bool_)) for v in entries)
            or getattr(value, "dtype", None) == bool):
        raise ConfigError(f"{key} must be numbers, got {value!r}")
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError, OverflowError) as err:  # ragged, no number, or too large
        ragged = any(isinstance(v, (list, tuple)) for v in entries)
        raise ConfigError(f"{key} must be a scalar or a vector of length {length}" if ragged
                          else f"{key} must be finite" if isinstance(err, OverflowError)
                          else f"{key} must be numbers, got {value!r}") from None
    if arr.size == 1:
        arr = np.full(length, arr[0])
    if arr.shape != (length,):
        raise ConfigError(f"{key} must be a scalar or a vector of length {length}")
    return tuple(_real(v, key, sign) for v in arr.tolist())
