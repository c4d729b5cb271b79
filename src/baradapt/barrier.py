"""Constraint sets on the parameter estimate and their barrier encodings.

A constraint group fixes a feasible set for theta_hat and a barrier that maps
each scalar constraint's slack s > 0 to a value that blows up as s -> 0+:

    inverse barrier   c = 1/s        dc/ds = -1/s^2
    log barrier       c = -ln(s)     dc/ds = -1/s

Component bounds give 2p scalar constraints (p lower, then p upper, in that
order).  Norm bounds constrain the Euclidean norm of theta_hat to an annulus
and give 2 scalar constraints (lower, upper).  Barrier values and gradients
are only defined strictly inside the feasible set; evaluation elsewhere
raises InfeasibleEvaluation so the caller can shrink its step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleEvaluation, _integral, _vector

Array = np.ndarray

# _core's constants as 0-d arrays, which a ufunc takes faster than Python
# floats, to the same bits
_ONE = np.array(1.0)
_MINUS_ONE = np.array(-1.0)


class ConstraintKind(str, enum.Enum):
    COMPONENT = "component"
    NORM = "norm"


class BarrierKind(str, enum.Enum):
    INVERSE = "inverse"
    LOG = "log"


class Feasibility(NamedTuple):
    feasible: bool
    margin: float


class BarrierEval(NamedTuple):
    """One-pass evaluation: per-constraint values, per-constraint gradient
    rows (n_constraints x p), and the multiplier-weighted gradient sum."""

    values: Array
    gradients: Array
    weighted_gradient: Array


@dataclass(frozen=True)
class ConstraintGroup:
    """One family of constraints sharing a barrier encoding.

    For kind COMPONENT, lower/upper are arrays of length dim_param with
    lower < upper elementwise.  For kind NORM they are scalars
    0 < lower < upper bounding ||theta_hat||.  The norm + log combination is
    an extension the bundled scenarios never use; constructing it requires
    norm_log_ok=True.
    """

    kind: ConstraintKind
    barrier: BarrierKind
    lower: tuple[float, ...] | float
    upper: tuple[float, ...] | float
    dim_param: int
    norm_log_ok: bool = False

    def __post_init__(self):
        kind = ConstraintKind(self.kind)
        barrier = BarrierKind(self.barrier)
        dim_param = _integral(self.dim_param, "dim_param", 1)
        # the unchecked core's slacks are s = z jac^T + off, with z =
        # theta_hat (jac rows +I then -I) or, for a norm group, z = its norm
        # (jac the signs +1, -1 of the radial direction); off = (-lower, upper)
        component = kind is ConstraintKind.COMPONENT
        if component:
            lo = _vector(self.lower, np.size(self.lower), "lower")
            hi = _vector(self.upper, np.size(self.upper), "upper")
            if len(lo) != dim_param or len(hi) != dim_param:
                raise ValueError(
                    f"component bounds must have length {dim_param}, "
                    f"got {len(lo)} and {len(hi)}"
                )
            if not all(a < b for a, b in zip(lo, hi)):
                raise ValueError("component bounds require lower < upper elementwise")
            jac = np.concatenate([np.eye(dim_param), -np.eye(dim_param)])
        else:
            (lo,) = _vector(self.lower, 1, "lower", "positive")
            (hi,) = _vector(self.upper, 1, "upper")
            if not lo < hi:
                raise ValueError("norm bounds require lower < upper")
            if barrier is BarrierKind.LOG and not self.norm_log_ok:
                raise ValueError(
                    "norm bounds with the log barrier are an extension; "
                    "pass norm_log_ok=True to enable"
                )
            jac = np.array([[1.0], [-1.0]])
        for name, value in (("kind", kind), ("barrier", barrier), ("dim_param", dim_param),
                            ("lower", lo), ("upper", hi), ("_component", component),
                            ("_inverse", barrier is BarrierKind.INVERSE),
                            ("_jac", jac), ("_jac_t", jac.T.copy()), ("_eye", np.eye(len(jac))),
                            ("_off", np.hstack([np.negative(lo), hi]))):
            object.__setattr__(self, name, value)

    @property
    def n_constraints(self) -> int:
        return len(self._jac)

    # -- geometry ----------------------------------------------------------

    def _check_theta(self, theta_hat) -> Array:
        th = np.asarray(theta_hat, dtype=float)
        if th.shape != (self.dim_param,):
            raise ValueError(
                f"theta_hat has shape {th.shape}, expected ({self.dim_param},)"
            )
        return th

    def _slacks(self, th: Array) -> Array:
        """Distances to each bound of each row of th, unchecked: th has shape
        (..., dim_param) and the result (..., n_constraints), positive iff
        the constraint holds strictly.  Every entry of the Jacobian is 0 or
        +-1, so z jac^T + off is bitwise z - lower, upper - z; np.vecdot
        takes the same dot product as th.dot(th)."""
        z = th if self._component else np.sqrt(np.vecdot(th, th))[..., None]
        return z.dot(self._jac_t) + self._off

    def feasibility(self, theta_hat) -> Feasibility:
        """Strict feasibility plus the worst-case slack.  Margin 0 (a bound
        hit exactly) counts as infeasible."""
        margin = float(self._slacks(self._check_theta(theta_hat)).min())
        return Feasibility(margin > 0.0, margin)

    # -- barrier values and gradients --------------------------------------

    def evaluate(self, theta_hat, lam) -> BarrierEval:
        """Values, gradients and sum_i lam_i * grad_i in one pass."""
        th = self._check_theta(theta_hat)
        lam = self._check_lam(lam)
        # weighting by the identity gives back the gradient rows themselves
        values, rows = self._core(th, np.vstack([self._eye, lam]), self._jac)
        return BarrierEval(values, rows[:-1], rows[-1])

    def _check_lam(self, lam) -> Array:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.n_constraints,):
            raise ValueError(
                f"multiplier has shape {lam.shape}, expected ({self.n_constraints},)"
            )
        if np.any(lam < 0.0):
            raise ValueError("multipliers must be non-negative")
        return lam

    def _core(self, th: Array, lam: Array, jac: Array) -> tuple[Array, Array]:
        """Barrier values at th and lam @ (their gradient rows, with columns
        scaled as jac scales _jac), without argument checks: th has shape
        (dim_param,) and lam shape (n_constraints,), or (k, n_constraints)
        for k weightings at once (a scalar weights every constraint alike).
        Raises InfeasibleEvaluation for a margin <= 0; for a norm group that
        includes theta_hat = 0, where the radial direction is undefined."""
        if self._component:
            s, ds = self._slacks(th), jac
        else:
            # one radius serves the slacks and the radial direction
            r = math.sqrt(th.dot(th))
            s = np.array([r - self.lower, self.upper - r])
        margin = min(s.tolist())  # faster than s.min() on a few entries
        if margin <= 0.0:
            raise InfeasibleEvaluation(
                f"barrier evaluated outside the feasible set (margin {margin:g})",
                margin=margin,
            )
        if not self._component:
            ds = jac * (th / r)  # r >= lower > 0 here
        if self._inverse:
            return _ONE / s, (lam * (_MINUS_ONE / (s * s))).dot(ds)
        return -np.log(s), (lam * (_MINUS_ONE / s)).dot(ds)


def component_bounds(lower, upper, barrier=BarrierKind.INVERSE) -> ConstraintGroup:
    return ConstraintGroup(
        kind=ConstraintKind.COMPONENT,
        barrier=barrier,
        lower=lower,
        upper=upper,
        dim_param=len(lower),
    )


def norm_bounds(lower, upper, dim_param, barrier=BarrierKind.INVERSE,
                norm_log_ok=False) -> ConstraintGroup:
    return ConstraintGroup(
        kind=ConstraintKind.NORM,
        barrier=barrier,
        lower=lower,
        upper=upper,
        dim_param=dim_param,
        norm_log_ok=norm_log_ok,
    )
