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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleEvaluation, SingularGradient

Array = np.ndarray


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
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "barrier", barrier)
        if self.dim_param < 1:
            raise ValueError("dim_param must be positive")
        if kind is ConstraintKind.COMPONENT:
            lo = tuple(float(v) for v in np.atleast_1d(self.lower))
            hi = tuple(float(v) for v in np.atleast_1d(self.upper))
            if len(lo) != self.dim_param or len(hi) != self.dim_param:
                raise ValueError(
                    f"component bounds must have length {self.dim_param}, "
                    f"got {len(lo)} and {len(hi)}"
                )
            if not all(a < b for a, b in zip(lo, hi)):
                raise ValueError("component bounds require lower < upper elementwise")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        else:
            lo = float(np.squeeze(self.lower))
            hi = float(np.squeeze(self.upper))
            if not 0.0 < lo < hi:
                raise ValueError("norm bounds require 0 < lower < upper")
            if barrier is BarrierKind.LOG and not self.norm_log_ok:
                raise ValueError(
                    "norm bounds with the log barrier are an extension; "
                    "pass norm_log_ok=True to enable"
                )
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)

    @property
    def n_constraints(self) -> int:
        return 2 * self.dim_param if self.kind is ConstraintKind.COMPONENT else 2

    # -- geometry ----------------------------------------------------------

    def _check_theta(self, theta_hat) -> Array:
        th = np.asarray(theta_hat, dtype=float)
        if th.shape != (self.dim_param,):
            raise ValueError(
                f"theta_hat has shape {th.shape}, expected ({self.dim_param},)"
            )
        return th

    def _bound_arrays(self) -> tuple[Array, Array]:
        cached = getattr(self, "_bounds_cache", None)
        if cached is None:
            cached = (np.asarray(self.lower, dtype=float),
                      np.asarray(self.upper, dtype=float))
            object.__setattr__(self, "_bounds_cache", cached)
        return cached

    def slacks(self, theta_hat) -> Array:
        """Distances to each bound; positive iff the constraint holds strictly."""
        th = self._check_theta(theta_hat)
        if self.kind is ConstraintKind.COMPONENT:
            lo, hi = self._bound_arrays()
            return np.concatenate([th - lo, hi - th])
        r = float(np.linalg.norm(th))
        return np.array([r - self.lower, self.upper - r])

    def feasibility(self, theta_hat) -> Feasibility:
        """Strict feasibility plus the worst-case slack.  Margin 0 (a bound
        hit exactly) counts as infeasible."""
        margin = float(np.min(self.slacks(theta_hat)))
        return Feasibility(margin > 0.0, margin)

    # -- barrier values and gradients --------------------------------------

    def values(self, theta_hat) -> Array:
        """Per-constraint barrier values, ordered lower block then upper."""
        s = self.slacks(theta_hat)
        self._require_feasible(s)
        if self.barrier is BarrierKind.INVERSE:
            return 1.0 / s
        return -np.log(s)

    def gradients(self, theta_hat) -> Array:
        """d(values)/d(theta_hat), one row per constraint."""
        th = self._check_theta(theta_hat)
        ds = self._slack_jacobian(th)
        s = self.slacks(th)
        self._require_feasible(s)
        return self._dc_ds(s)[:, None] * ds

    def evaluate(self, theta_hat, lam) -> BarrierEval:
        """Values, gradients and sum_i lam_i * grad_i in one pass."""
        th = self._check_theta(theta_hat)
        lam = self._check_lam(lam)
        ds = self._slack_jacobian(th)
        s = self.slacks(th)
        self._require_feasible(s)
        values = 1.0 / s if self.barrier is BarrierKind.INVERSE else -np.log(s)
        gradients = self._dc_ds(s)[:, None] * ds
        return BarrierEval(values, gradients, lam @ gradients)

    def weighted_gradient_sum(self, theta_hat, lam) -> Array:
        """sum_i lam_i * gradient_i, the constraint force in the update law."""
        return self.evaluate(theta_hat, lam).weighted_gradient

    def _check_lam(self, lam) -> Array:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.n_constraints,):
            raise ValueError(
                f"multiplier has shape {lam.shape}, expected ({self.n_constraints},)"
            )
        if np.any(lam < 0.0):
            raise ValueError("multipliers must be non-negative")
        return lam

    def _require_feasible(self, slacks: Array):
        margin = float(np.min(slacks))
        if margin <= 0.0:
            raise InfeasibleEvaluation(
                f"barrier evaluated outside the feasible set (margin {margin:g})",
                margin=margin,
            )

    def _dc_ds(self, s: Array) -> Array:
        if self.barrier is BarrierKind.INVERSE:
            return -1.0 / (s * s)
        return -1.0 / s

    def _slack_jacobian(self, th: Array) -> Array:
        p = self.dim_param
        if self.kind is ConstraintKind.COMPONENT:
            jac = getattr(self, "_jac_cache", None)
            if jac is None:
                eye = np.eye(p)
                jac = np.concatenate([eye, -eye], axis=0)
                object.__setattr__(self, "_jac_cache", jac)
            return jac
        r = float(np.linalg.norm(th))
        if r == 0.0:
            raise SingularGradient("norm-constraint gradient undefined at theta_hat = 0")
        radial = th / r
        return np.stack([radial, -radial])


def component_bounds(lower, upper, barrier=BarrierKind.INVERSE) -> ConstraintGroup:
    lower = tuple(float(v) for v in lower)
    return ConstraintGroup(
        kind=ConstraintKind.COMPONENT,
        barrier=barrier,
        lower=lower,
        upper=tuple(float(v) for v in upper),
        dim_param=len(lower),
    )


def norm_bounds(lower, upper, dim_param, barrier=BarrierKind.INVERSE,
                norm_log_ok=False) -> ConstraintGroup:
    return ConstraintGroup(
        kind=ConstraintKind.NORM,
        barrier=barrier,
        lower=float(lower),
        upper=float(upper),
        dim_param=dim_param,
        norm_log_ok=norm_log_ok,
    )
