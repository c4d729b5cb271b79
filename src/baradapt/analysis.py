"""Stability diagnostics: Lyapunov energy, ultimate-bound constants, and
KKT residuals.

The composite error z = (e, theta_tilde, lambda_tilde) is weighed by

    V = 1/2 e^T e + 1/2 theta_tilde^T P^{-1} theta_tilde
      + 1/2 lambda_tilde^T Gamma lambda_tilde

and sandwiched by Lambda_min ||z||^2 <= V <= Lambda_max ||z||^2.  The decay
estimate Vdot <= -beta1 V + beta2 gives the trajectory envelope

    ||z(t)||^2 <= (Lambda_max/Lambda_min) ||z(0)||^2 exp(-beta1 t)
                + beta2 / (beta1 Lambda_min) (1 - exp(-beta1 t)).

lambda_tilde needs the unknowable stationary multiplier lambda*; callers
supply an estimate (the runner defaults to the final logged multiplier), so
the envelope is a diagnostic, not a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adaptation import UpdateLawConfig, lagrangian_gradient

Array = np.ndarray


def lyapunov_value(e, theta_tilde, lambda_tilde, learning_rate, gamma) -> float:
    """Composite energy; learning_rate and gamma are the diagonals of P and
    Gamma (gamma concatenated over constraint groups, empty when there are
    no multipliers)."""
    e = np.asarray(e, dtype=float)
    tilde = np.asarray(theta_tilde, dtype=float)
    lam_tilde = np.asarray(lambda_tilde, dtype=float).reshape(-1)
    P = np.asarray(learning_rate, dtype=float)
    g = np.asarray(gamma, dtype=float).reshape(-1)
    if P.shape != tilde.shape:
        raise ValueError("learning_rate must match theta_tilde in length")
    if g.shape != lam_tilde.shape:
        raise ValueError("gamma must match lambda_tilde in length")
    if np.any(P <= 0.0) or np.any(g <= 0.0):
        raise ValueError("P and Gamma diagonals must be positive")
    return float(
        0.5 * e @ e + 0.5 * tilde @ (tilde / P) + 0.5 * lam_tilde @ (g * lam_tilde)
    )


@dataclass(frozen=True)
class UubConstants:
    """Quadratic-form bounds and decay constants of the composite error."""

    Lambda_min: float
    Lambda_max: float
    beta1: float
    beta2: float
    lambda_star: tuple[float, ...]
    assumption_met: bool

    def envelope(self, t, z0_sq: float) -> Array:
        """Bound on ||z(t)||^2 given ||z(0)||^2."""
        t = np.asarray(t, dtype=float)
        decay = np.exp(-self.beta1 * t)
        floor = self.beta2 / (self.beta1 * self.Lambda_min)
        return (self.Lambda_max / self.Lambda_min) * z0_sq * decay + floor * (1.0 - decay)


def uub_constants(control_gain, learning_rate, k_cl, gamma, alpha,
                  sigma_bar1, lambda_star=()) -> UubConstants:
    """Assemble the decay constants from gain diagonals.

    gamma is the concatenated diagonal of Gamma over all constraint groups
    (empty when unconstrained), alpha the multiplier decay rate, split
    evenly between the decay term of beta1 and the bias term beta2.  A
    non-positive sigma_bar1 marks the recorded-data excitation assumption as
    unmet; its term drops out of beta1 instead of zeroing it.
    """
    k = np.atleast_1d(np.asarray(control_gain, dtype=float))
    P = np.atleast_1d(np.asarray(learning_rate, dtype=float))
    kcl = np.atleast_1d(np.asarray(k_cl, dtype=float))
    g = np.asarray(gamma, dtype=float).reshape(-1)
    lam_star = np.asarray(lambda_star, dtype=float).reshape(-1)
    if np.any(k <= 0.0) or np.any(P <= 0.0) or np.any(kcl <= 0.0):
        raise ValueError("gain diagonals must be positive")
    if g.size and np.any(g <= 0.0):
        raise ValueError("gamma diagonal must be positive")
    if sigma_bar1 < 0.0:
        raise ValueError("sigma_bar1 must be non-negative")

    mins = [0.5, 0.5 / float(np.max(P))]
    maxs = [0.5, 0.5 / float(np.min(P))]
    if g.size:
        mins.append(0.5 * float(np.min(g)))
        maxs.append(0.5 * float(np.max(g)))
    Lambda_min = min(mins)
    Lambda_max = max(maxs)

    assumption_met = sigma_bar1 > 0.0
    terms = [float(np.min(k))]
    if assumption_met:
        terms.append(float(np.min(kcl)) * sigma_bar1)
    beta2 = 0.0
    if g.size:
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        half = 0.5 * alpha
        terms.append(half * float(np.min(g)))
        beta2 = alpha * alpha * float(np.min(g)) * float(lam_star @ lam_star) / (4.0 * half)
    beta1 = min(terms) / Lambda_min
    return UubConstants(
        Lambda_min=Lambda_min,
        Lambda_max=Lambda_max,
        beta1=beta1,
        beta2=beta2,
        lambda_star=tuple(lam_star),
        assumption_met=assumption_met,
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Pointwise comparison of logged ||z||^2 against the decay envelope."""

    n_points: int
    n_violations: int
    fraction_satisfied: float
    worst_ratio: float
    beta1: float
    beta2: float

    def as_text(self) -> str:
        lines = [
            f"envelope_points: {self.n_points}",
            f"envelope_violations: {self.n_violations}",
            f"envelope_fraction_satisfied: {self.fraction_satisfied:.6f}",
            f"envelope_worst_ratio: {self.worst_ratio:.6g}",
            f"envelope_beta1: {self.beta1:.6g}",
            f"envelope_beta2: {self.beta2:.6g}",
        ]
        return "\n".join(lines)


def envelope_check(log, consts: UubConstants) -> EnvelopeReport:
    """Fraction of logged steps whose composite error squared stays under
    consts.envelope, plus the worst observed ratio.

    log is a TrajectoryLog; ||z||^2 sums the squares of its e, theta_err
    and lambda - lambda_star columns, one column at a time in log order."""
    t = log.column("t")
    lam_tilde = log.multipliers()
    if lam_tilde.shape[1]:
        lam_star = np.asarray(consts.lambda_star, dtype=float)
        if lam_star.size != lam_tilde.shape[1]:
            raise ValueError(
                f"lambda_star has length {lam_star.size}, log has "
                f"{lam_tilde.shape[1]} multiplier columns"
            )
        lam_tilde = lam_tilde - lam_star
    zsq = np.zeros(len(t))
    for col in (*log.block("e").T, *log.block("theta_err").T, *lam_tilde.T):
        zsq += col ** 2
    env = consts.envelope(t - t[0], float(zsq[0]))
    with np.errstate(over="ignore"):  # a ratio past the largest double reads inf
        ratio = zsq / np.maximum(env, 1e-300)
    violations = int(np.sum(ratio > 1.0))
    return EnvelopeReport(
        n_points=len(t),
        n_violations=violations,
        fraction_satisfied=1.0 - violations / len(t),
        worst_ratio=float(np.max(ratio)),
        beta1=consts.beta1,
        beta2=consts.beta2,
    )


class KktResiduals(NamedTuple):
    stationarity: float
    complementary_slackness: float


def kkt_residuals(cfg: UpdateLawConfig, e, Y, stack, groups, lambdas,
                  theta_hat, theta_true) -> KktResiduals:
    """Stationarity ||grad_theta L|| and the largest complementary-slackness
    defect |lambda_i * (-alpha lambda_i + (Gamma^{-1} c)_i)| over all
    constraints."""
    grad = lagrangian_gradient(cfg, e, Y, stack, groups, lambdas, theta_hat, theta_true)
    stationarity = float(np.linalg.norm(grad))
    comp = 0.0
    th = np.asarray(theta_hat, dtype=float)
    for group, ms in zip(groups, lambdas):
        lam = ms.lam_array
        c = group.values(th)
        defect = lam * (-ms.alpha * lam + ms.gamma_inv_array * c)
        if defect.size:
            comp = max(comp, float(np.max(np.abs(defect))))
    return KktResiduals(stationarity=stationarity, complementary_slackness=comp)


def steady_state_rms(times, values) -> float:
    """RMS of values over the steady-state window [20, 30] s; if the log
    ends before 20 s the last third of the samples is used instead."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = (t >= 20.0) & (t <= 30.0)
    if not np.any(mask):
        mask = t >= t[max(0, int(2 * len(t) / 3))]
    return float(math.sqrt(float(np.mean(v[mask] ** 2))))
