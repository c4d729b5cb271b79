"""Stability diagnostics: Lyapunov energy, ultimate-bound constants, and
KKT residuals.

The composite error z = (e, theta_tilde, lambda_tilde) is weighed by

    V = 1/2 e^T e + 1/2 theta_tilde^T P^{-1} theta_tilde
      + 1/2 lambda_tilde^T Gamma lambda_tilde

and sandwiched by Lambda_min ||z||^2 <= V <= Lambda_max ||z||^2.  The decay
estimate Vdot <= -beta1 V + beta2 gives the trajectory envelope

    ||z(t)||^2 <= (Lambda_max/Lambda_min) ||z(0)||^2 exp(-beta1 t)
                + beta2 / (beta1 Lambda_min) (1 - exp(-beta1 t)).

lambda_tilde needs the unknowable stationary multiplier lambda*; the
envelope and the Lyapunov column take the final logged multipliers for it,
so the envelope is a diagnostic, not a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adaptation import _lambda_dot

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
    return float(_lyapunov(e, tilde, lam_tilde, P, g))


def _lyapunov(e: Array, tilde: Array, lam_tilde: Array, P: Array, g: Array) -> Array:
    """lyapunov_value of each row, without argument checks: e, tilde and
    lam_tilde have shapes (..., n), (..., p) and (..., len(g)), and P and g
    are positive.  np.vecdot takes the same dot products as @ does, so a
    row's value is bitwise that of the row on its own."""
    return (np.vecdot(0.5 * e, e) + np.vecdot(0.5 * tilde, tilde / P)
            + np.vecdot(0.5 * lam_tilde, g * lam_tilde))


@dataclass(frozen=True)
class UubConstants:
    """Quadratic-form bounds and decay constants of the composite error."""

    Lambda_min: float
    Lambda_max: float
    beta1: float
    beta2: float

    def envelope(self, t, z0_sq: float) -> Array:
        """Bound on ||z(t)||^2 given ||z(0)||^2."""
        t = np.asarray(t, dtype=float)
        decay = np.exp(-self.beta1 * t)
        floor = self.beta2 / (self.beta1 * self.Lambda_min)
        return (self.Lambda_max / self.Lambda_min) * z0_sq * decay + floor * (1.0 - decay)


def uub_constants(ctx, sigma_bar1: float, lambda_star: Array) -> UubConstants:
    """The decay constants of the run whose sim.RunContext is ctx, whose
    gains its compile checked: the diagonals ctx.k, ctx.P, ctx.kcl and
    ctx.gamma (Gamma over every group, empty without groups), and the
    smallest group alpha, split evenly between the decay term of beta1 and
    the bias term beta2.  lambda_star (a float array, one entry per gamma)
    estimates the stationary multipliers.  A non-positive sigma_bar1 marks
    the recorded-data excitation assumption as unmet; its term drops out of
    beta1 instead of zeroing it."""
    g = ctx.gamma
    mins = [0.5, 0.5 / float(np.max(ctx.P))]
    maxs = [0.5, 0.5 / float(np.min(ctx.P))]
    if g.size:
        mins.append(0.5 * float(np.min(g)))
        maxs.append(0.5 * float(np.max(g)))
    Lambda_min = min(mins)
    Lambda_max = max(maxs)

    terms = [float(np.min(ctx.k))]
    if sigma_bar1 > 0.0:
        terms.append(float(np.min(ctx.kcl)) * sigma_bar1)
    beta2 = 0.0
    if g.size:
        alpha = min(ms.alpha for ms in ctx.multipliers)
        half = 0.5 * alpha
        terms.append(half * float(np.min(g)))
        beta2 = alpha * alpha * float(np.min(g)) * float(lambda_star @ lambda_star) / (4.0 * half)
    return UubConstants(Lambda_min=Lambda_min, Lambda_max=Lambda_max,
                        beta1=min(terms) / Lambda_min, beta2=beta2)


@dataclass(frozen=True)
class EnvelopeReport:
    """Pointwise comparison of logged ||z||^2 against the decay envelope."""

    n_points: int
    n_violations: int
    fraction_satisfied: float
    worst_ratio: float


def envelope_check(log, consts: UubConstants) -> EnvelopeReport:
    """Fraction of logged steps whose composite error squared stays under
    consts.envelope, plus the worst observed ratio.

    log is a TrajectoryLog; ||z||^2 sums the squares of its e, theta_err
    and lambda - lambda_star columns, one column at a time in log order.
    lambda_star is the final logged multipliers, as in the log's Lyapunov
    column."""
    t = log.column("t")
    lam = log.multipliers()
    zsq = np.zeros(len(t))
    for col in (*log.block("e").T, *log.block("theta_err").T, *(lam - lam[-1]).T):
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
    )


class KktResiduals(NamedTuple):
    stationarity: float
    complementary_slackness: float


def kkt_residuals(ctx, e, x, theta_hat, lambdas) -> KktResiduals:
    """Stationarity ||grad_theta L|| and the largest complementary-slackness
    defect |lambda_i * lambda_dot_i| at a row (float arrays e, x, theta_hat
    and each integrated group's lambdas) of the run whose sim.RunContext is
    ctx, unchecked.  grad_theta L = -Y^T e - K_cl gram theta_tilde + sum_j
    lambda_j . grad c_j; where lambda_i > 0 the projection passes
    -alpha lambda_i + (Gamma^{-1} c)_i through."""
    grad = -(ctx.plant.eval_regressor(x).T @ e)
    if len(ctx.stack) > 0:
        grad = grad - ctx.kcl * (ctx.stack.gram @ (ctx.theta - theta_hat))
    comp = 0.0
    for group, ms, lam in zip(ctx.groups, ctx.multipliers, lambdas):
        c, force = group._core(theta_hat, lam, group._jac)
        grad = grad + force
        defect = lam * _lambda_dot(lam, ms.alpha, ms.gamma_inv_array, c)
        comp = max(comp, float(np.max(np.abs(defect))))
    return KktResiduals(stationarity=float(np.linalg.norm(grad)), complementary_slackness=comp)


def steady_state_rms(log) -> float:
    """RMS of a TrajectoryLog's tracking error norm over the steady-state
    window [20, 30] s; if the log ends before 20 s the last third of the
    samples is used instead."""
    t, v = log.column("t"), log.column("e_norm")
    mask = (t >= 20.0) & (t <= 30.0)
    if not np.any(mask):
        mask = t >= t[max(0, int(2 * len(t) / 3))]
    return float(math.sqrt(float(np.mean(v[mask] ** 2))))


def min_margin(log) -> float:
    """Smallest logged constraint margin of a TrajectoryLog across all
    groups; +inf if the scenario has no groups."""
    margins = log.block("margin")
    return float(margins.min()) if margins.size else float("inf")
