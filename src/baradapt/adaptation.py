"""Parameter update laws and the constrained primal-dual machinery.

The estimate theta_hat and the multipliers lambda_j evolve as one coupled
system:

    theta_hat_dot = P Y^T e                         (gradient term)
                  + P K_cl sum_k Y_k^T (xdot_hat_k - u_k - Y_k theta_hat)
                  - sum_j P diag(lambda_j) grad c_j  (constraint force)

    lambda_dot_j  = proj(-alpha lambda_j + Gamma_j^{-1} c_j, lambda_j)

where proj(a, b) passes a through where b > 0 and clips a at 0 where b = 0,
so multipliers can never flow negative.  The sigma-mod variant replaces the
recorded-data term with -sigma2 * theta_hat for use while the history stack
is not yet exciting.  theta_hat_dot equals -P times the gradient of the
Lagrangian assembled in lagrangian_value, which is what makes the flow a
primal-dual pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class UpdateLaw(str, enum.Enum):
    GRADIENT = "gradient"
    CONCURRENT_LEARNING = "concurrent_learning"
    BARRIER_CONSTRAINED = "barrier_constrained"
    BARRIER_SIGMA_MOD = "barrier_sigma_mod"


#: laws whose theta_hat_dot includes the recorded-data (history stack) term
LAWS_WITH_MEMORY = (UpdateLaw.CONCURRENT_LEARNING, UpdateLaw.BARRIER_CONSTRAINED)
#: laws whose theta_hat_dot includes the constraint force
LAWS_WITH_BARRIER = (UpdateLaw.BARRIER_CONSTRAINED, UpdateLaw.BARRIER_SIGMA_MOD)


@dataclass(frozen=True)
class MultiplierState:
    """Multiplier vector for one constraint group plus its flow constants.

    gamma_inv holds the diagonal of the positive-definite gain matrix
    Gamma^{-1}; alpha > 0 is the decay rate.
    """

    lam: tuple[float, ...]
    gamma_inv: tuple[float, ...]
    alpha: float

    def __post_init__(self):
        lam = tuple(float(v) for v in np.atleast_1d(self.lam))
        gi = tuple(float(v) for v in np.atleast_1d(self.gamma_inv))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma_inv", gi)
        if len(lam) != len(gi):
            raise ValueError("lam and gamma_inv must have the same length")
        if any(v < 0.0 for v in lam):
            raise ValueError("multipliers must be non-negative")
        if any(v <= 0.0 for v in gi):
            raise ValueError("gamma_inv entries must be positive")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")

    @property
    def n_constraints(self) -> int:
        return len(self.lam)

    @property
    def lam_array(self) -> Array:
        return np.asarray(self.lam, dtype=float)

    @property
    def gamma_inv_array(self) -> Array:
        return np.asarray(self.gamma_inv, dtype=float)

    @property
    def gamma_array(self) -> Array:
        """Diagonal of Gamma itself, used by the Lyapunov function."""
        return 1.0 / self.gamma_inv_array


def _diagonal(value, p: int, key: str) -> tuple[float, ...]:
    """A positive finite gain diagonal of length p; a scalar fills it."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(p, arr[0])
    if arr.shape != (p,):
        raise ValueError(f"{key} must be a scalar or a vector of length {p}")
    if not (np.all(arr > 0.0) and np.isfinite(arr).all()):
        raise ValueError(f"{key} entries must be positive and finite")
    return tuple(arr.tolist())


@dataclass(frozen=True)
class UpdateLawConfig:
    """Gains of the update law.  learning_rate and k_cl are the diagonals of
    P and K_cl; scalars are promoted to uniform diagonals of length
    dim_param."""

    law: UpdateLaw
    dim_param: int
    learning_rate: tuple[float, ...]
    k_cl: tuple[float, ...] = 1.0
    sigma2: float = 0.0

    def __post_init__(self):
        try:
            law = UpdateLaw(self.law)
        except ValueError:
            raise ValueError(f"law must be one of {[v.value for v in UpdateLaw]}, "
                             f"got '{self.law}'") from None
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be non-negative")
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "learning_rate",
                           _diagonal(self.learning_rate, self.dim_param, "learning_rate"))
        object.__setattr__(self, "k_cl", _diagonal(self.k_cl, self.dim_param, "k_cl"))
        object.__setattr__(self, "sigma2", float(self.sigma2))

    @property
    def learning_rate_array(self) -> Array:
        return np.asarray(self.learning_rate, dtype=float)

    @property
    def k_cl_array(self) -> Array:
        return np.asarray(self.k_cl, dtype=float)


def projection(a, b) -> Array:
    """Positive projection keeping the flow of b away from negative values:
    entries of a pass through where b > 0 and are clipped below at 0 where
    b = 0.  b must be non-negative."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if np.any(b < 0.0):
        raise ValueError("projection base must be non-negative")
    return _project(a, b)


def _project(a: Array, b: Array) -> Array:
    return np.where(b > 0.0, a, np.maximum(a, 0.0))


def _lambda_dot(lam: Array, alpha: float, gamma_inv: Array, c_values: Array) -> Array:
    """Multiplier flow, unchecked: lam must be non-negative."""
    a = -alpha * lam + gamma_inv * c_values
    # the projection passes a through when no multiplier is at 0
    return a if lam.all() else _project(a, lam)


def lambda_dot(ms: MultiplierState, c_values) -> Array:
    """Multiplier flow proj(-alpha lam + Gamma^{-1} c, lam)."""
    c = np.asarray(c_values, dtype=float)
    if c.shape != (ms.n_constraints,):
        raise ValueError(
            f"constraint values have shape {c.shape}, expected ({ms.n_constraints},)"
        )
    return _lambda_dot(ms.lam_array, ms.alpha, ms.gamma_inv_array, c)


def _control(xdot_d: Array, Y: Array, theta_hat: Array, k: Array, e: Array) -> Array:
    """Certainty-equivalence input xdot_d - Y theta_hat - k e, unchecked."""
    return xdot_d - Y @ theta_hat - k * e


def _estimate_flow(law: UpdateLaw, P: Array, k_cl: Array, sigma2: float, e: Array,
                   Y: Array, th: Array, stack, forces) -> Array:
    """theta_hat_dot from arrays of matching shapes, unchecked.  forces are
    the groups' multiplier-weighted barrier gradients, empty when the law
    has no constraint force.  Conditional terms are skipped, not added as
    zeros, so degenerate configurations reduce bitwise to simpler laws."""
    out = P * (Y.T @ e)
    if law in LAWS_WITH_MEMORY and stack is not None and len(stack) > 0:
        out = out + P * (k_cl * stack._cl_term(th))
    if law is UpdateLaw.BARRIER_SIGMA_MOD and sigma2 != 0.0:
        out = out - sigma2 * th
    for force in forces:
        out = out - P * force
    return out


def theta_hat_dot(cfg: UpdateLawConfig, e, Y, stack, groups, lambdas, theta_hat) -> Array:
    """Estimate flow for the configured law.

    groups / lambdas are parallel sequences of ConstraintGroup and
    MultiplierState; both may be empty for unconstrained laws.
    """
    e = np.asarray(e, dtype=float)
    Y = np.asarray(Y, dtype=float)
    th = np.asarray(theta_hat, dtype=float)
    forces = ()
    if cfg.law in LAWS_WITH_BARRIER and groups:
        forces = [group.weighted_gradient_sum(th, ms.lam_array)
                  for group, ms in zip(groups, lambdas)]
    return _estimate_flow(cfg.law, cfg.learning_rate_array, cfg.k_cl_array,
                          cfg.sigma2, e, Y, th, stack, forces)


def lagrangian_value(cfg: UpdateLawConfig, e, Y, stack, groups, lambdas,
                     theta_hat, theta_true) -> float:
    """Instantaneous Lagrangian e^T Y theta_tilde
    + 1/2 theta_tilde^T K_cl (sum_k Y_k^T Y_k) theta_tilde
    + sum_j lambda_j^T c_j(theta_hat)."""
    e = np.asarray(e, dtype=float)
    Y = np.asarray(Y, dtype=float)
    th = np.asarray(theta_hat, dtype=float)
    tilde = np.asarray(theta_true, dtype=float) - th
    val = float(e @ (Y @ tilde))
    if stack is not None and len(stack) > 0:
        val += 0.5 * float(tilde @ (cfg.k_cl_array * (stack.gram @ tilde)))
    for group, ms in zip(groups, lambdas):
        val += float(ms.lam_array @ group.values(th))
    return val


def lagrangian_gradient(cfg: UpdateLawConfig, e, Y, stack, groups, lambdas,
                        theta_hat, theta_true) -> Array:
    """Gradient of the Lagrangian in theta_hat; theta_hat_dot for the
    constrained law is -P times this.  The memory term is K_cl gram
    theta_tilde, which for scalar K_cl is exactly the derivative of the
    quadratic in lagrangian_value."""
    e = np.asarray(e, dtype=float)
    Y = np.asarray(Y, dtype=float)
    th = np.asarray(theta_hat, dtype=float)
    tilde = np.asarray(theta_true, dtype=float) - th
    grad = -(Y.T @ e)
    if stack is not None and len(stack) > 0:
        grad = grad - cfg.k_cl_array * (stack.gram @ tilde)
    for group, ms in zip(groups, lambdas):
        grad = grad + group.weighted_gradient_sum(th, ms.lam_array)
    return grad
