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
is not yet exciting.  theta_hat_dot is -P times the theta_hat-gradient of
the Lagrangian e^T Y theta_tilde + 1/2 theta_tilde^T K_cl (sum_k Y_k^T Y_k)
theta_tilde + sum_j lambda_j^T c_j(theta_hat), so the flow is a primal-dual
pair.  _flow_terms writes it in reduced form: the memory term is
b - A theta_hat, with A = diag(P K_cl) gram and b = P K_cl proj formed once
per stack change (_memory_terms), and each force multiplies the barrier
slopes by a slack Jacobian with P folded in (ConstraintGroup._core).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import _integral, _real, _vector

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
        lam = _vector(self.lam, np.size(self.lam), "multipliers", "non-negative")
        gi = _vector(self.gamma_inv, np.size(self.gamma_inv), "gamma_inv entries", "positive")
        if len(lam) != len(gi):
            raise ValueError("lam and gamma_inv must have the same length")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma_inv", gi)
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", "positive"))

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
            raise ValueError(f"unknown law '{self.law}' "
                             f"(choose from {[v.value for v in UpdateLaw]})") from None
        object.__setattr__(self, "sigma2", _real(self.sigma2, "sigma2", "non-negative"))
        object.__setattr__(self, "dim_param", _integral(self.dim_param, "dim_param", 1))
        object.__setattr__(self, "law", law)
        for key in ("learning_rate", "k_cl"):
            object.__setattr__(self, key, _vector(getattr(self, key), self.dim_param, key,
                                                  "positive"))

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


def _lambda_dot(lam: Array, alpha, gamma_inv: Array, c_values: Array,
                out: Array | None = None, positive: bool = False) -> Array:
    """Multiplier flow proj(-alpha lam + Gamma^{-1} c, lam), unchecked: lam
    must be non-negative.  A run passes alpha as a 0-d array, which a
    ufunc takes faster than a float, to the same bits.  Gamma^{-1} c -
    alpha lam is bitwise -alpha lam + Gamma^{-1} c, one negation fewer.
    The run's stage passes out, a block of its output row, to write the
    flow into; it is returned.  It also passes positive=True when it has
    found min(lam.tolist()) > 0.0, which proves that no entry is 0.0."""
    a = np.subtract(gamma_inv * c_values, alpha * lam, out=out)
    # the projection passes a through when no multiplier is at 0; a list
    # test is several times cheaper than lam.all() on a few entries
    if not positive and 0.0 in lam.tolist():
        a[...] = _project(a, lam)
    return a


def _control(xdot_d: Array, Y: Array, theta_hat: Array, k: Array, e: Array) -> Array:
    """Certainty-equivalence input xdot_d - Y theta_hat - k e, unchecked."""
    return xdot_d - Y.dot(theta_hat) - k * e


def _memory_terms(P: Array, k_cl: Array, stack) -> tuple[Array, Array] | None:
    """(A, b) = (diag(P K_cl) gram, P K_cl proj), so that the memory term
    P K_cl sum_k Y_k^T (xdot_hat_k - u_k - Y_k th) is b - A th; None for
    a missing or empty stack.  A run forms them once per stack change."""
    if stack is None or len(stack) == 0:
        return None
    return (P * k_cl)[:, None] * stack.gram, P * k_cl * stack._proj


def _flow_terms(P: Array, sigma2):
    """The estimate law with its gains bound: flow(law, memory, e, Y, th) is
    theta_hat_dot before the constraint forces, from arrays of matching
    shapes, unchecked.  sigma2 is a float or, in a run, a 0-d array.
    memory is _memory_terms' (A, b) or None.  The caller subtracts each
    group's P-scaled multiplier-weighted barrier gradient from the result.
    Conditional terms are skipped, not added as zeros, so degenerate
    configurations reduce bitwise to simpler laws (sigma2 = 0 leaves no law
    a sigma-mod term).  e.dot(Y) is the product Y^T e, with no transpose."""
    sigma_law = UpdateLaw.BARRIER_SIGMA_MOD if sigma2 else None

    def flow(law: UpdateLaw, memory, e: Array, Y: Array, th: Array) -> Array:
        out = P * e.dot(Y)
        if memory is not None and law in LAWS_WITH_MEMORY:
            A, b = memory
            out = out + (b - A.dot(th))
        if law is sigma_law:
            out = out - sigma2 * th
        return out

    return flow


def theta_hat_dot(cfg: UpdateLawConfig, e, Y, stack, groups, lambdas, theta_hat) -> Array:
    """Estimate flow for the configured law.

    groups / lambdas are parallel sequences of ConstraintGroup and
    MultiplierState; both may be empty for unconstrained laws.
    """
    e = np.asarray(e, dtype=float)
    Y = np.asarray(Y, dtype=float)
    th = np.asarray(theta_hat, dtype=float)
    P = cfg.learning_rate_array
    out = _flow_terms(P, cfg.sigma2)(cfg.law, _memory_terms(P, cfg.k_cl_array, stack), e, Y, th)
    if cfg.law in LAWS_WITH_BARRIER:
        for g, ms in zip(groups, lambdas):
            out = out - g._core(g._check_theta(th), g._check_lam(ms.lam_array), P * g._jac)[1]
    return out

