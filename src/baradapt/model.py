"""Plants that are linear in their unknown parameters, and reference trajectories.

A plant here is xdot = Y(x) theta + u with regressor Y: R^n -> R^(n x p) and
constant true parameter vector theta.  The controller only ever sees Y and an
estimate of theta; the true theta is used by the simulator to integrate the
plant and by tests to synthesize exact data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import _integral

Array = np.ndarray


@dataclass(frozen=True)
class PlantModel:
    """Control-affine plant xdot = Y(x) theta + u.

    regressor must accept a state vector of length dim_state and return an
    array of shape (dim_state, dim_param).  It must be a pure function of x.
    """

    name: str
    dim_state: int
    dim_param: int
    regressor: Callable[[Array], Array] = field(repr=False)
    theta_true: tuple[float, ...]

    def __post_init__(self):
        for key in ("dim_state", "dim_param"):
            object.__setattr__(self, key, _integral(getattr(self, key), key, 1))
        if len(self.theta_true) != self.dim_param:
            raise ValueError(
                f"theta_true has length {len(self.theta_true)}, expected {self.dim_param}"
            )

    @property
    def theta(self) -> Array:
        return np.asarray(self.theta_true, dtype=float)

    def eval_regressor(self, x) -> Array:
        """Evaluate Y(x) with shape checking."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim_state,):
            raise ValueError(f"state has shape {x.shape}, expected ({self.dim_state},)")
        Y = np.asarray(self.regressor(x), dtype=float)
        if Y.shape != (self.dim_state, self.dim_param):
            raise ValueError(
                f"regressor returned shape {Y.shape}, expected "
                f"({self.dim_state}, {self.dim_param})"
            )
        return Y


@dataclass(frozen=True)
class DesiredTrajectory:
    """Reference signal t -> (x_d(t), xdot_d(t)), both length dim.

    The derivative must be the analytic derivative of the position; the
    controller feeds xdot_d straight into the input.
    """

    name: str
    dim: int
    eval: Callable[[float], tuple[Array, Array]] = field(repr=False)


BENCHMARK_THETA = (5.0, 10.0, 15.0, 20.0)


def _benchmark_regressor(x: Array) -> Array:
    # one tolist() and one flat list reshaped: fewer conversions than
    # indexing x and nesting lists, for the same C-ordered (2, 4) array
    x1, x2 = x.tolist()
    return np.array([x1 * x1, math.sin(x2), 0.0, 0.0,
                     0.0, x2 * math.sin(x1), x1, x1 * x2]).reshape(2, 4)


def benchmark_plant(theta_true=BENCHMARK_THETA) -> PlantModel:
    """Two-state, four-parameter nonlinear benchmark plant."""
    return PlantModel(
        name="benchmark",
        dim_state=2,
        dim_param=4,
        regressor=_benchmark_regressor,
        theta_true=tuple(float(v) for v in theta_true),
    )


def zero_regressor_plant(theta_true=(0.0, 0.0, 0.0, 0.0)) -> PlantModel:
    """Plant with Y(x) identically zero, so xdot = u exactly.

    Closed loop with any update law this gives the linear error equation
    edot = -k e in closed form, which anchors integrator-order and
    sanity-decay checks.
    """
    p = len(theta_true)

    def _zero(x: Array) -> Array:
        return np.zeros((2, p))

    return PlantModel(
        name="zero_regressor",
        dim_state=2,
        dim_param=p,
        regressor=_zero,
        theta_true=tuple(float(v) for v in theta_true),
    )


def _benchmark_reference(t: float) -> tuple[Array, Array]:
    # envelope 10(1 - e^(-0.1 t)) with derivative e^(-0.1 t)
    env = 10.0 * (1.0 - math.exp(-0.1 * t))
    denv = math.exp(-0.1 * t)
    s2, c2 = math.sin(2.0 * t), math.cos(2.0 * t)
    s3, c3 = math.sin(3.0 * t), math.cos(3.0 * t)
    x_d = np.array([env * s2, 0.4 * env * c3])
    xdot_d = np.array(
        [denv * s2 + 2.0 * env * c2, 0.4 * denv * c3 - 1.2 * env * s3]
    )
    return x_d, xdot_d


def benchmark_trajectory() -> DesiredTrajectory:
    """Smooth bounded reference used by the bundled scenarios."""
    return DesiredTrajectory(name="benchmark", dim=2, eval=_benchmark_reference)


PLANTS: dict[str, Callable[..., PlantModel]] = {
    "benchmark": benchmark_plant,
    "zero_regressor": zero_regressor_plant,
}

TRAJECTORIES: dict[str, Callable[[], DesiredTrajectory]] = {
    "benchmark": benchmark_trajectory,
}


def get_plant(name: str, theta_true=None) -> PlantModel:
    if name not in PLANTS:
        raise ValueError(f"unknown plant '{name}' (have: {sorted(PLANTS)})")
    if theta_true is None:
        return PLANTS[name]()
    return PLANTS[name](theta_true=tuple(theta_true))


def get_trajectory(name: str) -> DesiredTrajectory:
    if name not in TRAJECTORIES:
        raise ValueError(f"unknown trajectory '{name}' (have: {sorted(TRAJECTORIES)})")
    return TRAJECTORIES[name]()
