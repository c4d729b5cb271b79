import math

import numpy as np
import pytest

from baradapt.model import (
    BENCHMARK_THETA,
    PlantModel,
    benchmark_plant,
    benchmark_trajectory,
    get_plant,
    get_trajectory,
    zero_regressor_plant,
)


def test_benchmark_regressor_values():
    # hand evaluation of Y at x = [10, 5]
    plant = benchmark_plant()
    Y = plant.eval_regressor([10.0, 5.0])
    expected = np.array(
        [
            [100.0, math.sin(5.0), 0.0, 0.0],
            [0.0, 5.0 * math.sin(10.0), 10.0, 50.0],
        ]
    )
    assert np.array_equal(Y, expected)


def test_benchmark_theta():
    plant = benchmark_plant()
    assert plant.theta_true == (5.0, 10.0, 15.0, 20.0)
    assert np.array_equal(plant.theta, np.asarray(BENCHMARK_THETA))


def test_plant_derivative_hand_value():
    plant = benchmark_plant()
    x = np.array([1.0, 2.0])
    u = np.array([-1.0, 3.0])
    Y = np.array(
        [
            [1.0, math.sin(2.0), 0.0, 0.0],
            [0.0, 2.0 * math.sin(1.0), 1.0, 2.0],
        ]
    )
    expected = Y @ np.array([5.0, 10.0, 15.0, 20.0]) + u
    assert np.allclose(plant.eval_regressor(x) @ plant.theta + u, expected, rtol=0, atol=0)


def test_plant_parametrized_theta():
    plant = benchmark_plant(theta_true=(1.0, 2.0, 3.0, 4.0))
    assert plant.theta_true == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        benchmark_plant(theta_true=(1.0, 2.0))


def test_plant_shape_checks():
    plant = benchmark_plant()
    with pytest.raises(ValueError):
        plant.eval_regressor([1.0, 2.0, 3.0])


def test_plant_dimensions_must_be_positive_integers():
    def make(dim_state=2, dim_param=4):
        return PlantModel(name="p", dim_state=dim_state, dim_param=dim_param,
                          regressor=lambda x: np.zeros((2, 4)), theta_true=(0.0,) * 4)

    for bad in (2.5, True, math.nan, math.inf):
        with pytest.raises(ValueError, match="^dim_state must be an integer, got"):
            make(dim_state=bad)
        with pytest.raises(ValueError, match="^dim_param must be an integer, got"):
            make(dim_param=bad)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="^dim_state must be positive$"):
            make(dim_state=bad)
    plant = make(dim_state=2.0, dim_param=4.0)
    assert (plant.dim_state, plant.dim_param) == (2, 4)
    assert type(plant.dim_state) is int and type(plant.dim_param) is int


def test_zero_regressor_plant():
    plant = zero_regressor_plant()
    x = np.array([3.0, -4.0])
    u = np.array([0.5, -0.5])
    assert np.array_equal(plant.eval_regressor(x), np.zeros((2, 4)))
    # with Y = 0 the plant reduces to xdot = u
    assert np.array_equal(plant.eval_regressor(x) @ plant.theta + u, u)


def test_trajectory_initial_values():
    traj = benchmark_trajectory()
    x_d, xdot_d = traj.eval(0.0)
    # envelope vanishes at t = 0, its derivative is 1
    assert np.array_equal(x_d, np.zeros(2))
    assert np.allclose(xdot_d, [0.0, 0.4], rtol=0, atol=1e-15)


def test_trajectory_derivative_matches_finite_difference():
    traj = benchmark_trajectory()
    h = 1e-6
    for t in np.linspace(0.1, 30.0, 37):
        xp, _ = traj.eval(t + h)
        xm, _ = traj.eval(t - h)
        fd = (xp - xm) / (2 * h)
        _, xdot = traj.eval(t)
        assert np.allclose(xdot, fd, rtol=1e-6, atol=1e-7)


def test_trajectory_bounded_envelope():
    traj = benchmark_trajectory()
    for t in np.linspace(0.0, 100.0, 401):
        x_d, _ = traj.eval(float(t))
        assert np.all(np.abs(x_d) <= 10.0)


def test_registry_lookup():
    assert get_plant("benchmark").name == "benchmark"
    assert get_plant("zero_regressor").dim_param == 4
    assert get_trajectory("benchmark").dim == 2
    with pytest.raises(ValueError):
        get_plant("no_such_plant")
    with pytest.raises(ValueError):
        get_trajectory("no_such_trajectory")


def test_registry_theta_override():
    plant = get_plant("benchmark", theta_true=[1, 1, 1, 1])
    assert plant.theta_true == (1.0, 1.0, 1.0, 1.0)
