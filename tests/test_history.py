import math

import numpy as np
import pytest

from baradapt.history import HistoryStack, _central_difference, fill_with_exact_model_data
from baradapt.model import benchmark_plant, benchmark_trajectory


def test_derivative_exact_for_quadratics():
    # the central difference is exact for polynomials up to degree 2
    t = np.array([0.0, 0.1, 0.2])
    states = np.stack([3.0 * t_**2 - 2.0 * t_ + np.array([1.0, -1.0]) for t_ in t])
    got = _central_difference(states[0], states[2], t[0], t[2])
    expected = 6.0 * 0.1 - 2.0
    assert np.allclose(got, [expected, expected], rtol=1e-12, atol=1e-12)


def test_derivative_five_point_window_uses_midpoint():
    t = np.linspace(0.0, 0.4, 5)
    states = np.sin(t)[:, None]
    got = _central_difference(states[1], states[3], t[1], t[3])
    expected = (np.sin(t[3]) - np.sin(t[1])) / (t[3] - t[1])
    assert got[0] == pytest.approx(expected, rel=1e-15)
    # it estimates the derivative at the midpoint t[2], within h^2/6 max|x'''|
    assert got[0] == pytest.approx(np.cos(t[2]), abs=0.1**2 / 6)


def test_append_until_capacity():
    stack = HistoryStack(2, 4, capacity=3, min_eig_threshold=1e-3)
    Y = np.eye(2, 4)
    assert len(stack) == 0
    for k in range(3):
        assert stack.try_insert(Y, np.zeros(2), np.zeros(2))
        assert len(stack) == k + 1


def test_gram_and_cl_term_recomputed_from_entries():
    rng = np.random.default_rng(2)
    stack = HistoryStack(2, 4, capacity=10, min_eig_threshold=1e-3)
    for _ in range(7):
        stack.try_insert(rng.normal(size=(2, 4)), rng.normal(size=2),
                         rng.normal(size=2))
    gram = np.zeros((4, 4))
    for ent in stack.entries:
        gram += ent.Y.T @ ent.Y
    assert np.allclose(stack.gram, gram, rtol=1e-14, atol=1e-14)
    th = rng.normal(size=4)
    cl = np.zeros(4)
    for ent in stack.entries:
        cl += ent.Y.T @ (ent.xdot_hat - ent.u - ent.Y @ th)
    assert np.allclose(stack.cl_term(th), cl, rtol=1e-12, atol=1e-12)


def test_cached_sums_equal_an_entry_loop_through_swaps():
    # the stacked per-entry terms are summed in entry order, so the cached
    # gram and projection equal a loop over the entries exactly
    rng = np.random.default_rng(31)
    stack = HistoryStack(2, 4, capacity=4, min_eig_threshold=1e-3)
    changes = 0
    for _ in range(60):
        changes += stack.try_insert(rng.normal(size=(2, 4)), rng.normal(size=2),
                                    rng.normal(size=2))
        gram, proj = np.zeros((4, 4)), np.zeros(4)
        for ent in stack.entries:
            gram += ent.Y.T @ ent.Y
            proj += ent.Y.T @ (ent.xdot_hat - ent.u)
        assert np.array_equal(stack.gram, gram)
        assert np.array_equal(stack._proj, proj)
    assert changes > stack.capacity  # some candidates were swapped in


def test_cl_term_empty_stack_is_zero():
    stack = HistoryStack(2, 4, capacity=20, min_eig_threshold=1e-3)
    assert np.array_equal(stack.cl_term(np.ones(4)), np.zeros(4))
    assert stack.excitation_level() == 0.0
    assert not stack.assumption_met


def test_swap_accepts_only_improvements():
    stack = HistoryStack(2, 2, capacity=2, min_eig_threshold=1e-3)
    # two aligned entries leave the second direction unexcited
    weak = np.array([[1.0, 0.0], [0.0, 0.0]])
    stack.try_insert(weak, np.zeros(2), np.zeros(2))
    stack.try_insert(weak, np.zeros(2), np.zeros(2))
    assert stack.excitation_level() == 0.0
    # an orthogonal candidate fills the gap and must be accepted
    strong = np.array([[0.0, 1.0], [1.0, 0.0]])
    before = stack.excitation_level()
    assert stack.try_insert(strong, np.zeros(2), np.zeros(2))
    assert stack.excitation_level() > before
    # re-offering the weak entry cannot improve and must be refused
    level = stack.excitation_level()
    assert not stack.try_insert(weak, np.zeros(2), np.zeros(2))
    assert stack.excitation_level() == level


def test_excitation_never_decreases_under_random_inserts():
    rng = np.random.default_rng(23)
    stack = HistoryStack(2, 4, capacity=5, min_eig_threshold=1e-3)
    prev = stack.excitation_level()
    for _ in range(300):
        scale = rng.choice([0.01, 1.0, 10.0])
        stack.try_insert(scale * rng.normal(size=(2, 4)), rng.normal(size=2),
                         rng.normal(size=2))
        level = stack.excitation_level()
        assert level >= prev
        prev = level


def test_assumption_threshold():
    stack = HistoryStack(2, 2, capacity=4, min_eig_threshold=0.5)
    stack.try_insert(0.1 * np.eye(2), np.zeros(2), np.zeros(2))
    assert stack.excitation_level() > 0.0
    assert not stack.assumption_met
    stack.try_insert(np.eye(2), np.zeros(2), np.zeros(2))
    assert stack.assumption_met


def test_entry_validation():
    stack = HistoryStack(2, 4, capacity=2, min_eig_threshold=1e-3)
    with pytest.raises(ValueError):
        stack.try_insert(np.zeros((3, 4)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        stack.try_insert(np.zeros((2, 4)), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        stack.try_insert(np.full((2, 4), np.nan), np.zeros(2), np.zeros(2))
    assert len(stack) == 0


def test_constructor_rejects_fractional_capacity_and_nan_threshold():
    for capacity in (2.5, -1, math.nan, math.inf, True, "2"):
        with pytest.raises(ValueError, match="^capacity must be a non-negative integer"):
            HistoryStack(2, 4, capacity=capacity, min_eig_threshold=1e-3)
    # StackConfig rejects an infinite min_excitation, so the stack does too
    for threshold in (math.nan, -1e-3, math.inf):
        with pytest.raises(ValueError, match="^min_eig_threshold must be non-negative"):
            HistoryStack(2, 4, capacity=2, min_eig_threshold=threshold)
    stack = HistoryStack(2, 4, capacity=2.0, min_eig_threshold=0)
    assert stack.capacity == 2 and type(stack.capacity) is int


def test_constructor_rejects_non_integral_dimensions():
    for bad in (2.7, math.nan, math.inf, True):
        with pytest.raises(ValueError, match=r"^dim_state must be an integer, got"):
            HistoryStack(bad, 4, capacity=2, min_eig_threshold=1e-3)
        with pytest.raises(ValueError, match=r"^dim_param must be an integer, got"):
            HistoryStack(2, bad, capacity=2, min_eig_threshold=1e-3)
    stack = HistoryStack(2.0, 4.0, capacity=2, min_eig_threshold=1e-3)
    assert (stack.dim_state, stack.dim_param) == (2, 4)
    assert type(stack.dim_state) is int and type(stack.dim_param) is int


def test_zero_capacity_accepts_nothing():
    stack = HistoryStack(2, 4, capacity=0, min_eig_threshold=1e-3)
    assert not stack.try_insert(np.ones((2, 4)), np.zeros(2), np.zeros(2))
    assert len(stack) == 0


def test_fill_with_exact_model_data_consistency():
    plant = benchmark_plant()
    traj = benchmark_trajectory()
    stack = HistoryStack(2, 4, capacity=20, min_eig_threshold=1e-3)
    states = [traj.eval(float(t))[0] for t in np.linspace(1.0, 30.0, 20)]
    accepted = fill_with_exact_model_data(stack, plant, states)
    assert accepted == 20
    assert len(stack) == 20
    # perfect data implies a vanishing residual at the true parameters
    assert np.abs(stack.cl_term(plant.theta)).max() < 1e-9
    assert stack.excitation_level() > 0.0

