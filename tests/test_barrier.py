import math

import numpy as np
import pytest

from baradapt.barrier import (
    BarrierKind,
    ConstraintGroup,
    ConstraintKind,
    component_bounds,
    norm_bounds,
)
from baradapt.errors import InfeasibleEvaluation

LO = [3.0, 6.0, 10.0, 12.0]
HI = [6.0, 12.0, 17.0, 22.0]
TH = np.array([4.5, 8.0, 12.0, 15.0])


def values(group, th):
    """Barrier values at th, through the checked evaluate."""
    return group.evaluate(th, np.zeros(group.n_constraints)).values


def fd_gradients(group, th, h=1e-6):
    G = np.zeros((group.n_constraints, th.size))
    for j in range(th.size):
        up = th.copy()
        up[j] += h
        dn = th.copy()
        dn[j] -= h
        G[:, j] = (values(group, up) - values(group, dn)) / (2.0 * h)
    return G


def test_component_slacks_and_feasibility():
    group = component_bounds(LO, HI)
    s = group._slacks(TH)
    assert np.array_equal(s, [1.5, 2.0, 2.0, 3.0, 1.5, 4.0, 5.0, 7.0])
    ok, margin = group.feasibility(TH)
    assert ok and margin == 1.5
    ok, margin = group.feasibility([3.0, 8.0, 12.0, 15.0])  # exactly on a bound
    assert not ok and margin == 0.0


def test_slacks_are_bitwise_the_bound_differences():
    # s = z @ jac.T + off adds only exact products with 0 and +-1
    rng = np.random.default_rng(5)
    rows = rng.uniform(-30.0, 30.0, size=(200, 4))
    group = component_bounds(LO, HI)
    lo, hi = np.asarray(LO), np.asarray(HI)
    assert np.array_equal(group._slacks(rows), np.hstack([rows - lo, hi - rows]))
    norm = norm_bounds(25.0, 28.0, dim_param=4)
    r = np.sqrt(np.vecdot(rows, rows))[:, None]
    assert np.array_equal(norm._slacks(rows), np.hstack([r - 25.0, 28.0 - r]))


def test_component_inverse_values_and_gradients():
    group = component_bounds(LO, HI, barrier=BarrierKind.INVERSE)
    s = np.array([1.5, 2.0, 2.0, 3.0, 1.5, 4.0, 5.0, 7.0])
    assert np.array_equal(values(group, TH), 1.0 / s)
    # constraint i depends on component i alone; lower rows slope -1/s^2,
    # upper rows +1/s^2
    expected = np.zeros((8, 4))
    for i in range(4):
        expected[i, i] = -1.0 / s[i] ** 2
        expected[4 + i, i] = 1.0 / s[4 + i] ** 2
    assert np.allclose(group.evaluate(TH, np.zeros(8)).gradients, expected, rtol=0, atol=0)


def test_component_log_values_and_gradients():
    group = component_bounds(LO, HI, barrier=BarrierKind.LOG)
    s = np.array([1.5, 2.0, 2.0, 3.0, 1.5, 4.0, 5.0, 7.0])
    assert np.array_equal(values(group, TH), -np.log(s))
    expected = np.zeros((8, 4))
    for i in range(4):
        expected[i, i] = -1.0 / s[i]
        expected[4 + i, i] = 1.0 / s[4 + i]
    assert np.allclose(group.evaluate(TH, np.zeros(8)).gradients, expected, rtol=0, atol=0)


def test_norm_inverse_values_and_gradients():
    group = norm_bounds(25.0, 28.0, dim_param=4)
    th = np.array([4.5, 11.0, 13.5, 21.0])
    r = math.sqrt(764.5)
    s = np.array([r - 25.0, 28.0 - r])
    assert np.allclose(values(group, th), 1.0 / s, rtol=1e-15, atol=0)
    radial = th / r
    expected = np.stack([(-1.0 / s[0] ** 2) * radial, (1.0 / s[1] ** 2) * radial])
    assert np.allclose(group.evaluate(th, np.zeros(2)).gradients, expected, rtol=1e-14, atol=0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    groups = [
        component_bounds(LO, HI, barrier=BarrierKind.INVERSE),
        component_bounds(LO, HI, barrier=BarrierKind.LOG),
        norm_bounds(25.0, 28.0, dim_param=4),
        norm_bounds(25.0, 28.0, dim_param=4, barrier=BarrierKind.LOG, norm_log_ok=True),
    ]
    for group in groups:
        for _ in range(25):
            if group.kind is ConstraintKind.COMPONENT:
                th = rng.uniform(np.asarray(LO) + 0.2, np.asarray(HI) - 0.2)
            else:
                direction = rng.normal(size=4)
                direction /= np.linalg.norm(direction)
                th = direction * rng.uniform(25.2, 27.8)
            analytic = group.evaluate(th, np.zeros(group.n_constraints)).gradients
            numeric = fd_gradients(group, th)
            denom = np.maximum(np.abs(analytic), np.abs(numeric))
            rel = np.where(denom > 0, np.abs(analytic - numeric) / np.maximum(denom, 1e-300), 0.0)
            assert rel.max() < 1e-5


def test_infeasible_evaluation_raises_with_margin():
    group = component_bounds(LO, HI)
    bad = np.array([2.0, 8.0, 12.0, 15.0])  # below the first lower bound
    with pytest.raises(InfeasibleEvaluation) as err:
        group.evaluate(bad, np.zeros(8))
    assert err.value.margin == -1.0
    with pytest.raises(InfeasibleEvaluation) as err:
        group._core(bad, 0.0, group._jac)
    assert err.value.margin == -1.0


def test_boundary_point_is_infeasible():
    group = norm_bounds(25.0, 28.0, dim_param=4)
    th = np.array([28.0, 0.0, 0.0, 0.0])  # exactly on the upper sphere
    with pytest.raises(InfeasibleEvaluation):
        group.evaluate(th, np.zeros(2))


def test_norm_gradient_singular_at_origin():
    # the radial direction is undefined there, but the origin lies inside the
    # lower sphere: its slack -lower decides infeasibility before th / r is formed
    group = norm_bounds(25.0, 28.0, dim_param=4)
    with pytest.raises(InfeasibleEvaluation) as err:
        group.evaluate(np.zeros(4), np.zeros(2))
    assert err.value.margin == -25.0


def test_norm_log_requires_opt_in():
    with pytest.raises(ValueError):
        norm_bounds(25.0, 28.0, dim_param=4, barrier=BarrierKind.LOG)
    group = norm_bounds(25.0, 28.0, dim_param=4, barrier=BarrierKind.LOG,
                        norm_log_ok=True)
    assert group.barrier is BarrierKind.LOG


def test_evaluate_consistency():
    rng = np.random.default_rng(5)
    group = component_bounds(LO, HI)
    th = rng.uniform(np.asarray(LO) + 0.3, np.asarray(HI) - 0.3)
    lam = rng.uniform(0.0, 4.0, size=8)
    ev = group.evaluate(th, lam)
    assert np.array_equal(ev.values, values(group, th))
    assert np.allclose(ev.weighted_gradient, ev.gradients.T @ lam,
                       rtol=1e-15, atol=0)
    # one weighting, as the run's kernel passes it, gives evaluate's weighted row bitwise
    assert np.array_equal(group._core(th, lam, group._jac)[1], ev.weighted_gradient)


def test_checked_calls_reject_a_misshapen_theta_hat():
    group = norm_bounds(25.0, 28.0, dim_param=4)
    for th in (TH[:3], TH[None]):
        with pytest.raises(ValueError, match=r"^theta_hat has shape \(.*\), expected \(4,\)$"):
            group.evaluate(th, np.zeros(2))


def test_weighted_gradient_rejects_bad_multipliers():
    group = component_bounds(LO, HI)
    with pytest.raises(ValueError, match=r"^multiplier has shape \(7,\), expected \(8,\)$"):
        group.evaluate(TH, np.ones(7))
    with pytest.raises(ValueError, match="^multipliers must be non-negative$"):
        group.evaluate(TH, -np.ones(8))


def test_constructor_validation():
    with pytest.raises(ValueError):
        component_bounds([1.0, 2.0], [2.0, 2.0])  # lower == upper
    with pytest.raises(ValueError):
        norm_bounds(0.0, 28.0, dim_param=4)  # lower must be positive
    with pytest.raises(ValueError):
        norm_bounds(28.0, 25.0, dim_param=4)
    with pytest.raises(ValueError, match="^upper must be finite$"):
        norm_bounds(25.0, math.inf, dim_param=4)
    # a bool is no bound, as on the JSON path
    with pytest.raises(ValueError, match=r"^lower must be numbers, got True$"):
        norm_bounds(True, 28.0, 4)
    with pytest.raises(ValueError, match=r"^upper must be numbers, got \[6\.0, True"):
        component_bounds(LO, [6.0, True, 17.0, 22.0])
    with pytest.raises(ValueError, match="finite"):
        component_bounds(LO, HI[:3] + [math.inf])
    with pytest.raises(ValueError, match="finite"):
        component_bounds([-math.inf] + LO[1:], HI)
    with pytest.raises(ValueError):
        ConstraintGroup(kind="component", barrier="inverse",
                        lower=(0.0,), upper=(1.0,), dim_param=2)


def test_dim_param_must_be_integral():
    bounds = {"component": ((0.0, 0.0), (1.0, 1.0)), "norm": (1.0, 2.0)}
    for kind, (lower, upper) in bounds.items():
        for bad in (2.5, math.nan, math.inf, True):
            with pytest.raises(ValueError, match=r"^dim_param must be an integer, got"):
                ConstraintGroup(kind=kind, barrier="inverse", lower=lower, upper=upper,
                                dim_param=bad)
        group = ConstraintGroup(kind=kind, barrier="inverse", lower=lower, upper=upper,
                                dim_param=2.0)
        assert type(group.dim_param) is int and group.dim_param == 2
        assert group.feasibility([0.5, 0.9]).feasible


def test_constraint_ordering_lower_block_first():
    group = component_bounds(LO, HI)
    th = np.array([3.1, 8.0, 12.0, 15.0])
    s = group._slacks(th)
    # index 0 is the first lower constraint, index 4 the first upper
    assert s[0] == pytest.approx(0.1)
    assert s[4] == pytest.approx(2.9)
