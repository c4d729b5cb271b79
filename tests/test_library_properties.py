"""Property tests of the library's building blocks: barrier gradients agree
with finite differences, the projection never lets a multiplier at zero
flow negative, and history-stack insertion never lowers the excitation
level."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from baradapt.adaptation import _lambda_dot, projection  # noqa: E402
from baradapt.barrier import BarrierKind, component_bounds, norm_bounds  # noqa: E402
from baradapt.history import HistoryStack  # noqa: E402

# the component box of sec5a and the norm annulus of sec5b
LO = np.array([3.0, 6.0, 10.0, 12.0])
HI = np.array([6.0, 12.0, 17.0, 22.0])
R_LO, R_HI = 25.0, 28.0
GROUPS = {
    ("component", "inverse"): component_bounds(LO, HI, BarrierKind.INVERSE),
    ("component", "log"): component_bounds(LO, HI, BarrierKind.LOG),
    ("norm", "inverse"): norm_bounds(R_LO, R_HI, 4, BarrierKind.INVERSE),
    ("norm", "log"): norm_bounds(R_LO, R_HI, 4, BarrierKind.LOG, norm_log_ok=True),
}

fractions = st.lists(st.floats(0.05, 0.95), min_size=4, max_size=4)
directions = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1)


@st.composite
def interior_points(draw):
    """A group and a point inside it, at least 5% of the box or annulus
    width away from every bound: the central difference divides the
    round-off of a slack such as r - 25 by 2h, and that error grows as
    1/slack^2 near a bound."""
    key = draw(st.sampled_from(sorted(GROUPS)))
    if key[0] == "component":
        th = LO + np.array(draw(fractions)) * (HI - LO)
    else:
        d = np.array(draw(directions))
        th = d / np.linalg.norm(d) * (R_LO + draw(st.floats(0.05, 0.95)) * (R_HI - R_LO))
    return GROUPS[key], th


@settings(max_examples=200, derandomize=True, deadline=None)
@given(interior_points())
def test_barrier_gradients_match_central_differences(case):
    group, th = case
    h = 1e-6
    lam0 = np.zeros(group.n_constraints)
    fd = np.empty((group.n_constraints, th.size))
    for j in range(th.size):
        step = np.zeros(th.size)
        step[j] = h
        fd[:, j] = (group.evaluate(th + step, lam0).values
                    - group.evaluate(th - step, lam0).values) / (2.0 * h)
    rows = group.evaluate(th, lam0).gradients
    np.testing.assert_allclose(rows, fd, rtol=1e-5, atol=1e-6)


finite = st.floats(-1e6, 1e6)
# non-negative entries, with exact zeros drawn as often as positive values
bases = st.one_of(st.just(0.0), st.floats(0.0, 1e6))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(finite, min_size=n, max_size=n), st.lists(bases, min_size=n, max_size=n),
    st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
    st.floats(1e-3, 1e3))))
def test_projection_keeps_multipliers_at_zero_nonnegative(case):
    a, b, gamma_inv, alpha = (np.array(v) for v in case)
    at_zero = b == 0.0
    got = projection(a, b)
    assert np.all(got[at_zero] >= 0.0)
    assert np.array_equal(got[~at_zero], a[~at_zero])

    flow = _lambda_dot(b, float(alpha), gamma_inv, a)
    assert np.all(flow[at_zero] >= 0.0)
    free = -alpha * b + gamma_inv * a
    assert np.array_equal(flow[~at_zero], free[~at_zero])


regressors = st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8).map(
    lambda v: np.reshape(v, (2, 4)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.lists(regressors, min_size=1, max_size=12))
# both grams here are rank-deficient: their smallest eigenvalue is round-off
@example(2, [np.array([[0.0, 1.5, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]),
             np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])])
def test_excitation_level_never_falls(capacity, candidates):
    stack = HistoryStack(2, 4, capacity=capacity, min_eig_threshold=1e-3)
    level = stack.excitation_level()
    assert level == 0.0
    zeros = np.zeros(2)
    for Y in candidates:
        stack.try_insert(Y, zeros, zeros)
        new = stack.excitation_level()
        assert new >= level
        level = new
