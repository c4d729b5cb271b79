"""The dispatch contract that the step path's byte identity rests on.

The step path (sim._attempt down to ConstraintGroup._core and
HistoryStack.try_insert) takes every small product through the ndarray
method a.dot(b) and every scalar that meets an array as a 0-d ndarray:
both are numpy's cheaper entry points.  The method reaches the C routine
behind np.dot without the __array_function__ dispatch that np.dot pays.
They must give bitwise what np.dot, `@` and a Python float give, or a numpy
or BLAS upgrade would move every output silently.  These tests pin that on
each product shape the step path takes, with operands laid out as the
kernel lays them out (transposed views, slices of the flat state, C- and
F-ordered regressors)."""

import itertools
import math
import operator

import numpy as np
import pytest

from baradapt.adaptation import _lambda_dot
from baradapt.barrier import component_bounds, norm_bounds

CASES = 200


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def assert_dot_is_matmul(a, b):
    assert np.shape(np.dot(a, b)) == np.shape(a @ b)
    assert bits(np.dot(a, b)) == bits(a @ b)


def draw(rng, *shape):
    """Normal entries spread over twelve decades, so that products round."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)


@pytest.mark.parametrize("n,p", [(2, 4), (3, 6)])
def test_dot_matches_matmul_on_the_kernel_products(n, p):
    rng = np.random.default_rng(n * 100 + p)
    component, norm = component_bounds([-1e9] * p, [1e9] * p), norm_bounds(1.0, 2.0, p)
    for _ in range(CASES):
        y = draw(rng, n + p + 2 * p)
        th = y[n: n + p]  # a slice of the flat state, as rhs_flat takes it
        Y, e, theta = draw(rng, n, p), draw(rng, n), draw(rng, p)
        assert_dot_is_matmul(Y, theta - th)  # rhs_flat's plant term
        assert_dot_is_matmul(Y, th)  # _control
        assert_dot_is_matmul(Y.T, e)  # _flow_terms' gradient term
        assert_dot_is_matmul(draw(rng, p, p), th)  # the memory term A th
        assert_dot_is_matmul(th, th)  # the norm group's radius
        # _slacks and _core's weighted gradient, P folded into the Jacobian
        assert_dot_is_matmul(th, component._jac_t)
        assert_dot_is_matmul(draw(rng, 2 * p), draw(rng, p) * component._jac)
        # a norm group: the (2,) weights on the (2, p) radial rows
        assert_dot_is_matmul(draw(rng, 1), norm._jac_t)
        assert_dot_is_matmul(draw(rng, 2), norm._jac * (th / draw(rng, 1)[0]))
        # HistoryStack.try_insert: Y V, (Y V)'(Y V), Y'Y and Y'(xdot_hat - u)
        V = draw(rng, p, 2)
        assert_dot_is_matmul(Y, V)
        assert_dot_is_matmul((Y @ V).T, Y @ V)
        assert_dot_is_matmul(Y.T, Y)
        assert_dot_is_matmul(Y.T, draw(rng, n) - draw(rng, n))


@pytest.mark.parametrize("p", [4, 6])
def test_dot_matches_matmul_on_stacked_weightings_and_log_rows(p):
    """evaluate weights the gradient rows by the identity and lam at once,
    a (2p + 1, 2p) or (3, 2) left operand; _trajectory_log takes the
    slacks of every logged row, a (rows, p) or (rows, 1) one."""
    rng = np.random.default_rng(p)
    component, norm = component_bounds([-1e9] * p, [1e9] * p), norm_bounds(1.0, 2.0, p)
    for _ in range(CASES // 4):
        weights = np.vstack([component._eye, draw(rng, 2 * p)]) * draw(rng, 2 * p)
        assert_dot_is_matmul(weights, draw(rng, p) * component._jac)
        weights = np.vstack([norm._eye, draw(rng, 2)]) * draw(rng, 2)
        assert_dot_is_matmul(weights, norm._jac * draw(rng, p))
        rows = int(rng.integers(1, 400))
        assert_dot_is_matmul(draw(rng, rows, p), component._jac_t)
        assert_dot_is_matmul(draw(rng, rows, 1), norm._jac_t)


def assert_method_is_dot(got, *refs):
    """A method-form product against the forms it replaces, bit for bit."""
    for ref in refs:
        assert np.shape(got) == np.shape(ref)
        assert bits(got) == bits(ref)


@pytest.mark.parametrize("n,p", [(2, 4), (3, 6)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_method_dot_gives_the_bits_of_np_dot_and_matmul(n, p, order):
    """Each a.dot(b) the step and record paths take, on its shapes and
    layouts, against np.dot(a, b) and a @ b.  Y^T v is taken as v.dot(Y),
    with no transposed view; order is the regressor's memory layout."""
    rng = np.random.default_rng(n * 100 + p + (order == "F"))
    component, norm = component_bounds([-1e9] * p, [1e9] * p), norm_bounds(1.0, 2.0, p)
    for _ in range(CASES):
        y = draw(rng, n + p + 2 * p)
        th = y[n: n + p]  # a slice of the flat state, as the stage takes it
        Y = np.asarray(draw(rng, n, p), order=order)
        e, theta, A = draw(rng, n), draw(rng, p), draw(rng, p, p)
        v = theta - th
        assert_method_is_dot(Y.dot(v), np.dot(Y, v), Y @ v)  # the stage's plant term
        assert_method_is_dot(Y.dot(th), np.dot(Y, th), Y @ th)  # _control
        assert_method_is_dot(e.dot(Y), np.dot(Y.T, e), Y.T @ e)  # flow's gradient term
        assert_method_is_dot(A.dot(th), np.dot(A, th), A @ th)  # the memory term
        assert_method_is_dot(th.dot(th), np.dot(th, th), th @ th)  # a norm group's radius
        # _slacks of one estimate and of every logged row, both kinds
        rows = draw(rng, int(rng.integers(1, 50)), p)
        radii = np.sqrt(np.vecdot(rows, rows))[..., None]
        for z, jac_t in ((th, component._jac_t), (rows, component._jac_t),
                         (radii[0], norm._jac_t), (radii, norm._jac_t)):
            assert_method_is_dot(z.dot(jac_t), np.dot(z, jac_t), z @ jac_t)
        # _core's weighted gradient, P folded into the Jacobian, on one
        # weighting and on evaluate's stacked ones
        for w, ds in ((draw(rng, 2 * p), draw(rng, p) * component._jac),
                      (draw(rng, 2), norm._jac * (th / draw(rng, 1)[0])),
                      (np.vstack([component._eye, draw(rng, 2 * p)]) * draw(rng, 2 * p),
                       draw(rng, p) * component._jac)):
            assert_method_is_dot(w.dot(ds), np.dot(w, ds), w @ ds)
        # _attempt's finiteness test
        zeros = np.zeros(len(y))
        assert_method_is_dot(y.dot(zeros), np.dot(y, zeros), y @ zeros)
        # HistoryStack.try_insert: Y v, |Y v|^2, trace(Y'Y),
        # Y'Y and Y'(xdot_hat - u)
        yv = Y.dot(draw(rng, p))
        assert_method_is_dot(yv.dot(yv), np.dot(yv, yv), yv @ yv)
        assert_method_is_dot(Y.ravel().dot(Y.ravel()), np.vdot(Y, Y))
        assert_method_is_dot(Y.T.dot(Y), np.dot(Y.T, Y), Y.T @ Y)
        xdot_hat, u = draw(rng, n), draw(rng, n)
        assert_method_is_dot((xdot_hat - u).dot(Y), np.dot(Y.T, xdot_hat - u),
                             Y.T @ (xdot_hat - u))
        # try_insert's pick among trial eigenvalues, ties included
        eigs = rng.integers(0, 4, size=int(rng.integers(1, 21))).astype(float)
        assert eigs.argmax() == np.argmax(eigs)


SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 5e-324)


def test_a_positive_list_min_proves_that_no_entry_is_zero():
    """The stage tests a group's multipliers once, min(lam.tolist()) > 0.0,
    and _lambda_dot skips its `0.0 in lam.tolist()` test when that held.
    That is sound on every list: min's running value only falls, and a NaN
    holds it (nothing compares below NaN), so a min above 0 never held a
    NaN and would have fallen to a 0.0 or -0.0 entry wherever it sits.
    Checked on every list of up to four of 0.0, -0.0, NaN, +-inf, 1.0 and
    the least subnormal, and on longer random ones."""
    lists = [list(v) for size in range(1, 5) for v in itertools.product(SPECIALS, repeat=size)]
    rng = np.random.default_rng(3)
    lists += [rng.choice(SPECIALS, size=int(rng.integers(5, 13))).tolist()
              for _ in range(CASES * 10)]
    held = 0
    for v in lists:
        if min(v) > 0.0:
            held += 1
            assert 0.0 not in v, v
    assert held > 100  # the premise holds often, not only vacuously


@pytest.mark.parametrize("width", [2, 8, 12])
def test_lambda_dot_on_positive_multipliers_gives_the_bits_of_the_checked_call(width):
    """positive=True, passed by the stage when the list min is above 0,
    skips only a test that would have found no 0.0: the flow keeps the
    bits of the call without it, into out or a fresh array."""
    rng = np.random.default_rng(width)
    out = np.empty(width)
    for _ in range(CASES):
        lam = np.abs(draw(rng, width))
        lam[rng.integers(width)] = rng.choice([5e-324, 1e-300, 1e300, np.inf])
        assert min(lam.tolist()) > 0.0
        alpha = np.array(abs(draw(rng, 1)[0]))
        gamma_inv, c = np.abs(draw(rng, width)), draw(rng, width)
        with np.errstate(invalid="ignore", over="ignore"):
            ref = _lambda_dot(lam, alpha, gamma_inv, c)
            assert bits(_lambda_dot(lam, alpha, gamma_inv, c, positive=True)) == bits(ref)
            got = _lambda_dot(lam, alpha, gamma_inv, c, out=out, positive=True)
        assert got is out and bits(got) == bits(ref)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                np.maximum], ids=lambda op: op.__name__)
def test_zero_d_operand_gives_the_bits_of_the_python_float(op):
    rng = np.random.default_rng(7)
    for _ in range(CASES):
        arr = draw(rng, int(rng.integers(1, 13)))
        scalar = float(draw(rng, 1)[0])
        assert bits(op(arr, np.array(scalar))) == bits(op(arr, scalar))
        assert bits(op(np.array(scalar), arr)) == bits(op(scalar, arr))
    # signed zeros, overflow and 0/0 as well: the bits must still agree
    arr = np.array([0.0, -0.0, 1.5, -2.5, 1e-300, 1e300, np.inf])
    with np.errstate(all="ignore"):
        for scalar in (0.0, -0.0, 1.0, -1.0, 2.0, 0.5e-3, 1e-3 / 6.0, 1e300):
            assert bits(op(arr, np.array(scalar))) == bits(op(arr, scalar))
            assert bits(op(np.array(scalar), arr)) == bits(op(scalar, arr))


@pytest.mark.parametrize("n,p,widths", [(2, 4, [8]), (2, 4, [8, 2]), (3, 6, [12])])
def test_out_into_a_bound_row_view_gives_the_bits_of_the_allocating_call(n, p, widths):
    """The stage writes its result into views of an output row bound once
    per lane (plant, estimate and multiplier blocks), and _attempt forms the
    inputs of stages 2 to 4 in one input buffer.  Each call written with
    out= must give the bits of the same call that allocates its result."""
    rng = np.random.default_rng(n * 100 + p + len(widths))
    size = n + p + sum(widths)
    rows = np.empty((4, size))
    ends = np.cumsum([0, n, p, *widths])
    for _ in range(CASES // 4):
        row = rows[rng.integers(4)]
        for start, stop in zip(ends[:-1], ends[1:]):
            view = row[start:stop]
            a, b = draw(rng, stop - start), draw(rng, stop - start)
            for op in (np.add, np.subtract):  # the ufuncs the stage and _attempt write with out=
                assert bits(op(a, b, out=view)) == bits(op(a, b))
                assert bits(view) == bits(op(a, b))
            np.copyto(view, a)
            assert bits(view) == bits(a)
            view[...] = b  # the stage's copy
            assert bits(view) == bits(b)
        # the products that end a block: the plant term Y (theta - th) into
        # the n-block, and a group's weighted gradient row into the p-block
        Y, v = draw(rng, n, p), draw(rng, p)
        assert bits(np.dot(Y, v, out=row[:n])) == bits(np.dot(Y, v))
        lam, ds = draw(rng, widths[0]), draw(rng, widths[0], p)
        assert bits(np.dot(lam, ds, out=row[n:n + p])) == bits(np.dot(lam, ds))
        # a stage input: y plus a 0-d weight times a stage result
        buf, y, k = np.empty(size), draw(rng, size), draw(rng, size)
        half = np.array(draw(rng, 1)[0])
        assert bits(np.add(y, half * k, out=buf)) == bits(y + float(half) * k)


@pytest.mark.parametrize("size", [6, 14, 16, 26])
def test_dot_with_zeros_is_nonzero_exactly_when_an_entry_is_not_finite(size):
    """sim._attempt tests a step result for finiteness in one call,
    out.dot(zeros) != 0.0 (np.dot's product; both forms are checked):
    every finite entry times 0 is +-0, so the sum is +-0, and an infinite
    or NaN entry makes it NaN.  Checked at every position on the state
    sizes the tests integrate, among entries up to +-1.7e308."""
    rng = np.random.default_rng(size)
    zeros = np.zeros(size)
    for _ in range(CASES // 10):
        out = draw(rng, size)
        out[rng.integers(size)] = rng.choice([1.7e308, -1.7e308, 0.0, -0.0, 5e-324])
        assert not np.dot(out, zeros) != 0.0
        assert not out.dot(zeros) != 0.0
        assert not np.dot(np.full(size, rng.choice([1.7e308, -1.7e308])), zeros) != 0.0
        with np.errstate(invalid="ignore"):
            for i in range(size):
                for bad in (np.inf, -np.inf, np.nan):
                    probe = out.copy()
                    probe[i] = bad
                    assert np.dot(probe, zeros) != 0.0, (i, bad)
                    assert probe.dot(zeros) != 0.0, (i, bad)
