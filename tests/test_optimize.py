"""The Newton solver in `covereval.optimize` that every iterative fit
shares: its step on a quadratic, its step halving and cut, its shifted
step where the function is not convex, its stopping rules. The fits' own
tests are in test_distfit.py; the guard that the CLI imports no scipy is
in test_cli.py."""

import math

import numpy as np
import pytest

from covereval import optimize

# a convex quadratic 1/2 (x - m)' A (x - m) + 3 with its minimum at m
A = np.array([[4.0, 1.0], [1.0, 2.0]])
M = np.array([1.5, -0.25])


def quadratic(x):
    d = np.array(x) - M
    g = A @ d
    return 0.5 * float(d @ g) + 3.0, (float(g[0]), float(g[1])), (A[0, 0], A[0, 1], A[1, 1])


def log_barrier(calls):
    """x0 - log x0 + x1^2 / 2, minimal at (1, 0) and defined for x0 > 0
    only; records every point it is asked for."""
    def evaluate(x):
        calls.append(x)
        if not x[0] > 0:
            return None
        return (x[0] - math.log(x[0]) + x[1] ** 2 / 2, (1 - 1 / x[0], x[1]),
                (1 / x[0] ** 2, 0.0, 1.0))
    return evaluate


def test_one_step_on_a_convex_quadratic():
    # the Newton step lands on the minimum; the decrement there is 0
    res = optimize.minimize(quadratic, (-7.0, 11.0), maxiter=100)
    assert res.x == pytest.approx(tuple(M), abs=1e-15)
    assert res.fun == pytest.approx(3.0, abs=1e-15)
    assert (res.nit, res.nfev, res.success) == (1, 2, True)


def test_a_step_that_leaves_the_domain_is_halved():
    # from (10, 2) the first Newton step is (-90, -2), to (-80, 0), outside
    # the domain; halved four times it ends inside, at (4.375, 1.875), and
    # lowers the value
    calls = []
    res = optimize.minimize(log_barrier(calls), (10.0, 2.0), maxiter=100)
    assert np.array(calls[1:6]) == pytest.approx(np.array(
        [(-80.0, 0.0), (-35.0, 1.0), (-12.5, 1.5), (-1.25, 1.75), (4.375, 1.875)]))
    assert res.success and res.nfev == len(calls) > res.nit + 4
    assert res.x == pytest.approx((1.0, 0.0), abs=1e-12)


def test_not_a_success_at_the_iteration_cap():
    calls = []
    res = optimize.minimize(log_barrier(calls), (10.0, 2.0), maxiter=2)
    assert (res.nit, res.success) == (2, False)
    assert res.nfev == len(calls)
    # the value fell at each step, from 10 - log 10 + 2 at the start
    assert res.fun < 10 - math.log(10) + 2
    assert res.x[0] > 0


def test_steps_through_points_where_the_function_is_not_convex():
    # x0^2 / 2 + log(1 + x1^2) is concave in x1 beyond |x1| = 1, where a
    # Newton step would climb; the shifted Hessian's step descends, every
    # accepted step lowers the value, and the iterates reach the minimum at 0
    def bowl(x):
        q = 1 + x[1] ** 2
        return (x[0] ** 2 / 2 + math.log(q), (x[0], 2 * x[1] / q),
                (1.0, 0.0, 2 * (1 - x[1] ** 2) / q ** 2))

    res = optimize.minimize(bowl, (0.5, 5.0), maxiter=100)
    assert res.success and res.x == pytest.approx((0.0, 0.0), abs=1e-12)
    values = [optimize.minimize(bowl, (0.5, 5.0), maxiter=k).fun for k in range(res.nit + 1)]
    assert all(later < earlier for earlier, later in zip(values, values[1:]))


def test_not_a_success_where_the_function_falls_without_bound():
    # x0^2 / 2 - log(1 + x1^2) falls without bound as |x1| grows; from its
    # concave part the iterates walk off in x1 until the iteration cap
    def funnel(x):
        q = 1 + x[1] ** 2
        return (x[0] ** 2 / 2 - math.log(q), (x[0], -2 * x[1] / q),
                (1.0, 0.0, -2 * (1 - x[1] ** 2) / q ** 2))

    res = optimize.minimize(funnel, (1.0, 0.5), maxiter=100)
    assert (res.nit, res.success) == (100, False)
    assert abs(res.x[1]) > 1e6 and res.fun < -20


def test_a_step_is_cut_to_a_hundred_times_the_point():
    # x0^2 / 2 + 1e-30 x1^2 / 2 - x1 has its minimum at x1 = 1e30, a Newton
    # step away from the start (0, 0); the step is cut to 100 times the
    # point's size, or 200, so the iterates grow about a hundredfold a step
    calls = []

    def shallow(x):
        calls.append(x)
        return (x[0] ** 2 / 2 + 1e-30 * x[1] ** 2 / 2 - x[1], (x[0], 1e-30 * x[1] - 1),
                (1.0, 0.0, 1e-30))

    res = optimize.minimize(shallow, (0.0, 0.0), maxiter=100)
    assert calls[1] == (0.0, 200.0) and calls[2] == (0.0, 20200.0)
    assert res.success and res.x[1] == pytest.approx(1e30, rel=1e-12)
    assert res.nit < 20


def test_not_a_success_where_the_hessian_is_zero():
    # a plane has no Newton step
    res = optimize.minimize(lambda x: (x[0] + x[1], (1.0, 1.0), (0.0, 0.0, 0.0)), (1.0, 2.0),
                            maxiter=100)
    assert (res.x, res.nit, res.nfev, res.success) == ((1.0, 2.0), 0, 1, False)


def test_a_start_outside_the_domain_is_a_fit_error():
    calls = []
    with pytest.raises(optimize.FitError, match="outside"):
        optimize.minimize(log_barrier(calls), (-1.0, 0.0), maxiter=100)
    assert calls == [(-1.0, 0.0)]
