"""The Newton solver in `covereval.optimize` that the logistic, beta and
Cauchy fits share: its step on a quadratic, its step halving, its stopping
rules. The fits' own tests are in test_distfit.py; the guard that the CLI
imports no scipy is in test_cli.py."""

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


def test_not_a_success_where_the_function_is_not_convex():
    # at a saddle of x0^2 - x1^2 the Newton step would climb in x1
    def saddle(x):
        return x[0] ** 2 - x[1] ** 2, (2 * x[0], -2 * x[1]), (2.0, 0.0, -2.0)

    res = optimize.minimize(saddle, (1.0, 0.5), maxiter=100)
    assert (res.x, res.nit, res.nfev, res.success) == ((1.0, 0.5), 0, 1, False)
