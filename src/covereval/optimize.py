"""Newton's method for every iterative fit: gamma, Weibull, logistic, beta
and Cauchy. Each passes `minimize` its objective, a negated mean
log-likelihood, with its gradient and Hessian; the first four are convex in
the coordinates they pass, Cauchy's has one stationary point, its minimum."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple


class FitError(ValueError):
    """A family that cannot be fitted to the samples."""


class Minimum(NamedTuple):
    x: tuple[float, float]
    fun: float
    nfev: int  # evaluations of the objective, its gradient and Hessian
    nit: int  # Newton steps taken
    success: bool  # False at the iteration cap, at a Hessian that is zero
    # or not finite, or where no step is accepted from a point whose Hessian
    # is not positive definite


Point = tuple[float, tuple[float, float], tuple[float, float, float]]


def minimize(evaluate: Callable[[tuple[float, float]], Point | None],
             x0: tuple[float, float], *, maxiter: int) -> Minimum:
    """Minimize a smooth function of two parameters by Newton's method from
    `x0`. `evaluate(x)` returns the value, the gradient (g0, g1) and the
    Hessian (h00, h01, h11) there, or None outside the domain, where `x0`
    must not lie (a `FitError`). Where the Hessian is not positive definite
    its diagonal is shifted until its smallest eigenvalue is 1e-2 of its
    largest in size (Levenberg-Marquardt), so the step descends. A step is
    cut to at most 100 times the size of the point, or 200 (the cap of
    Numerical Recipes' `lnsrch`), where a Hessian near singular makes it
    huge, and halved until it ends in the domain and lowers the value, or
    keeps it within rounding while the gradient shrinks: near the minimum
    the fall drops below the value's rounding well before the gradient drops
    to its own. At a point with a positive definite Hessian the iterates
    stop when the Newton decrement g'H^-1 g, twice the fall a step predicts,
    is below 1e-30, or stops falling once below 1e-12 (the gradient is down
    to rounding); at any point, when no halved step is accepted."""
    x, point = x0, evaluate(x0)
    if point is None:
        raise FitError(f"the start {x0} is outside the likelihood's domain")
    value, grad, hess = point
    nfev, last = 1, math.inf
    for nit in range(maxiter):
        (g0, g1), (h00, h01, h11) = grad, hess
        det = h00 * h11 - h01 * h01
        convex = h00 > 0 and det > 0
        if not convex:
            mid, half = (h00 + h11) / 2, math.hypot((h00 - h11) / 2, h01)
            shift = 1e-2 * (abs(mid) + half) - (mid - half)
            h00, h11 = h00 + shift, h11 + shift
            det = h00 * h11 - h01 * h01
            if not det > 0:  # a zero Hessian, or one that is not finite
                return Minimum(x, value, nfev, nit, False)
        s0, s1 = (h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det
        decrement = -(g0 * s0 + g1 * s1)
        if convex and (not decrement > 1e-30 or last <= decrement < 1e-12):
            return Minimum(x, value, nfev, nit, True)
        last, norm = decrement, g0 * g0 + g1 * g1
        size, cap = math.hypot(s0, s1), 100 * max(math.hypot(*x), 2)
        t = 1.0 if size <= cap else cap / size
        for _ in range(60):
            trial = (x[0] + t * s0, x[1] + t * s1)
            point = evaluate(trial)
            nfev += 1
            if point is not None and (point[0] < value or (
                    point[0] <= value + 1e-12 * (1 + abs(value))
                    and point[1][0] ** 2 + point[1][1] ** 2 < norm)):
                break
            t /= 2
        else:
            return Minimum(x, value, nfev, nit, convex)
        x, (value, grad, hess) = trial, point
    return Minimum(x, value, nfev, maxiter, False)
