"""Newton's method for every iterative fit: gamma, Weibull, logistic, beta
and, from the end of its fixed-point iteration, Cauchy. Each passes
`minimize` its objective, a negated mean log-likelihood in coordinates
where it is strictly convex, with its gradient and Hessian."""

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
    success: bool  # False at the iteration cap or where the Hessian is not
    # positive definite, which a convex objective's is


Point = tuple[float, tuple[float, float], tuple[float, float, float]]


def minimize(evaluate: Callable[[tuple[float, float]], Point | None],
             x0: tuple[float, float], *, maxiter: int) -> Minimum:
    """Minimize a strictly convex function of two parameters by Newton's
    method from `x0`. `evaluate(x)` returns the value, the gradient
    (g0, g1) and the Hessian (h00, h01, h11) there, or None outside the
    domain, where `x0` must not lie (a `FitError`). A step is halved until
    it ends in the domain and lowers the value, or keeps it within rounding
    while the gradient shrinks: near the minimum the fall drops below the
    value's rounding well before the gradient drops to its own. The iterates
    stop when the Newton decrement g'H^-1 g, twice the fall a step predicts,
    is below 1e-30, or stops falling once below 1e-12 (the gradient is down
    to rounding), or when no halved step is accepted. They stop without
    success where the Hessian is not positive definite, which rounding can
    make it only for an ill-conditioned convex function."""
    x, point = x0, evaluate(x0)
    if point is None:
        raise FitError(f"the start {x0} is outside the likelihood's domain")
    value, grad, hess = point
    nfev, last = 1, math.inf
    for nit in range(maxiter):
        (g0, g1), (h00, h01, h11) = grad, hess
        det = h00 * h11 - h01 * h01
        if not (h00 > 0 and det > 0):
            return Minimum(x, value, nfev, nit, False)
        s0, s1 = (h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det
        decrement = -(g0 * s0 + g1 * s1)
        if not decrement > 1e-30 or last <= decrement < 1e-12:
            return Minimum(x, value, nfev, nit, True)
        last, norm, t = decrement, g0 * g0 + g1 * g1, 1.0
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
            return Minimum(x, value, nfev, nit, True)
        x, (value, grad, hess) = trial, point
    return Minimum(x, value, nfev, maxiter, False)
