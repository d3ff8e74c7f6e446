"""The two numerical routines the fits use, ported from scipy 1.17.1 so that
importing covereval does not import `scipy.optimize`, which takes 0.1-0.16 s
on a 2-vCPU x86-64 machine.

`minimize` is the Nelder-Mead simplex (Nelder & Mead 1965) of
`scipy.optimize.minimize(method="Nelder-Mead")` without bounds, adaptive
coefficients or a given initial simplex; `brentq` is the iteration of
scipy's `brentq.c` (Brent 1973). Both do the same floating-point operations
in the same order as scipy, so they return the same bits: every reorder,
stopping rule and evaluation cap below is scipy's, kept on purpose."""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np


class Minimum(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int
    nit: int  # iterations, counted from 1 as scipy counts them
    success: bool  # False when the evaluation or iteration cap stopped it


class _Capped(Exception):
    """The evaluation cap was reached; the current iteration is abandoned."""


def _reorder(sim, fsim):
    """The vertices and their values, best first."""
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def minimize(fun: Callable[[np.ndarray], float], x0, *, xatol: float,
             fatol: float, maxiter: int, maxfev: int) -> Minimum:
    """Minimize `fun` from `x0` by the Nelder-Mead simplex. It stops when
    every vertex lies within `xatol` of the best one and every value within
    `fatol` of its value, after `maxiter` iterations, or at the `maxfev`-th
    evaluation, abandoning that iteration midway."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Capped
        nfev += 1
        return float(fun(np.copy(x)))

    # the initial simplex steps each coordinate by 5 %, or to 0.00025 from 0
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Capped:
        pass
    # argsort is not a stable sort, so a second reorder of sorted values can
    # still move ties; scipy reorders twice here
    sim, fsim = _reorder(sim, fsim)
    sim, fsim = _reorder(sim, fsim)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            # np.max propagates NaN, which compares false: no convergence
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]  # reflection
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]  # expansion
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            iterations += 1
        except _Capped:
            pass
        sim, fsim = _reorder(sim, fsim)

    return Minimum(sim[0], np.min(fsim), nfev, iterations,
                   nfev < maxfev and iterations < maxiter)


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float = 4 * sys.float_info.epsilon, maxiter: int = 100) -> float:
    """A root of `f` in [a, b], where f(a) and f(b) differ in sign, by
    Brent's method: inverse quadratic interpolation or secant steps, kept
    inside the bracket and replaced by bisection where they would converge
    slowly. The root is within xtol + rtol |root| of a sign change."""

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1, fpre) == math.copysign(1, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1, fpre) != math.copysign(1, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}.")
