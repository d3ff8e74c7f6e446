"""The Nelder-Mead simplex search the Cauchy fit uses, ported from scipy
1.17.1 so that importing covereval does not import `scipy.optimize`, which
takes 0.1-0.16 s on a 2-vCPU x86-64 machine.

`minimize` is the Nelder-Mead simplex (Nelder & Mead 1965) of
`scipy.optimize.minimize(method="Nelder-Mead")` without bounds, adaptive
coefficients or a given initial simplex. It does the same floating-point
operations in the same order as scipy, so it returns the same bits: every
reorder, stopping rule and evaluation cap below is scipy's, kept on
purpose."""

from __future__ import annotations

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

