"""The Nelder-Mead port in `covereval.optimize` against its scipy original,
bit for bit, on the objectives the Cauchy fits build and on a few plain
functions. The guard that the CLI imports no scipy is in test_cli.py."""

import math

import numpy as np
import pytest
from scipy import optimize as scipy_optimize

from covereval import distfit, optimize
from covereval.distfit import Family, fit_mle
from covereval.graph import EmpiricalDistribution

OPTIONS = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000}


def fit_samples(rng):
    """Seeded samples of Cauchy, logistic and beta shape, on which Cauchy
    searches a simplex; every third is rounded, so it has ties."""
    for trial in range(42):
        n = int(rng.integers(5, 90))
        x = [rng.standard_cauchy(n) * 2 + 8, rng.logistic(3, 2, n),
             rng.beta(0.7, 2, n) * 5 + 0.1][trial % 3]
        x = np.abs(x) + 0.05
        if trial % 3 == 2:
            x = np.round(x) + 1
        yield x


def recorded_calls(monkeypatch):
    """Fit Cauchy to the seeded samples and return the (args, kwargs) of
    each call the fits make to `optimize.minimize`."""
    calls = []
    original = optimize.minimize

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(optimize, "minimize", record)
        for x in fit_samples(np.random.default_rng(1009)):
            try:
                fit_mle(Family.CAUCHY, EmpiricalDistribution(x))
            except distfit.FitError:
                pass
    return calls


def assert_same_minimum(fun, x0, maxfev, maxiter=OPTIONS["maxiter"]):
    options = {**OPTIONS, "maxiter": maxiter, "maxfev": maxfev}
    want = scipy_optimize.minimize(fun, x0, method="Nelder-Mead", options=options)
    got = optimize.minimize(fun, x0, **options)
    assert np.array_equal(got.x, want.x)
    assert got.fun == want.fun or (math.isnan(got.fun) and math.isnan(want.fun))
    assert (got.nfev, got.nit, got.success) == (want.nfev, want.nit, want.success)
    return got


@pytest.mark.parametrize("maxfev", [7, 50, 4000])
def test_minimize_equals_scipy_on_the_fit_objectives(monkeypatch, maxfev):
    calls = recorded_calls(monkeypatch)
    assert len(calls) >= 40
    capped = 0
    for (fun, x0), _ in calls:
        capped += not assert_same_minimum(fun, x0, maxfev).success
    # 7 evaluations stop every search; 4 000 let every one converge
    if maxfev == 7:
        assert capped == len(calls)
    if maxfev == 4000:
        assert capped == 0


def test_minimize_equals_scipy_at_the_iteration_cap(monkeypatch):
    calls = recorded_calls(monkeypatch)
    for (fun, x0), _ in calls[::4]:
        assert not assert_same_minimum(fun, x0, 4000, maxiter=25).success


@pytest.mark.parametrize("maxfev", [7, 50, 4000])
def test_minimize_equals_scipy_where_the_objective_is_inf(maxfev):
    def walled(t):
        return math.inf if t[0] < 0.3 else (t[0] - 1) ** 2 + (t[1] + 2) ** 2

    # where every vertex is inf, inf - inf is NaN in the convergence test
    with np.errstate(invalid="ignore"):
        for x0 in ([0.0, 0.0], [0.31, 5.0], [2.0, 0.0], [0.0, 1.0]):
            assert_same_minimum(walled, x0, maxfev)
        got = assert_same_minimum(lambda t: math.inf, [1.0, 2.0], maxfev)
    assert not got.success and got.nfev == maxfev
