"""covereval.special against scipy.special, which covereval no longer
imports, over a sweep of shapes from 1e-3 to 1e6 and arguments across each
distribution's bulk and both tails. Where the two differ by more than the
bound, mpmath at 50 or more digits decides: covereval must then be within
the bound of the exact value, and closer to it than scipy."""

import math

import numpy as np
import pytest
from scipy import special as sc

from covereval import special

from oracles import (
    loop_beta_fraction, loop_gamma_fraction, mp_betainc, mp_betaln, mp_gammainc,
)

SHAPES = np.geomspace(1e-3, 1e6, 10).tolist() + [0.5, 1.0, 2.0, 9.99, 10.0, 10.01]
DIGAMMA_ROOT = 1.4616321449683623


def gamma_arguments(a: float) -> np.ndarray:
    sd = math.sqrt(a)
    x = np.concatenate([a + sd * np.linspace(-8, 8, 17), a * np.geomspace(1e-3, 1e2, 11),
                        np.geomspace(1e-300, 1e3, 7), [0.0, a + 1]])
    return np.unique(x[x >= 0])


def beta_arguments(a: float, b: float) -> np.ndarray:
    p = a / (a + b)
    sd = math.sqrt(a * b / (a + b) ** 2 / (a + b + 1))
    x = np.concatenate([p + sd * np.linspace(-8, 8, 17), np.geomspace(1e-300, 0.5, 7),
                        1 - np.geomspace(1e-16, 0.5, 7), [0.0, 1.0, (a + 1) / (a + b + 2)]])
    return np.unique(x[(x >= 0) & (x <= 1)])


def assert_close(got, want, exact, points, bound=1e-14):
    """Every got is within `bound` of scipy's, or else within it of the
    exact value and closer to that than scipy."""
    for i in np.flatnonzero(np.abs(got - want) > bound):
        e = exact(points[i])
        assert abs(got[i] - e) <= min(bound, abs(want[i] - e)), (points[i], got[i], want[i], e)


@pytest.mark.parametrize("a", SHAPES)
def test_gammainc_equals_scipy(a):
    x = gamma_arguments(a)
    got = special.gammainc(a, x)
    assert_close(got, sc.gammainc(a, x), lambda v: mp_gammainc(a, v), x)


@pytest.mark.parametrize("a", SHAPES)
def test_betainc_equals_scipy(a):
    for b in SHAPES[::2]:
        x = beta_arguments(a, b)
        got = special.betainc(a, b, x)
        assert ((got >= 0) & (got <= 1)).all()
        assert_close(got, sc.betainc(a, b, x), lambda v: mp_betainc(a, b, v), x)


@pytest.mark.parametrize("a", SHAPES)
def test_fractions_equal_the_level_by_level_loop(a, monkeypatch):
    # one backward pass over every level gives the bits of one pass per
    # level with a coefficient call per term, over the same sweep
    x = gamma_arguments(a)
    beta = [(b, beta_arguments(a, b)) for b in SHAPES[::2]]
    want = (special.gammainc(a, x), [special.betainc(a, b, y) for b, y in beta])
    monkeypatch.setattr(special, "_gamma_fraction", loop_gamma_fraction)
    monkeypatch.setattr(special, "_beta_fraction", loop_beta_fraction)
    assert np.array_equal(special.gammainc(a, x), want[0])
    for (b, y), got in zip(beta, want[1]):
        assert np.array_equal(special.betainc(a, b, y), got), b


def test_series_sums_to_its_closed_form():
    # the series that both incomplete functions sum below their switch: a
    # geometric series, ratios r equal to their limit, sums to 1 / (1 - r);
    # the exponential series, ratios x / (k + 1) falling to 0, to e^x
    r = np.array([0.0, 0.1, 0.5, 0.9, 0.99])
    np.testing.assert_allclose(special._series(lambda k: r, r), 1 / (1 - r), rtol=1e-12)
    x = np.array([1e-300, 0.5, 3.0, 30.0])
    np.testing.assert_allclose(special._series(lambda k: x / (k + 1), 0.0), np.exp(x),
                               rtol=1e-14)


def test_betainc_is_symmetric():
    # I_x(a, b) = 1 - I_(1-x)(b, a), from either side of the switch
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = 10.0 ** rng.uniform(-3, 6, 2)
        x = rng.uniform(0, 1, 20)
        y = 1 - x
        x = 1 - y  # so that 1 - x is exact
        assert np.abs(special.betainc(a, b, x) + special.betainc(b, a, y) - 1).max() <= 2e-14


def test_digamma_and_trigamma_equal_scipy():
    x = np.concatenate([np.geomspace(1e-3, 1e6, 400), np.linspace(0.1, 30, 600)])
    for v in x.tolist():
        want = sc.digamma(v)
        if abs(v - DIGAMMA_ROOT) < 0.05:
            assert abs(special.digamma(v) - want) <= 1e-15
        else:
            assert abs(special.digamma(v) - want) <= 1e-14 * abs(want)
        assert abs(special.trigamma(v) - sc.polygamma(1, v)) <= 1e-14 * sc.polygamma(1, v)


def test_digamma_near_its_root():
    for v in (DIGAMMA_ROOT + np.linspace(-1e-3, 1e-3, 41)).tolist():
        assert abs(special.digamma(v) - sc.digamma(v)) <= 1e-15


def test_betaln_equals_scipy():
    # relative to max(1, |log B|), which is an absolute bound near log B = 0
    for a in SHAPES:
        for b in SHAPES:
            got, want = special.betaln(a, b), sc.betaln(a, b)
            bound = 1e-14 * max(1.0, abs(want))
            if abs(got - want) > bound:
                exact = mp_betaln(a, b)
                assert abs(got - exact) <= min(bound, abs(want - exact)), (a, b)


def test_normal_and_logistic_cdfs_equal_scipy():
    z = np.concatenate([np.linspace(-40, 40, 4001), [-np.inf, np.inf]])
    assert np.abs(special.ndtr(z) - sc.ndtr(z)).max() <= 1e-15
    assert np.abs(special.expit(z) - sc.expit(z)).max() <= 1e-15
    assert special.ndtr(z[:4000].reshape(4, -1)).shape == (4, 1000)
