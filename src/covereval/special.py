"""The special functions distribution fitting needs, from numpy and `math`:
digamma and trigamma, the log beta function, the standard normal and
logistic CDFs, and the regularized incomplete gamma and beta functions.

The incomplete functions follow Numerical Recipes (3rd ed., sections 6.2
and 6.4): a power series or a continued fraction, picked by where the
argument lies, times the prefactor x^a e^-x / Gamma(a + 1) or
x^a (1 - x)^b / B(a, b). For large shapes the logs in that prefactor are
huge and cancel, so near its peak it is computed as Loader computes the
binomial density ("Fast and accurate computation of binomial
probabilities", 2000): a Stirling series for the gamma functions and
log(1 + t) - t by a series that does not cancel."""

from __future__ import annotations

import math

import numpy as np

_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_EPS = 2.0 ** -53
_MAX_TERMS = 1_000_000  # the series and fractions need ~ 9 sqrt(shape) terms

# B_2k / (2k (2k - 1)), the Stirling series of log Gamma, k = 1..7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
# B_2k / (2k), the asymptotic series of digamma, k = 1..7
_DIGAMMA = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
# B_2k, the asymptotic series of trigamma, k = 1..8
_TRIGAMMA = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence psi(x) = psi(x + 1) - 1/x up to
    x >= 10, then the asymptotic series, whose next term is below 1e-16."""
    shift = 0.0
    while x < 10:
        shift += 1 / x
        x += 1
    inv2 = 1 / (x * x)
    series = 0.0
    for c in reversed(_DIGAMMA):
        series = series * inv2 + c
    return math.log(x) - 0.5 / x - series * inv2 - shift


def trigamma(x: float) -> float:
    """psi'(x) for x > 0: the recurrence psi'(x) = psi'(x + 1) + 1/x^2 up to
    x >= 10, then the asymptotic series."""
    shift = 0.0
    while x < 10:
        shift += 1 / (x * x)
        x += 1
    inv2 = 1 / (x * x)
    series = 0.0
    for c in reversed(_TRIGAMMA):
        series = series * inv2 + c
    return shift + (1 + (0.5 + series / x) / x) / x


def betaln(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b). With
    Stirling's series for the three, the large terms are
    -a log(1 + b/a) - b log(1 + a/b), of one sign, so nothing cancels."""
    return (_HALF_LOG_2PI - 0.5 * math.log(a * b / (a + b)) - a * math.log1p(b / a)
            - b * math.log1p(a / b) + _stirling(a) + _stirling(b) - _stirling(a + b))


def expit(z: np.ndarray) -> np.ndarray:
    """The standard logistic CDF 1 / (1 + e^-z)."""
    with np.errstate(over="ignore"):  # e^-z = inf gives 0, as it should
        return 1 / (1 + np.exp(-z))


def ndtr(z: np.ndarray) -> np.ndarray:
    """The standard normal CDF, from math.erf near 0 and math.erfc in the
    tails, where 1 - erf would cancel."""
    def one(v: float) -> float:
        w = v * math.sqrt(0.5)
        if abs(w) < math.sqrt(0.5):
            return 0.5 + 0.5 * math.erf(w)
        tail = 0.5 * math.erfc(abs(w))
        return 1 - tail if w > 0 else tail
    z = np.asarray(z, dtype=float)
    return np.array([one(v) for v in z.ravel().tolist()]).reshape(z.shape)


def _stirling(z: float) -> float:
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), by its series
    from z = 10 on, where the next term is below 1e-16 of it."""
    if z < 10:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI
    inv2 = 1 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    return series / z


def _log1pmx(t: np.ndarray) -> np.ndarray:
    """log(1 + t) - t. Near 0 it is -t u + 2 u^3 (1/3 + u^2/5 + ...) with
    u = t / (2 + t), from log(1 + t) = 2 atanh(u); for |t| < 1/2, u^2 < 1/9
    and 18 terms reach the last bit."""
    with np.errstate(divide="ignore"):
        out = np.log1p(t) - t
    near = np.abs(t) < 0.5
    u = t[near] / (2 + t[near])
    u2 = u * u
    series = np.zeros_like(u)
    for k in range(17, -1, -1):
        series = series * u2 + 1 / (2 * k + 3)
    out[near] = -t[near] * u + 2 * u * u2 * series
    return out


def _series(ratio, limit) -> np.ndarray:
    """1 + sum_(n >= 1) prod_(k < n) ratio(k), elementwise over arrays of
    positive ratios that tend monotonically to `limit`, or fall to 0 with
    limit 0. No later ratio exceeds r, the larger of the last ratio and the
    limit, so the tail after a term is at most term r / (1 - r) while r < 1.
    Terms are added until that bound is within 2^-53 of every sum, checked
    every 4 terms, or _MAX_TERMS are in."""
    term = total = 1.0
    for k in range(_MAX_TERMS):
        r = ratio(k)
        term = term * r
        total = total + term
        bound = np.maximum(r, limit)
        if k % 4 == 3 and (term * bound <= _EPS * total * (1 - bound)).all():
            break
    return total


def _fraction(coefficients, shape: tuple[int, ...]) -> np.ndarray:
    """The continued fraction a_1 / (b_1 + a_2 / (b_2 + ...)), where
    `coefficients(i)` gives the sequences of a_i and of b_i for an array of
    indices i, each term a scalar or an array broadcastable to `shape`. It
    is evaluated from the back over its first n terms, for n = 8, 16, 32,
    ..., until doubling n changes no element by more than 2^-52 of it. One
    backward pass evaluates every n up to its depth: the value over the
    first n terms joins the pass when i reaches n. The first pass is 64
    deep, each later one twice as deep as the last, and the coefficients
    are built for at most 2^16 entries at a time. From the back, a
    near-zero denominator of an early convergent, which Lentz's forward
    method divides by, never enters."""
    block = max(1, 2 ** 16 // max(1, math.prod(shape)))
    depth = 64
    while True:
        levels = [8 << k for k in range((depth // 8).bit_length())]
        value = np.zeros((len(levels),) + shape)
        joined = len(levels)  # value[joined:] is in the pass
        for top in range(depth, 0, -block):
            low = max(top - block, 0)
            a, b = coefficients(np.arange(low + 1, top + 1))
            for i, a_i, b_i in zip(range(top, low, -1), a[::-1], b[::-1]):
                if joined and levels[joined - 1] == i:
                    joined -= 1
                    live = value[joined:]
                np.add(b_i, live, out=live)
                np.divide(a_i, live, out=live)
        for k in range(1, len(levels)):
            if levels[k] >= _MAX_TERMS or (
                    np.abs(value[k] - value[k - 1]) <= 2 * _EPS * np.abs(value[k])).all():
                return value[k]
        depth *= 2


def _gamma_fraction(a: float, shifted: np.ndarray) -> np.ndarray:
    """The continued fraction of Q(a, x) that `gammainc` states, given
    shifted = x - a - 1."""
    def coefficients(i):
        return np.where(i == 1, 1.0, -(i - 1) * (i - 1 - a)).tolist(), shifted + 2 * i[:, None]
    return _fraction(coefficients, shifted.shape)


def gammainc(a: float, x: np.ndarray) -> np.ndarray:
    """The regularized lower incomplete gamma function P(a, x) for a > 0 and
    x >= 0. Below x = a + 1 it is x^a e^-x / Gamma(a + 1) times the series
    sum_n x^n / ((a + 1) ... (a + n)); above, one minus Q(a, x), which is
    x^a e^-x / Gamma(a) times the continued fraction
    1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / (x + 5 - a - ...)))."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = x > 0
    xs = x[pos]
    # log(x^a e^-x / Gamma(a + 1)); above x = a / 2, by Stirling's series,
    # a (log(x / a) - t) = a g(t) with t = (x - a) / a
    t = (xs - a) / a
    near = t > -0.5
    with np.errstate(divide="ignore"):
        log_front = a * np.log(xs) - xs - math.lgamma(a + 1)
    log_front[near] = (a * _log1pmx(t[near]) - 0.5 * math.log(2 * math.pi * a)
                       - _stirling(a))
    front = np.exp(log_front)

    low = xs < a + 1
    xl = xs[low]
    total = _series(lambda k: xl / (a + (k + 1)), 0.0)  # the ratios fall
    shifted = xs[~low] - a - 1
    fraction = _gamma_fraction(a, shifted)
    result = np.empty_like(xs)
    result[low] = front[low] * total
    result[~low] = 1 - a * front[~low] * fraction
    out[pos] = result
    return out


def _beta_fraction(a: float, b: float, x: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """The continued fraction F = 1 / (1 + d_1 / (1 + d_2 / (1 + ...))) with
    d_2m = m (b - m) x / ((a + 2m - 1)(a + 2m)) and d_2m+1 = -(a + m)(a + b
    + m) x / ((a + 2m)(a + 2m + 1)), which gives I_x(a, b) = x^a (1 - x)^b F
    / (a B(a, b)) and converges fast below x = (a + 1) / (a + b + 2); a and
    b trade places where `flip` is set."""
    s, r = np.where(flip, b, a), np.where(flip, a, b)

    def coefficients(i):
        m = ((i - 1) // 2)[:, None]
        odd, even = i % 2 == 0, (i % 2 == 1) & (i > 1)  # i - 1 = 2m + 1, or 2m > 0
        rows = np.ones((len(i),) + x.shape)
        mo, me = m[odd], m[even]
        rows[odd] = -(s + mo) * (s + r + mo) / ((s + 2 * mo) * (s + 2 * mo + 1)) * x
        rows[even] = me * (r - me) / ((s + 2 * me - 1) * (s + 2 * me)) * x
        return rows, [1.0] * len(i)
    return _fraction(coefficients, x.shape)


def _beta_series(a: float, b: float, x: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """The same F as a series of positive terms, sum_n prod_(k < n)
    x (a + b + k) / (a + 1 + k), whose ratios tend monotonically to x."""
    return _series(lambda k: np.where(flip, (a + b + k) / (b + 1 + k),
                                      (a + b + k) / (a + 1 + k)) * x, x)


def betainc(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The regularized incomplete beta function I_x(a, b) for a, b > 0 and
    0 <= x <= 1. With the prefactor x^a (1 - x)^b / B(a, b), I_x(a, b) is
    that times F_a / a, and 1 - I_x(a, b) = I_(1-x)(b, a) is that times
    F_b / b, F_a and F_b the hypergeometric sums of the two sides. Below
    x = (a + 1) / (a + b + 2) F_a is taken by its continued fraction, above
    F_b. The fraction's relative error is about its value in units of 2^-53,
    from cancellation in its outer denominators, so the error of I is about
    I F_a or (1 - I) F_b units. Where that exceeds 4 units, which takes
    large shapes, the smaller of F_a and F_b is recomputed by its series of
    positive terms, which has no cancellation and converges in a few times
    that many terms."""
    x = np.asarray(x, dtype=float)
    out = (x >= 1).astype(float)
    inner = (x > 0) & (x < 1)
    xs = x[inner]
    ys = 1 - xs
    # log(x^a (1 - x)^b / B(a, b)). With p = a / (a + b) and q = 1 - p,
    # Stirling's series for the three gamma functions leaves
    # a log(x / p) + b log((1 - x) / q) = a log(1 + t) + b log(1 + u), with
    # t = (x - p) / p and u = (p - x) / q, and near x = p, where the two
    # cancel, a g(t) + b g(u), g(t) = log(1 + t) - t, as a t + b u = 0.
    # x - p is taken from the side where it does not cancel, and log(1 + t)
    # as log x - log p where t is near -1.
    p, q = a / (a + b), b / (a + b)
    d = np.where(xs < 0.5, xs - p, q - ys)
    t, u = d / p, -d / q
    with np.errstate(divide="ignore"):
        main = (a * np.where(t > -0.5, np.log1p(t), np.log(xs) - math.log(p))
                + b * np.where(u > -0.5, np.log1p(u), np.log1p(-xs) - math.log(q)))
    near = (np.abs(t) < 0.5) & (np.abs(u) < 0.5)
    main[near] = a * _log1pmx(t[near]) + b * _log1pmx(u[near])
    front = np.exp(main + 0.5 * math.log(a * b / (a + b)) - _HALF_LOG_2PI
                   - _stirling(a) - _stirling(b) + _stirling(a + b))

    flip = xs > (a + 1) / (a + b + 2)  # F_b, not F_a
    z = np.where(flip, ys, xs)
    fraction = _beta_fraction(a, b, z, flip)
    part = front * fraction / np.where(flip, b, a)  # I, or 1 - I where flipped
    redo = part * fraction > 4
    # F_a / F_b = I a / ((1 - I) b)
    flip[redo] = (np.where(flip, 1 - part, part) * a > np.where(flip, part, 1 - part) * b)[redo]
    z = np.where(flip, ys, xs)[redo]
    part[redo] = front[redo] * _beta_series(a, b, z, flip[redo]) / np.where(flip[redo], b, a)
    out[inner] = np.where(flip, 1 - part, part)
    return out
