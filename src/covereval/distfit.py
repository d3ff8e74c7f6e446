"""MLE fitting of ten candidate distribution families and
Kolmogorov-Smirnov goodness-of-fit selection.

Each family's CDF is one numpy or `special` expression on x in
FittedDistribution.cdf. It is the function scipy.stats computes, though not
in the same operations, so the values can differ from scipy's in the last
bits; the tests hold them to 1e-14.

The MLEs: power law, normal, log-normal, exponential and uniform in closed
form; gamma, Weibull, logistic, beta and Cauchy by Newton's method on both
parameters at once, the first four in coordinates where their mean
negative log-likelihood is strictly convex, Cauchy in (loc, log scale),
where its only stationary point is its minimum. Every iterative fit calls
one Newton solver, `optimize.minimize`, once. Fitting imports nothing of
scipy: the special functions are covereval's own (`special`). Every fit
reads the samples as their distinct values and counts, so a closed form, a
start or one evaluation of a likelihood or score costs O(distinct values),
not O(samples). Where one value holds at least half the samples the Cauchy
likelihood has no maximum (Copas 1975; at exactly half it is bounded but
only approached as the scale goes to 0), so the family is inapplicable
there, and a fit with a parameter or KS statistic that is not finite, or a
scale that is not positive, is inapplicable too."""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import optimize
from .graph import EmpiricalDistribution
from .optimize import FitError
from .special import betainc, betaln, digamma, expit, gammainc, ndtr, trigamma

MIN_SAMPLES = 5
BETA_EPS = 1e-9


class Family(str, Enum):
    POWER_LAW = "PL"
    BETA = "BE"
    CAUCHY = "CA"
    EXPONENTIAL = "E"
    GAMMA = "GM"
    LOGISTIC = "LO"
    LOG_NORMAL = "LN"
    NORMAL = "N"
    UNIFORM = "U"
    WEIBULL = "WB"


# Fixed tie-break order, which is also the report order: Family's
# declaration order, power law first.
FAMILY_ORDER = tuple(Family)

POSITIVE_SUPPORT = {
    Family.POWER_LAW, Family.LOG_NORMAL, Family.GAMMA,
    Family.WEIBULL, Family.EXPONENTIAL,
}

class SolverWork(NamedTuple):
    """What an iterative fit did: its solver's iterations, its evaluations
    of the objective or score, and whether it stopped at an iteration or
    evaluation cap instead of converging. A closed form does none."""
    iterations: int = 0
    evaluations: int = 0
    capped: bool = False


def _work(res: optimize.Minimum) -> SolverWork:
    """The work of a Newton minimization."""
    return SolverWork(res.nit, res.nfev, not res.success)


class FittedDistribution(NamedTuple):
    family: Family
    params: tuple[float, ...]
    ks: float
    n: int
    # Beta fits are performed on data rescaled to (0, 1); the transform is
    # carried so the CDF applies to raw values.
    rescale: tuple[float, float] | None = None  # (min, max) of the raw data
    # how hard the fit's solver worked: not part of the fit, never emitted,
    # so equality, hash and repr read every field but this last one
    work: SolverWork = SolverWork()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:-1] == other[:-1]

    def __ne__(self, other):  # tuple's own __ne__ would compare `work` too
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:-1])

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self[:-1]))
        return f"{type(self).__name__}({fields})"

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = self.family
        p = self.params
        if f is Family.POWER_LAW:
            alpha, xmin = p
            return np.where(x < xmin, 0.0, 1.0 - (np.maximum(x, xmin) / xmin) ** (1.0 - alpha))
        if f is Family.BETA:
            return betainc(p[0], p[1], np.clip(_beta_y(x, *self.rescale), 0.0, 1.0))
        if f is Family.UNIFORM:
            if p[1] == p[0]:
                return (x >= p[0]).astype(float)
            _, x, (lo, hi) = _unit_scaled(x, *p)
            return np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        if f in (Family.CAUCHY, Family.LOGISTIC, Family.NORMAL):
            _, x, (loc, scale) = _unit_scaled(x, *p)
            if f is Family.CAUCHY:
                return np.arctan2(1, (loc - x) / scale) / np.pi
            return (expit if f is Family.LOGISTIC else ndtr)((x - loc) / scale)
        positive = np.maximum(x, 0.0)  # the other families are 0 below 0
        if f is Family.EXPONENTIAL:
            return -np.expm1(-p[0] * positive)
        if f is Family.GAMMA:
            return gammainc(p[0], positive / p[1])
        if f is Family.LOG_NORMAL:
            with np.errstate(divide="ignore"):  # log 0 = -inf, where the CDF is 0
                return ndtr((np.log(positive) - p[0]) / p[1])
        if f is Family.WEIBULL:
            return -np.expm1(-(positive / p[1]) ** p[0])
        raise FitError(f"unknown family {f}")


class InapplicableFit(NamedTuple):
    family: Family
    reason: str


class FitReport(NamedTuple):
    fits: tuple[FittedDistribution | InapplicableFit, ...]
    best: FittedDistribution


def _check_support(family: Family, values: np.ndarray) -> str | None:
    if family in POSITIVE_SUPPORT and values[0] <= 0:
        return "requires strictly positive data"
    if family is Family.POWER_LAW and len(values) == 1:
        return "all samples equal xmin; exponent undefined"
    if family is Family.BETA and len(values) == 1:
        return "constant data; beta rescaling degenerate"
    return None


def _unit_scaled(x: np.ndarray, *params: float) -> tuple[int, np.ndarray, tuple[float, ...]]:
    """e, x / 2^e and each param / 2^e, where 2^e > every |x| and |param|:
    no difference of two quotients overflows, and the divisions change no
    bit of a sum, difference or quotient of them that is not subnormal."""
    e = math.frexp(max([float(np.abs(x).max(initial=0.0)), *map(abs, params)]))[1]
    return e, np.ldexp(x, -e), tuple(math.ldexp(p, -e) for p in params)


def _beta_y(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The beta fit's map (x - lo + BETA_EPS) / (hi - lo + 2 BETA_EPS) into (0, 1)."""
    _, x, (lo, hi, eps) = _unit_scaled(x, lo, hi, BETA_EPS)
    return (x - lo + eps) / (hi - lo + 2 * eps)


def _moments(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """The mean and population standard deviation (the MLE's) over the values
    times their counts, scaled by a power of two >= max |x|, which is exact and
    keeps the variance from overflowing above ~1e154; one value has no spread,
    though count * value / count may round off it."""
    if len(values) == 1:
        return float(values[0]), 0.0
    n = float(counts.sum())
    exponent, scaled, _ = _unit_scaled(values)
    mean = float(counts @ scaled) / n
    var = float(counts @ (scaled - mean) ** 2) / n
    return math.ldexp(mean, exponent), math.ldexp(math.sqrt(var), exponent)


def _quantile(values: np.ndarray, counts: np.ndarray, q: float) -> float:
    """The q-quantile of the values repeated by their counts, by linear
    interpolation, in np.percentile's default method and operations (which
    import numpy.ma), its two order statistics read off the cumulative
    counts."""
    cum = np.cumsum(counts)
    index = q * (int(cum[-1]) - 1)
    lo = math.floor(index)
    ranks = [lo, min(lo + 1, int(cum[-1]) - 1)]
    a, b = values[np.searchsorted(cum, ranks, side="right")].tolist()
    frac = index - lo
    return b - (b - a) * (1 - frac) if frac >= 0.5 else a + (b - a) * frac


def _logistic_mle(data: EmpiricalDistribution, mean: float, sd: float
                  ) -> tuple[tuple[float, float], SolverWork]:
    """Newton's method on the two score equations in Pratt's coordinates
    alpha = 1/scale, beta = loc/scale, where the mean log-likelihood
    log(alpha) + mean g(alpha x - beta), g the standard logistic
    log-density, is concave (Pratt 1981, JASA 76:103). The samples are
    standardised first, u = (x - mean) / sd, so the moment start
    loc = mean, scale = sd sqrt(3) / pi is alpha = pi / sqrt(3), beta = 0."""
    _, x, (loc, scale) = _unit_scaled(data.values, mean, sd)
    u = (x - loc) / scale
    w = data.counts / data.n

    def evaluate(theta):
        alpha, beta = theta
        if not alpha > 0:
            return None
        z = alpha * u - beta
        e = np.exp(-np.abs(z))
        d1 = w * np.sign(z) * (1 - e) / (1 + e)  # w times -g'(z) = tanh(z / 2)
        d2 = w * 2 * e / (1 + e) ** 2  # w times -g''(z)
        value = float(w @ (np.abs(z) + 2 * np.log1p(e))) - math.log(alpha)
        return (value, (float(d1 @ u) - 1 / alpha, -float(d1.sum())),
                (1 / alpha ** 2 + float(d2 @ (u * u)), -float(d2 @ u),
                 float(d2.sum())))

    res = optimize.minimize(evaluate, (math.pi / math.sqrt(3), 0.0), maxiter=100)
    alpha, beta = res.x
    return (mean + sd * beta / alpha, sd / alpha), _work(res)


def _beta_mle(y: np.ndarray, counts: np.ndarray, init: tuple[float, float]
              ) -> tuple[tuple[float, float], SolverWork]:
    """Newton's method on the two score equations in the shapes (a, b),
    where the mean log-likelihood (a - 1) mean(log y) + (b - 1)
    mean(log(1 - y)) - log B(a, b) is concave, since beta is an exponential
    family (Minka, "Estimating a Dirichlet distribution", 2000). The samples
    enter only through those two means."""
    n = float(counts.sum())
    s1, s2 = float(counts @ np.log(y)) / n, float(counts @ np.log1p(-y)) / n

    def evaluate(theta):
        a, b = theta
        if not (a > 0 and b > 0):
            return None
        psi_a, psi_b, psi_ab = digamma(a), digamma(b), digamma(a + b)
        tri_a, tri_b, tri_ab = trigamma(a), trigamma(b), trigamma(a + b)
        value = betaln(a, b) - ((a - 1) * s1 + (b - 1) * s2)
        return (value, (psi_a - s1 - psi_ab, psi_b - s2 - psi_ab),
                (tri_a - tri_ab, -tri_ab, tri_b - tri_ab))

    res = optimize.minimize(evaluate, init, maxiter=100)
    return res.x, _work(res)


def _cauchy_mle(data: EmpiricalDistribution) -> tuple[tuple[float, float], SolverWork]:
    """Newton's method on the mean negative log-likelihood
    log(scale) + mean log(1 + z^2), z = (x - loc) / scale, in (loc,
    log scale), from the quartile start: loc the median, scale half the
    interquartile range, or half the range where that is 0. The likelihood
    is not concave, but where no value holds half the samples its only
    stationary point is its maximum (Copas 1975, Biometrika 62:701), which a
    solver that never climbs reaches. The values are divided by a power of
    two >= max |x|, which is exact and keeps every square finite."""
    exponent, x, _ = _unit_scaled(data.values)
    w = data.counts / data.n
    q25, q50, q75 = (_quantile(x, data.counts, q) for q in (0.25, 0.5, 0.75))
    scale = (q75 - q25) / 2 or (x[-1] - x[0]) / 2

    def evaluate(theta):
        # log(scale) + log(1 + z^2) = log(d^2 + scale^2) - log(scale); with
        # p = 1 / (d^2 + scale^2), q = scale^2 p and r = d^2 p, which lie in
        # [0, 1], no term of a derivative exceeds 1 / scale^2
        loc, tau = theta
        if not abs(tau) < 350:  # scale^2 stays a normal double
            return None
        s2 = math.exp(2 * tau)
        d = x - loc
        p = 1 / (d * d + s2)
        wp, q, r = w * p, s2 * p, d * d * p
        wpd = wp * d
        return (-float(w @ np.log(p)) - tau, (-2 * float(wpd.sum()), 2 * float(w @ q) - 1),
                (2 * float(wp @ (q - r)), 4 * float(wpd @ q), 4 * float(w @ (q * r))))

    if scale > 1e-150:  # below, z^2 could overflow
        res = optimize.minimize(evaluate, (q50, math.log(scale)), maxiter=100)
        (loc, tau), scale = res.x, math.exp(res.x[1])
    if not scale > 1e-150:  # at the start, or where the solver ended
        raise FitError("CA: the scale falls below 1e-150 of the largest |x|")
    return (math.ldexp(loc, exponent), math.ldexp(scale, exponent)), _work(res)


def _gamma_mle(data: EmpiricalDistribution, mean: float
               ) -> tuple[tuple[float, float], SolverWork]:
    """Newton's method in the natural parameters (a, beta) of the samples
    divided by their mean, where the mean negative log-likelihood
    lgamma(a) - a log(beta) + (a - 1) s + beta, s = log(mean) - mean(log x),
    is strictly convex: its Hessian [[trigamma(a), -1/beta], [-1/beta,
    a/beta^2]] has determinant (a trigamma(a) - 1) / beta^2 > 0. It starts
    from Minka's approximation of the shape ("Estimating a Gamma
    distribution", 2002) with beta = a; the scale is mean / beta. From a
    shape of ~1e15 on, the determinant can round to 0 or below, and the
    solver takes its shifted step there."""
    s = math.log(mean) - float(data.counts @ np.log(data.values)) / data.n
    if not s > 0:
        raise FitError("GM: samples too close to constant")
    a = (3 - s + math.sqrt((s - 3) ** 2 + 24 * s)) / (12 * s)

    def evaluate(theta):
        a, beta = theta
        if not (a > 0 and beta > 0):
            return None
        log_beta = math.log(beta)
        return (math.lgamma(a) - a * log_beta + (a - 1) * s + beta,
                (digamma(a) - log_beta + s, 1 - a / beta),
                (trigamma(a), -1 / beta, a / beta ** 2))

    res = optimize.minimize(evaluate, (a, a), maxiter=100)
    a, beta = res.x
    return (a, mean / beta), _work(res)


def _weibull_mle(data: EmpiricalDistribution) -> tuple[tuple[float, float], SolverWork]:
    """Newton's method in (k, b = k log(scale)) on the samples divided by
    their maximum, d = log x <= 0, where the mean negative log-likelihood
    -log k - (k - 1) mean(d) + b + mean(e^(k d - b)) is strictly convex:
    the last term is the exponential of an affine function, and by
    Cauchy-Schwarz the Hessian is positive definite. It starts from the
    shape of the Gumbel spread of log x, k = pi / sqrt(6 var(d)), with
    b = log mean(e^(k d)), where b's score is 0. Powers of x / max(x) lie in
    (0, 1] and cannot overflow."""
    d = np.log(data.values)
    top = float(d[-1])
    d -= top
    _, spread = _moments(d, data.counts)
    if spread == 0:  # distinct values whose logs round to one
        raise FitError("WB: zero log variance")
    w = data.counts / data.n
    mean_d = float(w @ d)

    def evaluate(theta):
        k, b = theta
        if not (k > 0 and b > -700):  # e^(k d - b) <= e^-b stays finite
            return None
        e = w * np.exp(k * d - b)
        de = e * d
        total, first = float(e.sum()), float(de.sum())
        return (b - math.log(k) - (k - 1) * mean_d + total,
                (first - 1 / k - mean_d, 1 - total),
                (1 / k ** 2 + float(de @ d), -first, total))

    k = math.pi / (math.sqrt(6) * spread)
    res = optimize.minimize(evaluate, (k, math.log(float(w @ np.exp(k * d)))), maxiter=100)
    k, b = res.x
    return (k, math.exp(top + b / k)), _work(res)


def fit_mle(family: Family, data: EmpiricalDistribution) -> FittedDistribution:
    """MLE fit of one family. Closed forms where they exist, Newton's method
    on both parameters for gamma, Weibull, logistic, beta and Cauchy, from
    moment, quantile or approximate starts. Raises FitError when the family is
    inapplicable to the data, its likelihood has no maximum, or the fit is
    not finite."""
    if data.n < MIN_SAMPLES:
        raise FitError(f"need at least {MIN_SAMPLES} samples, got {data.n}")
    values, counts, n = data.values, data.counts, data.n
    reason = _check_support(family, values)
    if reason:
        raise FitError(f"{family.value}: {reason}")
    lo, hi = float(values[0]), float(values[-1])
    mean, sd = _moments(values, counts)
    if sd == 0 and family in (Family.NORMAL, Family.GAMMA, Family.WEIBULL, Family.LOGISTIC):
        raise FitError(f"{family.value}: zero variance")
    rescale = None
    work = SolverWork()

    if family is Family.POWER_LAW:
        alpha = 1.0 + n / float(counts @ np.log(values / lo))
        params = (alpha, lo)
    elif family is Family.NORMAL:
        params = (mean, sd)
    elif family is Family.LOG_NORMAL:
        log_mean, s = _moments(np.log(values), counts)
        if s == 0:
            raise FitError("LN: zero log variance")
        params = (log_mean, s)
    elif family is Family.EXPONENTIAL:
        params = (1.0 / mean,)
    elif family is Family.UNIFORM:
        params = (lo, hi)
    elif family is Family.GAMMA:
        params, work = _gamma_mle(data, mean)
    elif family is Family.WEIBULL:
        params, work = _weibull_mle(data)
    elif family is Family.BETA:
        rescale = (lo, hi)
        y = _beta_y(values, lo, hi)
        w = counts / n
        m = float(w @ y)
        v = max(float(w @ (y - m) ** 2), 1e-12)
        common = max(m * (1 - m) / v - 1, 1e-3)
        a0, b0 = max(m * common, 1e-3), max((1 - m) * common, 1e-3)
        # the likelihood keeps y off {0, 1}, where the log-density diverges,
        # and leaves out the rescaling's constant -n log(span)
        params, work = _beta_mle(np.clip(y, 1e-15, 1 - 1e-15), counts, (a0, b0))
    elif family is Family.CAUCHY:
        # with k equal samples the log-likelihood holds (n - 2k) log(scale),
        # unbounded as the scale goes to 0 when 2k > n (Copas 1975); at
        # 2k = n it is bounded, but only approached as the scale goes to 0
        if 2 * int(counts.max()) >= n:
            raise FitError("CA: one value holds at least half the samples; "
                           "the likelihood has no maximum")
        params, work = _cauchy_mle(data)
    elif family is Family.LOGISTIC:
        params, work = _logistic_mle(data, mean, sd)
    else:
        raise FitError(f"unknown family {family}")

    params = tuple(float(p) for p in params)
    fit = FittedDistribution(family=family, params=params, ks=0.0, n=n, rescale=rescale,
                             work=work)
    # every family's last parameter but uniform's is positive: a scale, a
    # rate, a shape or xmin; no KS is computed from a fit where it is not
    if not (all(map(math.isfinite, params)) and (family is Family.UNIFORM or params[-1] > 0)
            and math.isfinite(ks := ks_statistic(fit, data))):
        raise FitError(f"{family.value}: a parameter or the KS statistic is not finite, "
                       "or the scale is not positive")
    return fit._replace(ks=ks)


def ks_statistic(fit: FittedDistribution, data: EmpiricalDistribution) -> float:
    """sup_x |ECDF(x) - F(x)| evaluated at both one-sided jumps of every
    distinct sample; ties jump by their multiplicity."""
    values, cum = data.values, data.cdf  # ECDF at each value (right limit)
    prev = np.concatenate(([0.0], cum[:-1]))  # ECDF just below each value
    f = fit.cdf(values)
    f_left = f  # the CDF's left limit, which differs only at a point mass
    if fit.family is Family.UNIFORM and fit.params[0] == fit.params[1]:
        f_left = (values > fit.params[0]).astype(float)
    d = float(np.max(np.maximum(np.abs(cum - f), np.abs(f_left - prev))))
    return min(max(d, 0.0), 1.0)


def best_fit(data: EmpiricalDistribution) -> FitReport:
    """Fit every applicable family; select the minimal KS statistic, ties
    broken by the fixed family order."""
    if data.n < MIN_SAMPLES:
        raise FitError(f"need at least {MIN_SAMPLES} samples, got {data.n}")
    fits: list[FittedDistribution | InapplicableFit] = []
    best: FittedDistribution | None = None
    for family in FAMILY_ORDER:
        try:
            fit = fit_mle(family, data)
        except FitError as exc:
            fits.append(InapplicableFit(family, str(exc)))
            continue
        fits.append(fit)
        if best is None or fit.ks < best.ks:
            best = fit
    if best is None:
        raise FitError("no family applicable to the data")
    return FitReport(fits=tuple(fits), best=best)
