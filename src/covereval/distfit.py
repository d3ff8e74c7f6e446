"""MLE fitting of ten candidate distribution families and
Kolmogorov-Smirnov goodness-of-fit selection.

Power law and uniform are written out in FittedDistribution. The other
eight families' log-densities and CDFs come from one table (`_FORMS`) in
numpy and `scipy.special`. Each entry computes what the matching scipy 1.17
continuous distribution computes: the same functions of the standardised
z = (x - loc) / scale, on arrays of the same layout, minus log(scale). The
values are therefore bit-identical to scipy's, without its per-call
argument handling, which dominated fitting on small samples.

The MLEs: power law, normal, log-normal, exponential and uniform in closed
form; the gamma shape by Newton's method on its 1-D score equation and the
Weibull shape by a bracketed root of its profile score, each scale then in
closed form; Cauchy, logistic and beta by a Nelder-Mead simplex search. The
root finder and the simplex are covereval's own exact ports of scipy's
(`optimize`), so fitting imports nothing of scipy but `scipy.special`.
Where one value holds at least half the samples the Cauchy likelihood has
no maximum (Copas 1975; at exactly half it is bounded but only approached
as the scale goes to 0), so the family is inapplicable there."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as sc

from . import optimize
from .graph import EmpiricalDistribution

MIN_SAMPLES = 5
BETA_EPS = 1e-9


class FitError(ValueError):
    pass


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


# Fixed tie-break order: power law first, then the remaining families in
# their canonical report order.
FAMILY_ORDER = (
    Family.POWER_LAW, Family.BETA, Family.CAUCHY, Family.EXPONENTIAL,
    Family.GAMMA, Family.LOGISTIC, Family.LOG_NORMAL, Family.NORMAL,
    Family.UNIFORM, Family.WEIBULL,
)

POSITIVE_SUPPORT = {
    Family.POWER_LAW, Family.LOG_NORMAL, Family.GAMMA,
    Family.WEIBULL, Family.EXPONENTIAL,
}

# scipy's constants, in the precision scipy computes them
_LOG_PI = 1.1447298858494002
_SQRT_2PI = np.sqrt(2 * np.pi)
_LOG_SQRT_2PI = np.log(_SQRT_2PI)


def _cauchy_logpdf(z):
    # log1p(z^2) is the more precise form below 1; the other cannot overflow
    absz = np.abs(z)
    near = absz < 1
    far = ~near
    out = np.empty_like(absz)
    out[far] = -_LOG_PI - (2 * np.log(absz[far]) + np.log1p((1 / absz[far]) ** 2))
    out[near] = -_LOG_PI - np.log1p(absz[near] ** 2)
    return out


def _logistic_logpdf(z):
    y = -np.abs(z)
    return y - 2. * sc.log1p(np.exp(y))


def _beta_logpdf(z, a, b):
    lpx = sc.xlog1py(b - 1.0, -z) + sc.xlogy(a - 1.0, z)
    lpx -= sc.betaln(a[:1], b[:1])  # constant; scipy repeats it per element
    return lpx


class _Form(NamedTuple):
    """A family in scipy's standard form. `standard` maps the fitted
    params to (loc, scale, shapes); `logpdf` and `cdf` take z and the shapes
    inside the support [lower, upper]."""
    standard: Callable[[tuple[float, ...]], tuple[float, float, tuple[float, ...]]]
    logpdf: Callable[..., np.ndarray]
    cdf: Callable[..., np.ndarray]
    lower: float = -math.inf
    upper: float = math.inf
    open_density: bool = False  # the density's support excludes its ends


def _loc_scale(p):
    return p[0], p[1], ()


def _shape_scale(p):
    return 0.0, p[1], (p[0],)


_FORMS: dict[Family, _Form] = {
    Family.BETA: _Form(
        lambda p: (0.0, 1.0, p), _beta_logpdf,
        lambda z, a, b: sc.betainc(a, b, z), 0.0, 1.0),
    Family.CAUCHY: _Form(
        _loc_scale, _cauchy_logpdf, lambda z: np.arctan2(1, -z) / np.pi),
    Family.EXPONENTIAL: _Form(
        lambda p: (0.0, 1.0 / p[0], ()), lambda z: -z,
        lambda z: -sc.expm1(-z), 0.0),
    Family.GAMMA: _Form(
        _shape_scale, lambda z, a: sc.xlogy(a - 1.0, z) - z - sc.gammaln(a[:1]),
        lambda z, a: sc.gammainc(a, z), 0.0),
    Family.LOGISTIC: _Form(_loc_scale, _logistic_logpdf, sc.expit),
    Family.LOG_NORMAL: _Form(
        lambda p: (0.0, math.exp(p[0]), (p[1],)),
        lambda z, s: -np.log(z) ** 2 / (2 * s ** 2) - np.log(s * z * _SQRT_2PI),
        lambda z, s: sc.ndtr(np.log(z) / s), 0.0, open_density=True),
    Family.NORMAL: _Form(
        _loc_scale, lambda z: -z ** 2 / 2.0 - _LOG_SQRT_2PI, sc.ndtr),
    Family.WEIBULL: _Form(
        _shape_scale, lambda z, c: np.log(c) + sc.xlogy(c - 1, z) - pow(z, c),
        lambda z, c: -sc.expm1(-pow(z, c)), 0.0),
}


def _standardise(family: Family, x: np.ndarray, params: tuple[float, ...]):
    form = _FORMS.get(family)
    if form is None:
        raise FitError(f"unknown family {family}")
    loc, scale, shapes = form.standard(params)
    valid = scale > 0 and all(s > 0 for s in shapes)
    return form, (x - loc) / scale, scale, shapes, valid


def _reduce(z: np.ndarray, inside: np.ndarray, params: tuple[float, ...]):
    """scipy's `argsreduce`. With every point inside the support the
    parameters become full arrays, otherwise only the inside points are
    kept and the parameters stay one-element arrays. Both layouts are
    kept because numpy's results depend on them: `pow` with a one-element
    exponent of 2, 0.5 or -1 squares, takes the root or inverts, which
    differs in the last bit from `pow` over a full exponent array for a
    few percent of the points."""
    if inside.all():
        return z, [np.full(z.shape, p) for p in params]
    return z[inside], [np.array([p]) for p in params]


def _logpdf(family: Family, x: np.ndarray, params: tuple[float, ...]) -> np.ndarray:
    """Elementwise log-density: NaN for invalid parameters or samples,
    -inf outside the support."""
    form, z, scale, shapes, valid = _standardise(family, x, params)
    if not valid:
        return np.full(z.shape, np.nan)
    if form.open_density:
        inside = (form.lower < z) & (z < form.upper)
    else:
        inside = (form.lower <= z) & (z <= form.upper)
    zin, (*args, scales) = _reduce(z, inside, shapes + (scale,))
    values = form.logpdf(zin, *args) - np.log(scales)
    if zin is z:
        return values
    out = np.full(z.shape, -np.inf)
    out[np.isnan(z)] = np.nan
    out[inside] = values
    return out


def _cdf(family: Family, x: np.ndarray, params: tuple[float, ...]) -> np.ndarray:
    form, z, _, shapes, valid = _standardise(family, x, params)
    if not valid:
        return np.full(z.shape, np.nan)
    out = np.zeros(z.shape)
    out[np.isnan(z)] = np.nan
    out[z >= form.upper] = 1.0
    inside = (form.lower < z) & (z < form.upper)
    zin, args = _reduce(z, inside, shapes)
    out[inside] = form.cdf(zin, *args)
    return out


@dataclass(frozen=True)
class FittedDistribution:
    family: Family
    params: tuple[float, ...]
    ks: float
    n: int
    degenerate: bool = False
    # Beta fits are performed on data rescaled to (0, 1); the transform is
    # carried so the CDF applies to raw values.
    rescale: tuple[float, float] | None = None  # (min, max) of the raw data

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = self.family
        p = self.params
        if f is Family.POWER_LAW:
            alpha, xmin = p
            out = np.where(x < xmin, 0.0, 1.0 - (np.maximum(x, xmin) / xmin) ** (1.0 - alpha))
            return out
        if f is Family.BETA:
            lo, hi = self.rescale
            y = (x - lo + BETA_EPS) / (hi - lo + 2 * BETA_EPS)
            return _cdf(f, np.clip(y, 0.0, 1.0), p)
        if f is Family.UNIFORM:
            lo, hi = p
            if hi == lo:
                return (x >= lo).astype(float)
            return np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        return _cdf(f, x, p)

    def log_likelihood(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        f = self.family
        p = self.params
        if f is Family.POWER_LAW:
            alpha, xmin = p
            return float(np.sum(np.log((alpha - 1) / xmin) - alpha * np.log(x / xmin)))
        if f is Family.BETA:
            lo, hi = self.rescale
            span = hi - lo + 2 * BETA_EPS
            y = (x - lo + BETA_EPS) / span
            return float(np.sum(_logpdf(f, y, p) - math.log(span)))
        if f is Family.UNIFORM:
            lo, hi = p
            if hi == lo:
                return math.inf if np.all(x == lo) else -math.inf
            inside = np.all((x >= lo) & (x <= hi))
            return -len(x) * math.log(hi - lo) if inside else -math.inf
        return float(np.sum(_logpdf(f, x, p)))


@dataclass(frozen=True)
class InapplicableFit:
    family: Family
    reason: str


@dataclass(frozen=True)
class FitReport:
    fits: tuple[FittedDistribution | InapplicableFit, ...]
    best: FittedDistribution

    def by_family(self) -> dict[Family, FittedDistribution | InapplicableFit]:
        return {f.family: f for f in self.fits}


def _check_support(family: Family, x: np.ndarray) -> str | None:
    if family in POSITIVE_SUPPORT and x.min() <= 0:
        return "requires strictly positive data"
    if family is Family.POWER_LAW and np.all(x == x.min()):
        return "all samples equal xmin; exponent undefined"
    if family is Family.BETA and x.min() == x.max():
        return "constant data; beta rescaling degenerate"
    return None


def _numeric_mle(family: Family, x: np.ndarray, init: tuple[float, float],
                 positive: tuple[bool, bool]) -> tuple[float, ...]:
    """Maximize the summed log-density of `x` with a derivative-free
    simplex search; positivity-constrained parameters are optimized in log
    space."""

    def pack(theta):
        return tuple(math.exp(t) if pos else t for t, pos in zip(theta, positive))

    def nll(theta):
        ll = float(_logpdf(family, x, pack(theta)).sum())
        return math.inf if not math.isfinite(ll) else -ll

    theta0 = [math.log(v) if pos else v for v, pos in zip(init, positive)]
    res = optimize.minimize(nll, theta0, xatol=1e-10, fatol=1e-12,
                            maxiter=2000, maxfev=4000)
    if not math.isfinite(res.fun):
        raise FitError(f"{family.value}: optimizer failed at {pack(res.x)}")
    return pack(res.x)


def _gamma_mle(x: np.ndarray, mean: float) -> tuple[float, float]:
    """The shape solves log a - digamma(a) = log(mean) - mean(log x), by
    Newton's method from Minka's approximation ("Estimating a Gamma
    distribution", 2002); the scale is mean / a. The left side is convex and
    decreasing, so from the first step on the iterates rise to the root.
    They stop when the relative step falls below 1e-14, or when the steps
    stop shrinking: near a large root, rounding in log a - digamma(a) moves
    the root by more than that."""
    s = math.log(mean) - float(np.log(x).mean())
    if not s > 0:
        raise FitError("GM: samples too close to constant")
    a = (3 - s + math.sqrt((s - 3) ** 2 + 24 * s)) / (12 * s)
    last = math.inf
    while True:
        # above a ~ 1e8 the slope can round to 0, and the step is inf or nan
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (math.log(a) - sc.digamma(a) - s) / (1 / a - sc.polygamma(1, a))
        if not abs(step) < last:
            return a, mean / a
        last = abs(step)
        a = a - step if step < a else a / 2  # the shape stays positive
        if last <= 1e-14 * a:
            return a, mean / a


def _weibull_mle(x: np.ndarray) -> tuple[float, float]:
    """The shape k is the root of the profile score
    1/k + mean(log x) - sum(x^k log x) / sum(x^k), which falls from +inf
    at k -> 0 to mean(log x) - max(log x) < 0 at k -> inf; the scale is
    mean(x^k)^(1/k). Powers are taken relative to max(x), so they lie in
    (0, 1] and cannot overflow."""
    d = np.log(x)
    top = float(d.max())
    d -= top  # d <= 0, and mean(d) < 0 as the samples are not all equal
    mean_d = float(d.mean())

    def score(k):
        w = np.exp(k * d)
        return 1 / k + mean_d - float(w @ d) / float(w.sum())

    # the weighted mean of d is at most 0, so score(k) >= 1/k + mean(d),
    # which is -mean(d) > 0 at the first lower end; each doubling keeps
    # score(lo) > 0 and the bracket [lo, 2 lo]
    lo = -0.5 / mean_d
    while score(2 * lo) > 0:
        lo *= 2
        if not math.isfinite(lo):
            raise FitError("WB: no root of the shape equation")
    k = optimize.brentq(score, lo, 2 * lo, xtol=1e-300)
    return k, math.exp(top + math.log(float(np.exp(k * d).mean())) / k)


def fit_mle(family: Family, data: EmpiricalDistribution) -> FittedDistribution:
    """MLE fit of one family. Closed forms where they exist, a 1-D equation
    for the gamma and Weibull shapes, otherwise moment-matched
    initialization plus simplex maximization. Raises FitError when the
    family is inapplicable to the data or its likelihood has no maximum."""
    if data.n < MIN_SAMPLES:
        raise FitError(f"need at least {MIN_SAMPLES} samples, got {data.n}")
    x = data.samples
    reason = _check_support(family, x)
    if reason:
        raise FitError(f"{family.value}: {reason}")
    n = len(x)
    mean = float(x.mean())
    # MLE uses the population variance
    var = float(x.var())
    sd = math.sqrt(var)
    rescale = None
    degenerate = False

    if family is Family.POWER_LAW:
        xmin = float(x.min())
        alpha = 1.0 + n / float(np.sum(np.log(x / xmin)))
        params = (alpha, xmin)
    elif family is Family.NORMAL:
        if sd == 0:
            raise FitError("N: zero variance")
        params = (mean, sd)
    elif family is Family.LOG_NORMAL:
        logs = np.log(x)
        s = float(logs.std())
        if s == 0:
            raise FitError("LN: zero log variance")
        params = (float(logs.mean()), s)
    elif family is Family.EXPONENTIAL:
        params = (1.0 / mean,)
    elif family is Family.UNIFORM:
        lo, hi = float(x.min()), float(x.max())
        params = (lo, hi)
        degenerate = lo == hi
    elif family is Family.GAMMA:
        if sd == 0:
            raise FitError("GM: zero variance")
        params = _gamma_mle(x, mean)
    elif family is Family.WEIBULL:
        if sd == 0:
            raise FitError("WB: zero variance")
        params = _weibull_mle(x)
    elif family is Family.BETA:
        lo, hi = float(x.min()), float(x.max())
        rescale = (lo, hi)
        y = (x - lo + BETA_EPS) / (hi - lo + 2 * BETA_EPS)
        m, v = float(y.mean()), max(float(y.var()), 1e-12)
        common = max(m * (1 - m) / v - 1, 1e-3)
        a0, b0 = max(m * common, 1e-3), max((1 - m) * common, 1e-3)
        # the objective keeps y off {0, 1}, where the log-density diverges,
        # and leaves out the rescaling's constant -n log(span)
        params = _numeric_mle(family, np.clip(y, 1e-15, 1 - 1e-15), (a0, b0),
                              (True, True))
    elif family is Family.CAUCHY:
        # with k equal samples the log-likelihood holds (n - 2k) log(scale),
        # unbounded as the scale goes to 0 when 2k > n (Copas 1975); at
        # 2k = n it is bounded, but only approached as the scale goes to 0
        if 2 * int(data.counts.max()) >= n:
            raise FitError("CA: one value holds at least half the samples; "
                           "the likelihood has no maximum")
        q25, q50, q75 = np.percentile(x, [25, 50, 75])
        scale0 = max((q75 - q25) / 2.0, 1e-9)
        params = _numeric_mle(family, x, (float(q50), scale0), (False, True))
    elif family is Family.LOGISTIC:
        if sd == 0:
            raise FitError("LO: zero variance")
        params = _numeric_mle(family, x, (mean, sd * math.sqrt(3) / math.pi),
                              (False, True))
    else:
        raise FitError(f"unknown family {family}")

    params = tuple(float(p) for p in params)
    fit = FittedDistribution(family=family, params=params, ks=0.0, n=n,
                             degenerate=degenerate, rescale=rescale)
    ks = ks_statistic(fit, data)
    return FittedDistribution(family=family, params=params, ks=ks, n=n,
                              degenerate=degenerate, rescale=rescale)


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
