import math
import random
import re
import warnings

import numpy as np
import pytest
from scipy import optimize, special as sc, stats

from covereval import distfit
from covereval.distfit import (
    BETA_EPS, FAMILY_ORDER, POSITIVE_SUPPORT, Family, FitError,
    FittedDistribution, InapplicableFit, SolverWork, best_fit, fit_mle, ks_statistic,
)
from covereval.graph import EmpiricalDistribution

from oracles import brute_ks, scipy_cdf, scipy_log_likelihood


def dist(values):
    return EmpiricalDistribution(values)


@pytest.fixture
def objectives(monkeypatch):
    """Every (evaluate, x0) that a fit passes optimize.minimize, in order."""
    calls = []
    minimize = distfit.optimize.minimize

    def record(evaluate, x0, **options):
        calls.append((evaluate, np.array(x0)))
        return minimize(evaluate, x0, **options)

    monkeypatch.setattr(distfit.optimize, "minimize", record)
    return calls


def log_likelihood(fit, x):
    """The fit's log-likelihood of the samples x, summed per sample with
    scipy.stats."""
    return scipy_log_likelihood(fit.family.value, fit.params, x, fit.rescale)


# Two fixed samples and every family's fitted params and KS on them
# (numpy 2.4.6, covereval's own special functions): gamma, Weibull, logistic
# and beta are Newton's method on their two-parameter likelihoods, Cauchy
# Newton's method from its quartile start, all through one solver
# (`optimize.minimize`), each summed over the distinct values. In TIES one value
# holds more than half the samples: the Cauchy likelihood has no maximum
# there, so the family is inapplicable and its entry is the reason.
TIES = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 7]
REAL = [0.42, 0.57, 0.61, 0.83, 0.9, 1.07, 1.18, 1.3, 1.46, 1.52, 1.77, 1.9,
        2.14, 2.38, 2.6, 2.95, 3.3, 3.71, 4.4, 5.25, 6.8, 9.1]
RECORDED = {
    "TIES": {
        "PL": ((3.1695954208616266, 1.0), 0.6),
        "BE": ((0.056298658235051924, 0.18909451712483114), 0.379814944162276),
        "CA": "CA: one value holds at least half the samples; the likelihood has no maximum",
        "E": ((0.5,), 0.3934693402873666),
        "GM": ((2.3059322435814282, 0.8673281730488864), 0.36185863458552153),
        "LO": ((1.6776733465511842, 0.7943233706390093), 0.30122654979446),
        "LN": ((0.460915427081268, 0.6286917011858486), 0.36826172782725897),
        "N": ((2.0, 1.61245154965971), 0.3324282738011247),
        "U": ((1.0, 7.0), 0.6),
        "WB": ((1.42127260041554, 2.2287800942723965), 0.32606790459956175),
    },
    "REAL": {
        "PL": ((1.6705245997844758, 0.42), 0.23856054212483527),
        "BE": ((0.24881188928462433, 0.37376098374111744), 0.2763087845418427),
        "CA": ((1.6103439603408056, 0.8500952537513278), 0.19740490484807469),
        "E": ((0.39173789173789175,), 0.154663083477864),
        "GM": ((1.744053305220503, 1.4636750293618623), 0.09754482712371887),
        "LO": ((2.195744263130585, 1.0926173624796713), 0.16448614126718247),
        "LN": ((0.6238690260751718, 0.7979385524004876), 0.0559988689324849),
        "N": ((2.5527272727272727, 2.1400556106159776), 0.17300646873148562),
        "U": ((0.42, 9.1), 0.4409300377042312),
        "WB": ((1.3051167494681881, 2.7877358523760964), 0.09080957963474107),
    },
}


def random_params(family, x, rng):
    """Parameters on the scale of x, valid for the family."""
    def pos():
        return float(np.exp(rng.normal(0.0, 1.0)))

    if family is Family.POWER_LAW:
        return (1.0 + pos(), float(x.min()))
    if family is Family.EXPONENTIAL:
        return (pos() / float(x.mean()),)
    if family is Family.UNIFORM:
        pad = pos() * float(rng.integers(0, 2))  # the sample range or wider
        return (float(x.min()) - pad, float(x.max()) + pad)
    if family is Family.LOG_NORMAL:
        return (float(rng.normal(np.log(x.mean()), 1.0)), pos())
    if family is Family.BETA:
        return (pos(), pos())
    if family in (Family.GAMMA, Family.WEIBULL):
        return (pos(), pos() * float(x.mean()))
    return (float(rng.normal(x.mean(), x.std() + 1.0)), pos() * (float(x.std()) + 0.1))


class TestFitMle:
    def test_normal_recovery(self):
        rng = np.random.default_rng(101)
        fit = fit_mle(Family.NORMAL, dist(rng.normal(5, 2, 1000)))
        assert fit.params[0] == pytest.approx(5, abs=0.2)
        assert fit.params[1] == pytest.approx(2, abs=0.2)

    def test_uniform_constant_degenerate(self):
        fit = fit_mle(Family.UNIFORM, dist([2, 2, 2, 2, 2]))
        # a point mass: the CDF's jump at 2 matches the ECDF's
        assert fit.params == (2.0, 2.0) and fit.ks == 0.0

    def test_power_law_recovery(self):
        rng = np.random.default_rng(103)
        u = rng.random(10000)
        x = (1 - u) ** (-1 / 1.5)  # continuous power law, alpha = 2.5, xmin = 1
        fit = fit_mle(Family.POWER_LAW, dist(x))
        assert fit.params[0] == pytest.approx(2.5, abs=0.1)
        assert fit.params[1] == pytest.approx(1.0, abs=0.01)

    def test_exponential_recovery(self):
        rng = np.random.default_rng(107)
        fit = fit_mle(Family.EXPONENTIAL, dist(rng.exponential(0.5, 2000)))
        assert fit.params[0] == pytest.approx(2.0, rel=0.1)

    def test_lognormal_recovery(self):
        rng = np.random.default_rng(109)
        fit = fit_mle(Family.LOG_NORMAL, dist(rng.lognormal(1.0, 0.7, 2000)))
        assert fit.params[0] == pytest.approx(1.0, abs=0.1)
        assert fit.params[1] == pytest.approx(0.7, abs=0.1)

    def test_support_violation(self):
        with pytest.raises(FitError):
            fit_mle(Family.POWER_LAW, dist([-1, 1, 2, 3, 4]))
        with pytest.raises(FitError):
            fit_mle(Family.GAMMA, dist([0, 1, 2, 3, 4]))

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_mle(Family.NORMAL, dist([1, 2, 3, 4]))

    def test_huge_samples_fit_or_fail_loudly(self):
        # x.var() overflows above ~1e154; every family either fits with
        # finite parameters and KS, without an overflow warning, or raises
        data = dist([1e200, 2e200, 3e200, 5e200, 8e200, 9e200])
        for family in FAMILY_ORDER:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    fit = fit_mle(family, data)
                except FitError:
                    continue
            assert all(map(math.isfinite, fit.params + (fit.ks,))), family

    def test_non_finite_fits_are_inapplicable(self):
        # subnormal samples: the logistic scale rounds to 0, where the KS
        # would be NaN, and the exponential rate to inf; both families are
        # inapplicable, with no numpy warning, and every other fit is finite
        data = dist([5e-324, 1e-323, 1.5e-323, 5e-324, 1e-323, 1e-323])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in (Family.LOGISTIC, Family.EXPONENTIAL):
                with pytest.raises(FitError, match=f"^{family.value}: .* not finite"):
                    fit_mle(family, data)
            report = best_fit(data)
        inapplicable = {f.family for f in report.fits if isinstance(f, InapplicableFit)}
        assert {Family.LOGISTIC, Family.EXPONENTIAL} <= inapplicable
        for fit in report.fits:
            if not isinstance(fit, InapplicableFit):
                assert all(map(math.isfinite, fit.params + (fit.ks,))), fit.family

    @pytest.mark.parametrize("shape", ["hops", "seeded"])
    def test_weighted_closed_forms_equal_the_per_sample_formulas(self, shape):
        # heavily tied samples, hop distances at levels 1-6 (~1e6 samples)
        # or seeded draws rounded to two decimals: the fits sum over the
        # distinct values, numpy's formulas over every sample
        if shape == "hops":
            data = EmpiricalDistribution.from_counts(
                np.arange(1, 7), np.array([4_100, 61_000, 402_000, 391_000, 130_000, 11_900]))
        else:
            data = dist(np.round(np.random.default_rng(31).lognormal(0.5, 0.8, 50_000), 2))
        x = np.repeat(data.values, data.counts)
        logs = np.log(x)
        want = {
            Family.NORMAL: (x.mean(), x.std()),
            Family.LOG_NORMAL: (logs.mean(), logs.std()),
            Family.POWER_LAW: (1 + len(x) / np.log(x / x.min()).sum(), x.min()),
            Family.EXPONENTIAL: (1 / x.mean(),),
        }
        for family, params in want.items():
            np.testing.assert_allclose(fit_mle(family, data).params, params, rtol=1e-14, atol=0,
                                       err_msg=family.value)

    def test_numeric_families_are_local_maxima(self):
        rng = np.random.default_rng(113)
        x = np.abs(rng.normal(3, 1, 400)) + 0.5
        xs = np.asarray(sorted(x))
        for family in (Family.GAMMA, Family.WEIBULL, Family.CAUCHY,
                       Family.LOGISTIC):
            fit = fit_mle(family, dist(x))
            ll = log_likelihood(fit, xs)
            for i in range(len(fit.params)):
                for eps in (0.99, 1.01):
                    p = list(fit.params)
                    p[i] *= eps
                    alt = FittedDistribution(family, tuple(p), ks=0.0,
                                             n=fit.n, rescale=fit.rescale)
                    assert log_likelihood(alt, xs) <= ll + 1e-6

    def test_closed_forms_beat_moment_matching(self):
        rng = np.random.default_rng(127)
        x = rng.lognormal(0.5, 0.8, 500)
        xs = np.asarray(sorted(x))
        fit = fit_mle(Family.LOG_NORMAL, dist(x))
        # moment-matched lognormal parameters
        m, v = xs.mean(), xs.var()
        sigma2 = math.log(1 + v / m**2)
        mm = FittedDistribution(Family.LOG_NORMAL,
                                (math.log(m) - sigma2 / 2, math.sqrt(sigma2)),
                                ks=0.0, n=len(xs))
        assert log_likelihood(fit, xs) >= log_likelihood(mm, xs) - 1e-9


def positive_samples(rng):
    """Seeded positive samples of several shapes; every third is
    integer-valued, so it has ties."""
    for trial in range(30):
        n = int(rng.integers(5, 120))
        if trial % 3 == 0:
            x = rng.integers(1, 12, n).astype(float)
        elif trial % 3 == 1:
            x = rng.lognormal(0.5, 1.2, n)
        else:
            x = rng.weibull(float(rng.uniform(0.4, 4.0)), n) * 3.0
        if x.min() < x.max():
            yield x


class TestShapeEquations:
    """The gamma and Weibull fits solve the shape equations of the maximum
    likelihood, though Newton's method runs on both parameters at once;
    Cauchy is inapplicable where its likelihood has no maximum."""

    def test_gamma_solves_its_score_equation(self):
        for x in positive_samples(np.random.default_rng(401)):
            a, scale = fit_mle(Family.GAMMA, dist(x)).params
            s = math.log(x.mean()) - np.log(x).mean()
            assert math.log(a) - sc.digamma(a) == pytest.approx(s, abs=1e-10)
            assert a * scale == pytest.approx(x.mean(), rel=1e-12)

    def test_weibull_solves_its_score_equation(self):
        for x in positive_samples(np.random.default_rng(409)):
            k, scale = fit_mle(Family.WEIBULL, dist(x)).params
            xk = (x / x.max()) ** k
            score = 1 / k + np.log(x).mean() - (xk @ np.log(x)) / xk.sum()
            assert abs(score) < 1e-10
            assert (scale / x.max()) ** k == pytest.approx(xk.mean(), rel=1e-10)

    def test_likelihood_at_least_the_simplex_search(self):
        # scipy's simplex search in log space, from the moment
        # initialisations the two families used before their shape
        # equations were solved
        for x in positive_samples(np.random.default_rng(419)):
            data, xs = dist(x), np.sort(x)
            mean, var = float(x.mean()), float(x.var())
            inits = {
                Family.GAMMA: (mean * mean / var, var / mean),
                Family.WEIBULL: (max(0.1, 1.2 / max(float(np.log(x).std()), 1e-6)), mean),
            }
            for family, init in inits.items():
                searched = best_simplex(
                    lambda t: scipy_log_likelihood(family.value, np.exp(t), xs),
                    [np.log(init)])
                ll = log_likelihood(fit_mle(family, data), xs)
                assert ll >= searched - 1e-9, family

    def test_gamma_inapplicable_on_samples_equal_up_to_rounding(self):
        # log(mean) - mean(log x) rounds to 0 or below, where the shape
        # equation has no solution
        with pytest.raises(FitError, match="too close to constant"):
            fit_mle(Family.GAMMA, dist([1.0] * 4 + [1.0 + 2.2e-16]))

    def test_gamma_shape_of_near_constant_samples(self):
        # samples within ~1e-7 of each other: the shape is ~1e14, about
        # mean^2 / var, not below 1. The rounding of s and of the score,
        # ~1e-15 against s ~ 5e-15, leaves the shape known to a factor of
        # ~2. The fit is read without its KS, which takes seconds there
        rng = np.random.default_rng(449)
        for scale in (1e-3, 1.0, 1e3):
            x = scale * (1 + 1e-7 * rng.standard_normal(60))
            a, gamma_scale = distfit._gamma_mle(dist(x), float(x.mean()))[0]
            assert 1 / 4 < a / (x.mean() ** 2 / x.var()) < 4
            assert a * gamma_scale == pytest.approx(x.mean(), rel=1e-6)

    def test_weibull_inapplicable_when_every_log_is_equal(self):
        # distinct samples whose logs are one double leave no spread to
        # start the shape from
        with pytest.raises(FitError, match="WB: zero log variance"):
            fit_mle(Family.WEIBULL, dist([1e300] * 4 + [1.0000000000000002e300]))

    def test_weibull_finite_over_twelve_decades(self):
        rng = np.random.default_rng(421)
        for x in (np.geomspace(1e-6, 1e6, 50),
                  np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 300)),
                  np.array([1e-6] * 20 + [1e6])):
            fit = fit_mle(Family.WEIBULL, dist(x))
            assert all(math.isfinite(p) and p > 0 for p in fit.params)
            assert math.isfinite(log_likelihood(fit, np.sort(x)))

    def test_cauchy_inapplicable_when_one_value_holds_more_than_half(self):
        rng = np.random.default_rng(431)
        for n in (5, 6, 20, 21):
            rest = rng.normal(5.0, 2.0, n - (n // 2 + 1))
            report = best_fit(dist(np.concatenate(([3.0] * (n // 2 + 1), rest))))
            cauchy = report.fits[FAMILY_ORDER.index(Family.CAUCHY)]
            assert isinstance(cauchy, InapplicableFit)
            assert "at least half" in cauchy.reason

    def test_cauchy_inapplicable_when_one_value_holds_exactly_half(self):
        rng = np.random.default_rng(433)
        samples = [[1, 1, 1, 1, 1, 2, 3, 4, 5, 9]]
        samples += [np.concatenate(([3.0] * (n // 2), rng.normal(5.0, 2.0, n // 2)))
                    for n in (6, 20)]
        for x in samples:
            with pytest.raises(FitError, match="at least half"):
                fit_mle(Family.CAUCHY, dist(x))

    def test_cauchy_inapplicable_below_the_smallest_scale(self):
        # four of six samples within 3e-200 of 0: the quartile start's scale
        # is below 1e-150 of the largest |x|, where squares would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="below 1e-150"):
                fit_mle(Family.CAUCHY, dist([-1, 0, 1e-200, 2e-200, 3e-200, 1]))

    def test_cauchy_cdf_near_the_largest_double(self):
        # loc - x overflows unscaled here; the CDF takes it on loc, x and
        # scale divided by one power of two >= max |x|
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mle(Family.CAUCHY, dist([-1.79e308, -1.7e308, 1e308, 1.7e308, 1.79e308]))
            cdf = fit.cdf(np.array([-1.79e308, 0.0, 1.79e308]))
        assert 0.0 < fit.ks < 1.0 and 0.0 < cdf[0] < cdf[1] < cdf[2] < 1.0

    def test_cauchy_cdf_scaling_keeps_every_bit(self):
        # dividing by a power of two is exact, so wherever the unscaled
        # formula does not overflow it gives the same bits
        rng = np.random.default_rng(83)
        for magnitude in (1e-300, 1e-3, 1.0, 7.0, 1e5, 1e300):
            loc, scale = float(rng.normal()) * magnitude, float(rng.random() + 0.01) * magnitude
            x = rng.standard_cauchy(50) * magnitude
            fit = FittedDistribution(Family.CAUCHY, (loc, scale), ks=0.0, n=50)
            assert np.array_equal(fit.cdf(x), np.arctan2(1, (loc - x) / scale) / np.pi)
        # loc and scale far above every x
        fit = FittedDistribution(Family.CAUCHY, (1e300, 1e290), ks=0.0, n=1)
        x = np.array([-1e-10, 0.0, 3.5])
        assert np.array_equal(fit.cdf(x), np.arctan2(1, (1e300 - x) / 1e290) / np.pi)

    def test_cauchy_likelihood_at_exactly_half_peaks_at_zero_scale(self):
        # With k = n/2 samples at v the log-likelihood is bounded by its
        # scale -> 0 limit at loc = v, -n log(pi) - sum_{x != v} log (x - v)^2;
        # a simplex search from several starts gets no higher
        rng = np.random.default_rng(439)
        for n in (6, 10, 20):
            v = float(rng.normal(3.0, 1.0))
            rest = rng.normal(v, float(rng.uniform(0.5, 4.0)), n // 2)
            x = np.concatenate(([v] * (n // 2), rest))
            limit = -n * math.log(math.pi) - float(np.sum(np.log((rest - v) ** 2)))
            near = float(stats.cauchy.logpdf(x, v, 1e-9).sum())
            assert near <= limit and near == pytest.approx(limit, abs=1e-6)
            q25, q50, q75 = np.percentile(x, [25, 50, 75])
            for loc0 in (v, float(q50), float(x.mean()), v + 0.5):
                for scale0 in (1e-3, 1.0, float(q75 - q25) / 2 + 1e-3):
                    res = optimize.minimize(
                        lambda t: -float(stats.cauchy.logpdf(x, t[0], math.exp(t[1])).sum()),
                        [loc0, math.log(scale0)], method="Nelder-Mead",
                        options={"xatol": 1e-10, "fatol": 1e-12, "maxfev": 2000})
                    assert -res.fun <= limit + 1e-9 * abs(limit)


def tied_samples(rng):
    """Seeded samples with ties on scales from 1e-3 to 1e6: 780 samples of
    three values, then rounded logistic, beta and log-normal draws and
    samples of two distinct values in turn."""
    yield np.repeat([1.0, 2.0, 5.0], [500, 200, 80])
    for trial in range(36):
        n = int(rng.integers(5, 150))
        kind = trial % 4
        if kind == 0:
            x = np.round(rng.logistic(3.0, 2.0, n))
        elif kind == 1:
            x = np.round(rng.beta(0.6, 2.0, n), 1)
        elif kind == 2:
            x = np.round(rng.lognormal(0.5, 1.0, n), 1)
        else:
            k = int(rng.integers(1, n))
            x = np.repeat(rng.normal(0.0, 3.0, 2), [k, n - k])
        if x.min() < x.max():
            yield x * 10.0 ** float(rng.uniform(-3, 6))


def cauchy_samples(rng):
    """The tied samples, then rounded Cauchy draws on scales from 1e-3 to
    1e6, every other one with a value repeated to just under half of them."""
    yield from tied_samples(rng)
    for trial in range(24):
        n = int(rng.integers(5, 150))
        x = np.round(rng.standard_cauchy(n) * 4 + float(rng.normal(0, 10)))
        if trial % 2:
            x[: (n - 1) // 2] = x[-1]
        yield x * 10.0 ** float(rng.uniform(-3, 6))


def beta_y(fit, x):
    """The rescaled samples the beta fit maximizes its likelihood over."""
    lo, hi = fit.rescale
    return np.clip((x - lo + BETA_EPS) / (hi - lo + 2 * BETA_EPS), 1e-15, 1 - 1e-15)


def logistic_ll(loc, scale, x):
    z = np.abs((x - loc) / scale)
    return float(np.sum(-z - 2 * np.log1p(np.exp(-z)))) - len(x) * math.log(scale)


def beta_ll(a, b, y):
    return float(np.sum(sc.xlogy(a - 1, y) + sc.xlog1py(b - 1, -y))) - len(y) * sc.betaln(a, b)


def best_simplex(objective, starts):
    """The highest value scipy's Nelder-Mead reaches from the starts."""
    return max(-optimize.minimize(lambda t: -objective(t), start, method="Nelder-Mead",
                                  options={"xatol": 1e-12, "fatol": 1e-13,
                                           "maxfev": 4000}).fun
               for start in starts)


class TestScoreEquations:
    """Logistic, beta and Cauchy are fitted by Newton's method on their two
    score equations; every iterative fit sums over the distinct values with
    their counts, which must equal the sum over the samples."""

    # Newton's method converges quadratically; with a wrong Hessian the fits
    # still reach the root, but in several times as many steps
    MAX_STEPS = 25

    def test_logistic_solves_its_score_equations(self):
        # the mean scores in loc and log(scale), times the scale:
        # mean tanh(z/2) = 0 and mean z tanh(z/2) = 1
        for x in tied_samples(np.random.default_rng(503)):
            fit = fit_mle(Family.LOGISTIC, dist(x))
            loc, scale = fit.params
            t = np.tanh((x - loc) / scale / 2)
            assert abs(t.mean()) <= 1e-10
            assert abs(((x - loc) / scale * t).mean() - 1) <= 1e-10
            assert fit.work.iterations <= self.MAX_STEPS

    def test_beta_solves_its_score_equations(self):
        for x in tied_samples(np.random.default_rng(509)):
            fit = fit_mle(Family.BETA, dist(x))
            a, b = fit.params
            y = beta_y(fit, x)
            assert abs(np.log(y).mean() - sc.digamma(a) + sc.digamma(a + b)) <= 1e-10
            assert abs(np.log1p(-y).mean() - sc.digamma(b) + sc.digamma(a + b)) <= 1e-10
            assert fit.work.iterations <= self.MAX_STEPS

    def test_likelihood_at_least_the_scipy_simplex(self):
        # scipy's Nelder-Mead from the moment start and from three others,
        # on the per-sample log-likelihood
        for x in tied_samples(np.random.default_rng(521)):
            data = dist(x)
            mean, sd = float(x.mean()), float(x.std())
            loc, scale = fit_mle(Family.LOGISTIC, data).params
            searched = best_simplex(
                lambda t: logistic_ll(t[0] * sd, math.exp(t[1]) * sd, x),
                [(mean / sd, math.log(math.sqrt(3) / math.pi)), (mean / sd, 0.0),
                 (mean / sd + 0.5, -1.0), (mean / sd - 0.5, 1.0)])
            assert logistic_ll(loc, scale, x) >= searched - 1e-9

            fit = fit_mle(Family.BETA, data)
            y = beta_y(fit, x)
            m, v = y.mean(), y.var()
            common = max(m * (1 - m) / v - 1, 1e-3)
            start = (math.log(m * common), math.log((1 - m) * common))
            searched = best_simplex(
                lambda t: beta_ll(math.exp(t[0]), math.exp(t[1]), y),
                [start, (0.0, 0.0), (start[0] + 1, start[1] - 1), (start[0] - 1, start[1] + 1)])
            assert beta_ll(*fit.params, y) >= searched - 1e-9

    def test_weighted_cauchy_objective_equals_the_per_sample_sum(self, objectives):
        # Newton's method minimizes the mean negative log-likelihood in (loc,
        # log scale) of the values divided by 2^e >= max |x|, without its
        # constant log(pi); its gradient and Hessian are the value's
        rng = np.random.default_rng(523)
        for trial in range(30):
            x = np.round(rng.standard_cauchy(int(rng.integers(5, 150))) * 3 + 1)
            objectives.clear()
            try:
                fit_mle(Family.CAUCHY, dist(x))
            except FitError:
                continue
            (evaluate, x0), = objectives
            e = math.frexp(float(np.abs(x).max()))[1]
            for theta in (x0, x0 + (0.3, -0.2), x0 + (-1.0, 0.5)):
                value, grad, hess = evaluate(tuple(theta))
                want = -float(np.mean(stats.cauchy.logpdf(
                    x, math.ldexp(theta[0], e), math.ldexp(math.exp(theta[1]), e))))
                assert value + math.log(math.pi) + e * math.log(2) == pytest.approx(
                    want, rel=1e-12, abs=1e-12)
                # central differences of 1e-6 in units of the scale for loc and
                # of 1 for log scale, in which every derivative is of order 1
                units = np.array([math.exp(theta[1]), 1.0])
                for i in range(2):
                    h = 1e-6 * units * np.eye(2)[i]
                    up, down = evaluate(tuple(theta + h)), evaluate(tuple(theta - h))
                    assert grad[i] * units[i] == pytest.approx((up[0] - down[0]) / 2e-6,
                                                               abs=1e-8)
                    slopes = (np.array(up[1]) - np.array(down[1])) / 2e-6 * units
                    assert np.array(hess[i:i + 2]) * units[i] * units == pytest.approx(
                        slopes, abs=1e-6)

    def test_cauchy_solves_its_score_equations(self):
        # mean z / (1 + z^2) = 0 and mean 1 / (1 + z^2) = 1/2, z = (x - loc) /
        # scale; the terms are at most 1 in size
        fitted = 0
        for x in cauchy_samples(np.random.default_rng(547)):
            try:
                fit = fit_mle(Family.CAUCHY, dist(x))
            except FitError:
                continue
            loc, scale = fit.params
            w = 1 / (1 + ((x - loc) / scale) ** 2)
            assert abs((w * (x - loc) / scale).mean()) <= 1e-10
            assert abs(w.mean() - 0.5) <= 1e-10
            assert not fit.work.capped
            assert fit.work.iterations <= self.MAX_STEPS
            fitted += 1
        assert fitted >= 30

    def test_cauchy_likelihood_at_least_the_scipy_simplex(self):
        # scipy's Nelder-Mead from the quartile start and from three others,
        # on the per-sample log-likelihood, in units of the samples' spread
        for x in list(cauchy_samples(np.random.default_rng(557)))[::3]:
            try:
                loc, scale = fit_mle(Family.CAUCHY, dist(x)).params
            except FitError:
                continue
            sd = float(x.std())
            q25, q50, q75 = np.percentile(x, [25, 50, 75]) / sd
            start = (q50, math.log(max((q75 - q25) / 2, 1e-3)))
            searched = best_simplex(
                lambda t: float(stats.cauchy.logpdf(x, t[0] * sd, math.exp(t[1]) * sd).sum()),
                [start, (float(x.mean()) / sd, 0.0), (start[0] + 0.5, start[1] - 1),
                 (start[0] - 0.5, start[1] + 1)])
            assert float(stats.cauchy.logpdf(x, loc, scale).sum()) >= searched - 1e-9

    def test_cauchy_fit_is_shift_and_scale_equivariant(self):
        # the fit of a (x + c) is a (loc + c), |a| scale; a Nelder-Mead
        # simplex was not: on REAL its KS moved from 0.1974049002 to
        # 0.1974049162 at a = 1e12
        samples = [np.array(REAL), *cauchy_samples(np.random.default_rng(563))]
        for x in samples:
            try:
                fit = fit_mle(Family.CAUCHY, dist(x))
            except FitError:
                continue
            loc, scale = fit.params
            for a, c in ((1e12, 0.0), (1e-7, 0.0), (-3.0, 0.0), (1.0, 17.5), (2e5, -40.0)):
                moved = fit_mle(Family.CAUCHY, dist(a * (x + c)))
                assert abs(moved.params[0] / a - c - loc) <= 1e-10 * scale
                assert moved.params[1] / abs(a) == pytest.approx(scale, rel=1e-10)
                assert moved.ks == pytest.approx(fit.ks, abs=1e-10)

    def test_weighted_weibull_score_equals_the_per_sample_sum(self, objectives):
        # the objective, its gradient (the score, negated) and its Hessian,
        # summed over the distinct values, against the sums over the
        # samples x / max(x): with d = log x - max(log x) and e = e^(k d - b),
        # -log k - (k - 1) mean d + b + mean e, its derivatives in (k, b)
        for x in tied_samples(np.random.default_rng(541)):
            if x.min() <= 0 or np.ptp(np.log(x)) == 0:
                continue
            objectives.clear()
            fit_mle(Family.WEIBULL, dist(x))
            (evaluate, (k, b)), = objectives
            d = np.log(x) - np.log(x).max()
            for kk, bb in ((k, b), (k / 3, b - 1), (2 * k, b + 0.5), (3 * k, b - 0.3)):
                e = np.exp(kk * d - bb)
                want = (-math.log(kk) - (kk - 1) * d.mean() + bb + e.mean(),
                        (-1 / kk - d.mean() + (d * e).mean(), 1 - e.mean()),
                        (1 / kk ** 2 + (d * d * e).mean(), -(d * e).mean(), e.mean()))
                value, grad, hess = evaluate((kk, bb))
                # the terms' size, so a derivative near 0 is compared fairly
                size = 1 / kk + float(np.abs(d).max()) * (1 + float(e.max()))
                assert value == pytest.approx(want[0], rel=1e-12, abs=1e-12 * size)
                assert grad == pytest.approx(want[1], rel=1e-12, abs=1e-12 * size)
                assert hess == pytest.approx(want[2], rel=1e-12, abs=1e-12 * size * size)

    @pytest.mark.parametrize("family", [Family.GAMMA, Family.WEIBULL], ids=lambda f: f.value)
    def test_objective_is_strictly_convex_with_its_derivatives(self, family, objectives):
        # at random points about each fit's start, the gradient equals
        # central differences of the value and the Hessian those of the
        # gradient, and the Hessian is positive definite: the convexity
        # that Newton's method relies on; steps of 1e-6 of each coordinate's
        # unit, the shape and beta relative, b absolute
        rng = np.random.default_rng(601 if family is Family.GAMMA else 607)
        points = 0
        for x in positive_samples(rng):
            objectives.clear()
            try:
                fit_mle(family, dist(x))
            except FitError:
                continue
            (evaluate, x0), = objectives
            for _ in range(5):
                if family is Family.GAMMA:
                    theta = x0 * np.exp(rng.normal(0.0, 1.0, 2))
                    units = theta
                else:
                    theta = x0 * (math.exp(rng.normal(0.0, 1.0)), 1.0) + (0.0, rng.normal(0.0, 1.0))
                    units = np.array([theta[0], 1.0])
                value, grad, hess = evaluate(tuple(theta))
                h00, h01, h11 = hess
                assert h00 > 0 and h00 * h11 - h01 * h01 > 0
                hess = np.array([[h00, h01], [h01, h11]])
                for i in range(2):
                    step = 1e-6 * units * np.eye(2)[i]
                    up, down = evaluate(tuple(theta + step)), evaluate(tuple(theta - step))
                    # the value's rounding, over the step
                    slack = 1e-16 * max(abs(up[0]), 1.0) / 1e-6
                    assert grad[i] * units[i] == pytest.approx(
                        (up[0] - down[0]) / 2e-6, rel=1e-6, abs=1e-8 + 10 * slack)
                    slopes = (np.array(up[1]) - np.array(down[1])) / 2e-6 * units
                    assert hess[i] * units[i] * units == pytest.approx(
                        slopes, rel=1e-5, abs=1e-8 * np.abs(hess[i] * units[i] * units).max())
                points += 1
        assert points >= 100


ITERATIVE = (Family.BETA, Family.CAUCHY, Family.GAMMA, Family.LOGISTIC, Family.WEIBULL)


class TestSolverWork:
    """Each fit records its solver's work, outside the fit's value."""

    def test_iterative_fits_record_their_work(self):
        data = dist(REAL)
        for family in ITERATIVE:
            work = fit_mle(family, data).work
            assert 0 < work.iterations <= work.evaluations, family
            assert not work.capped, family

    def test_closed_forms_record_none(self):
        data = dist(REAL)
        for family in (Family.POWER_LAW, Family.EXPONENTIAL, Family.LOG_NORMAL,
                       Family.NORMAL, Family.UNIFORM):
            assert fit_mle(family, data).work == SolverWork(0, 0, False), family

    def test_caps_are_recorded(self, monkeypatch):
        # every iterative fit, Cauchy's included, is one Newton solve, so one
        # step is all its work
        data = dist(REAL)
        minimize = distfit.optimize.minimize
        monkeypatch.setattr(distfit.optimize, "minimize",
                            lambda evaluate, x0, maxiter: minimize(evaluate, x0, maxiter=1))
        for family in ITERATIVE:
            assert fit_mle(family, data).work[::2] == (1, True), family

    def test_two_parameter_fits_share_one_solver(self, monkeypatch):
        # one call to optimize.minimize per logistic, beta, applicable
        # Cauchy, gamma and Weibull fit, and none by a closed form; a
        # benchmark counts the work of every fit by wrapping that one name,
        # and reads each result's nfev and success
        calls = []
        minimize = distfit.optimize.minimize

        def record(evaluate, x0, **options):
            res = minimize(evaluate, x0, **options)
            calls.append(res)
            return res

        monkeypatch.setattr(distfit.optimize, "minimize", record)
        for x in (TIES, REAL, [1.0, 1.0, 2.0, 3.0, 5.0, 8.0]):
            for family in FAMILY_ORDER:
                before = len(calls)
                try:
                    fit = fit_mle(family, dist(x))
                except FitError:
                    assert len(calls) == before, family
                    continue
                solved = family in ITERATIVE
                assert len(calls) - before == solved, family
                if solved:
                    res = calls[-1]
                    assert fit.work.evaluations - res.nfev == fit.work.iterations - res.nit
        assert len(calls) == 14
        assert all(isinstance(res.nfev, int) and res.nfev > 0 and res.success is True
                   for res in calls)

    def test_cauchy_converges_on_large_tied_samples(self):
        # 12 800 samples of four values: Newton's method reads the mean
        # log-likelihood, whose rounding does not grow with n. Then 4 001
        # samples, 2 000 of them one value, where the likelihood is far from
        # concave about the quartile start and its peak is narrow
        rng = np.random.default_rng(571)
        for x in (np.repeat([1.0, 2.0, 3.0, 4.0], [3840, 5760, 2560, 640]),
                  np.concatenate(([3.0] * 2000, rng.normal(5.0, 2.0, 2001))),
                  np.concatenate(([3.0] * 2000, rng.standard_cauchy(2001) * 1e3))):
            fit = fit_mle(Family.CAUCHY, dist(x))
            work = fit.work
            assert 0 < work.iterations <= work.evaluations and not work.capped
            w = 1 / (1 + ((x - fit.params[0]) / fit.params[1]) ** 2)
            assert abs((w * (x - fit.params[0]) / fit.params[1]).mean()) <= 1e-10
            assert abs(w.mean() - 0.5) <= 1e-10
        # half the samples within 2e-300 of 0: the likelihood rises towards
        # its supremum as the scale falls to 0 at loc 0, within 1e-12 of it
        # from a scale of ~1e-6 on; the fit stops on that plateau, converged
        x = np.array([0, 1e-300, 2e-300, 1, 2, 3])
        fit = fit_mle(Family.CAUCHY, dist(x))
        assert not fit.work.capped
        supremum = -float(np.mean(stats.cauchy.logpdf(x, 0.0, 1e-20)))
        assert -float(np.mean(stats.cauchy.logpdf(x, *fit.params))) == pytest.approx(
            supremum, rel=1e-12)

    def test_cauchy_reaches_a_narrow_cluster(self):
        # 11 of 20 samples within 10 e of 0: the peak's scale is about 9.63 e,
        # far below the quartile start's ~0.1; on the way down the likelihood
        # is nearly linear in the log scale, where the Hessian is near
        # singular and the Newton step huge
        for e in (1e-10, 1e-20, 1e-40, 1e-60):
            x = [-4, -3, -2, -1, *(k * e for k in range(11)), 1, 2, 3, 4, 5]
            fit = fit_mle(Family.CAUCHY, dist(x))
            assert not fit.work.capped
            assert np.array(fit.params) / e == pytest.approx((5.0, 9.629578435857), rel=1e-9)

    def test_work_is_not_part_of_the_fit(self):
        fit = fit_mle(Family.LOGISTIC, dist(REAL))
        other = fit._replace(work=SolverWork(1, 2, True))
        assert other == fit and hash(other) == hash(fit) and repr(other) == repr(fit)
        assert not (other != fit) and not (fit != other)
        assert "work" not in repr(fit)
        assert fit != fit._replace(ks=fit.ks + 1)


class TestKsStatistic:
    def test_quantile_aligned_data(self):
        n = 100
        fit = FittedDistribution(Family.NORMAL, (0.0, 1.0), ks=0.0, n=n)
        q = stats.norm.ppf((np.arange(n) + 0.5) / n)
        assert ks_statistic(fit, dist(q)) <= 0.5 / n + 1e-12

    def test_uniform_example_brute_force(self):
        fit = FittedDistribution(Family.UNIFORM, (1.0, 5.0), ks=0.0, n=5)
        data = dist([1, 2, 3, 4, 5])
        got = ks_statistic(fit, data)
        assert got == brute_ks(lambda x: fit.cdf(np.asarray([x]))[0],
                               np.repeat(data.values, data.counts).tolist())

    @pytest.mark.parametrize("family", FAMILY_ORDER, ids=lambda f: f.value)
    def test_fitted_family_equals_brute_force(self, family):
        # seeded samples with ties, rounded to one decimal; the fitted CDF is
        # evaluated once on the distinct values, as ks_statistic evaluates it
        # (shape families round differently one point at a time), so the
        # ECDF and the sup over both sides of every jump are what is compared
        rng = np.random.default_rng(157)
        for _ in range(6):
            x = np.round(rng.gamma(2.0, 1.5, int(rng.integers(5, 60))) + 0.2, 1).tolist()
            fit = fit_mle(family, dist(x))
            distinct = sorted(set(x))
            cdf = dict(zip(distinct, fit.cdf(np.array(distinct)).tolist()))
            assert fit.ks == brute_ks(cdf.__getitem__, x)

    def test_bounds(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            fit = FittedDistribution(Family.NORMAL,
                                     (float(rng.normal()), float(rng.random()) + 0.1),
                                     ks=0.0, n=10)
            data = dist(rng.normal(size=10))
            assert 0.0 <= ks_statistic(fit, data) <= 1.0

    def test_ties_jump_by_multiplicity(self):
        fit = FittedDistribution(Family.UNIFORM, (0.0, 1.0), ks=0.0, n=4)
        data = dist([0.5, 0.5, 0.5, 0.5])
        # ECDF jumps 0 -> 1 at 0.5 where F = 0.5
        assert ks_statistic(fit, data) == 0.5

    def test_point_mass_uses_left_limit(self):
        # F jumps 0 -> 1 at 2: just below 2, F = 0 against ECDF 0.2; at 2,
        # F = 1 against 0.6; the largest gap is 0.4, just below 3. Taking F
        # for its left limit would give |1 - 0.2| = 0.8 at 2.
        fit = FittedDistribution(Family.UNIFORM, (2.0, 2.0), ks=0.0, n=5)
        assert ks_statistic(fit, dist([1, 2, 2, 3, 3])) == pytest.approx(0.4, abs=1e-15)


class TestBestFit:
    def test_heavy_tail_selects_power_law(self):
        rng = np.random.default_rng(137)
        u = rng.random(2000)
        x = (1 - u) ** (-1 / 1.3)
        assert best_fit(dist(x)).best.family is Family.POWER_LAW

    def test_gaussian_selects_normal(self):
        rng = np.random.default_rng(139)
        report = best_fit(dist(rng.normal(0, 1, 2000)))
        assert report.best.family is Family.NORMAL

    def test_constant_data_well_formed(self):
        # a count times a value over the count can round off the value
        # (237 x 9.395020081555746), which must not leave a spread
        for value, count in ((3, 5), (0.1, 7), (9.395020081555746, 237)):
            report = best_fit(dist([value] * count))
            assert report.best.family is Family.UNIFORM
            assert report.best.params == (value, value) and report.best.ks == 0.0
            fitted = {f.family for f in report.fits if not isinstance(f, InapplicableFit)}
            assert fitted == {Family.EXPONENTIAL, Family.UNIFORM}

    def test_all_families_attempted(self):
        rng = np.random.default_rng(149)
        report = best_fit(dist(np.abs(rng.normal(5, 1, 200)) + 0.1))
        assert tuple(f.family for f in report.fits) == FAMILY_ORDER

    def test_minimal_ks_selected(self):
        rng = np.random.default_rng(151)
        report = best_fit(dist(rng.gamma(2.0, 1.5, 500)))
        applicable = [f for f in report.fits
                      if not isinstance(f, InapplicableFit)]
        assert report.best.ks == min(f.ks for f in applicable)

    def test_deterministic(self):
        rng = np.random.default_rng(157)
        x = list(rng.exponential(1.0, 300))
        a = best_fit(dist(x))
        b = best_fit(dist(x))
        assert a.best.family is b.best.family and a.best.params == b.best.params


class TestScipyIdentity:
    """The CDFs equal the scipy.stats forms to 1e-14 absolute, a bound on
    the change they make to a KS statistic."""

    @pytest.mark.parametrize("family", FAMILY_ORDER, ids=lambda f: f.value)
    def test_log_likelihood_and_cdf_exact(self, family):
        rng = np.random.default_rng(211)
        for trial in range(60):
            n = int(rng.integers(5, 60))
            if trial % 3 == 0:      # integer-valued, with ties
                x = rng.integers(1, 12, n).astype(float)
            elif trial % 3 == 1:
                x = rng.lognormal(0.5, 1.0, n)
            else:
                x = rng.normal(0.0, 3.0, n)
                if family in POSITIVE_SUPPORT:
                    x = np.abs(x) + 0.01
            x = np.sort(x)
            if x.min() == x.max():
                x[-1] += 1.0
            params = random_params(family, x, rng)
            rescale = (float(x.min()), float(x.max()))
            fit = FittedDistribution(family, params, ks=0.0, n=n, rescale=rescale)
            want_cdf = scipy_cdf(family.value, params, x, rescale)
            np.testing.assert_allclose(fit.cdf(x), want_cdf, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [2.0, 0.5, 1.0])
    def test_weibull_round_shapes_exact(self, shape):
        # numpy's pow takes a shortcut for a scalar exponent of 2 or 0.5
        # that differs in the last bit from pow over a full exponent array
        # for ~5 % of the points; a point outside the support makes scipy
        # switch between the two
        x = np.sort(np.random.default_rng(223).lognormal(0.0, 1.0, 200))
        for sample in (x, np.concatenate(([-1.0], x))):
            fit = FittedDistribution(Family.WEIBULL, (shape, 1.5), ks=0.0, n=len(sample))
            np.testing.assert_allclose(fit.cdf(sample), scipy_cdf("WB", fit.params, sample),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name, samples", [("TIES", TIES), ("REAL", REAL)])
    def test_fits_equal_recorded(self, name, samples):
        data = dist(samples)
        for family in FAMILY_ORDER:
            want = RECORDED[name][family.value]
            if isinstance(want, str):
                with pytest.raises(FitError, match=re.escape(want)):
                    fit_mle(family, data)
                continue
            fit = fit_mle(family, data)
            assert (fit.params, fit.ks) == want, family

