"""Tests for the composed extended distribution."""

import math

import numpy as np
import pytest

from moq import (
    DomainError,
    Exponential,
    ExtendedDistribution,
    GeneralizedWeibull,
    LogLogistic,
    Weibull,
    integrate_semiinfinite,
    validate_params,
)

def mp_distortion_and_deriv(mp, a, u):
    """T(u) and T'(u) from the definition, at mpmath precision."""
    aa = [mp.mpf(v) for v in a]
    q, big_s = len(aa), mp.fsum(aa)
    d = big_s - (big_s - q) * u
    t = mp.mpf(q) ** q * u * mp.fprod(ai + (1 - ai) * u for ai in aa[1:]) / d**q
    return t, t * (1 / u + mp.fsum((1 - ai) / (ai + (1 - ai) * u) for ai in aa[1:]) + q * (big_s - q) / d)


def mp_hazard(mp, a, h0, s):
    """f / (1 - T) at u = 1 - s for baseline hazard h0, from the definition of T.

    With D = S - (S - q) u, 1 - T = N(s) / D^q for the polynomial
    N(s) = D^q - q^q (1 - s) prod_{i>=2} (1 - (1 - a_i) s), whose constant
    term is 0: dividing it by s coefficient-wise leaves no cancellation,
    where 1 - T(1 - s) formed at any fixed precision is 0 once s is tiny.
    """
    aa = [mp.mpf(v) for v in a]
    q, big_s = len(aa), mp.fsum(aa)
    _, dt = mp_distortion_and_deriv(mp, a, 1 - s)
    d_poly, t_poly = [mp.mpf(1)], [mp.mpf(q) ** q, -mp.mpf(q) ** q]
    for factor in [[mp.mpf(q), big_s - q]] * q:
        d_poly = mp_polymul(d_poly, factor)
    for ai in aa[1:]:
        t_poly = mp_polymul(t_poly, [mp.mpf(1), ai - 1])
    n_over_s = [dk - tk for dk, tk in zip(d_poly, t_poly)][1:]
    return h0 * dt * (big_s - (big_s - q) * (1 - s)) ** q / mp.polyval(n_over_s[::-1], s)


def mp_polymul(p, r):
    out = [0] * (len(p) + len(r) - 1)
    for i, pi in enumerate(p):
        for j, rj in enumerate(r):
            out[i + j] += pi * rj
    return out


CASES = [
    ExtendedDistribution(Exponential(1.0), validate_params(1, [1.0])),
    ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5])),
    ExtendedDistribution(Weibull(2.0, 2.0), validate_params(2, [1e-6, 0.15])),
    ExtendedDistribution(Weibull(1.0, 0.5), validate_params(3, [2.0, 0.6, 0.7])),
    ExtendedDistribution(LogLogistic(), validate_params(2, [0.5, 1.5])),
    ExtendedDistribution(LogLogistic(2.0, 3.0), validate_params(1, [0.3])),
]
WITH_GW = CASES + [ExtendedDistribution(GeneralizedWeibull(1.0, 0.5, 2.0), validate_params(3, [2.5, 0.5, 0.8]))]


class TestCdf:
    def test_identity_parameters_give_baseline(self):
        ed = ExtendedDistribution(LogLogistic(), validate_params(1, [1.0]))
        x = np.linspace(0.1, 10, 30)
        np.testing.assert_allclose(ed.cdf(x), LogLogistic().cdf(x), rtol=1e-14)

    def test_spec_values(self):
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [0.5, 0.5]))
        assert ed.cdf(math.log(2.0)) == pytest.approx(2.0 / 3.0, abs=1e-12)
        ed2 = ExtendedDistribution(LogLogistic(), validate_params(2, [2.0, 0.5]))
        assert ed2.cdf(1.0) == pytest.approx(4.0 * 0.5 * 0.75 / 2.25**2, abs=1e-12)

    @pytest.mark.parametrize("ed", CASES, ids=lambda e: f"{e.baseline.name}-{e.pv.a}")
    def test_monotone_with_unit_range(self, ed):
        x = np.linspace(0.0, 30.0, 400)
        v = ed.cdf(x)
        # where the true increment is below one ulp of 1.0 the evaluation
        # noise dominates; a couple of ulp of slack is the attainable bound
        assert np.all(np.diff(v) >= -4e-16)
        assert np.all((v >= 0) & (v <= 1))

    def test_round_trip_with_root_on_the_complement_side(self):
        """T(F0(x)) from u alone loses what the quantile keeps where a_1 is
        large: cdf(quantile(0.47)) erred by 1.8e-5 relative from u."""
        a = (9.4e11, 9.4e10, 5.5e-12, 5.3e5, 2.1e10, 8.3e6)
        ed = ExtendedDistribution(Exponential(1.0), validate_params(len(a), a))
        assert ed.cdf(ed.quantile(0.47)) == pytest.approx(0.47, rel=1e-14)


class TestSurvival:
    def test_equal_parameter_closed_form(self):
        a = 0.4
        ed = ExtendedDistribution(Exponential(1.0), validate_params(3, [a, a, a]))
        x = np.linspace(0.01, 12, 60)
        s0 = Exponential(1.0).sf(x)
        np.testing.assert_allclose(ed.sf(x), a * s0 / (1 - (1 - a) * s0), atol=1e-12)

    def test_below_support(self):
        for ed in CASES:
            assert ed.sf(-3.0) == 1.0
            assert ed.cdf(-3.0) == 0.0

    def test_identity_parameters_give_baseline_survival(self):
        # mid-range goes through 1 - T(u) (absolute accuracy); past the
        # switch the complement form keeps relative accuracy
        ed = ExtendedDistribution(Exponential(1.0), validate_params(1, [1.0]))
        x = np.linspace(0.1, 20, 40)
        np.testing.assert_allclose(ed.sf(x), Exponential(1.0).sf(x), rtol=1e-10, atol=2e-16)

    @pytest.mark.parametrize("ed", CASES, ids=lambda e: f"{e.baseline.name}-{e.pv.a}")
    def test_complement_identity(self, ed):
        x = ed.baseline.quantile(np.linspace(0.02, 0.98, 25))
        np.testing.assert_allclose(ed.sf(x) + ed.cdf(x), 1.0, atol=1e-14)

    def test_far_tail_matches_dominant_term(self):
        """Deep in the tail the survival is a_1 * S0 to first order; the
        switched evaluation path must keep full relative accuracy there."""
        pv = validate_params(2, [1.5, 0.5])
        ed = ExtendedDistribution(Exponential(1.0), pv)
        x = 200.0
        s0 = math.exp(-200.0)
        assert ed.sf(x) == pytest.approx(1.5 * s0, rel=1e-10)


class TestPdf:
    def test_identity_parameters(self):
        ed = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(1, [1.0]))
        x = np.linspace(0.1, 6, 25)
        np.testing.assert_allclose(ed.pdf(x), Weibull(2.0, 2.0).pdf(x), rtol=1e-13)

    @pytest.mark.parametrize("ed", CASES, ids=lambda e: f"{e.baseline.name}-{e.pv.a}")
    def test_integrates_to_one(self, ed):
        res = integrate_semiinfinite(lambda x: ed.pdf(x), tol=1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_matches_cdf_slope(self):
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5]))
        x = 1.0
        h = 1e-6
        fd = (ed.cdf(x + h) - ed.cdf(x - h)) / (2 * h)
        assert ed.pdf(x) == pytest.approx(fd, rel=1e-6)


class TestHazard:
    def test_weibull_identity_hazard(self):
        ed = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(1, [1.0]))
        assert ed.hazard(1.0) == pytest.approx(0.5, rel=1e-12)

    def test_exponential_constant_hazard(self):
        ed = ExtendedDistribution(Exponential(1.0), validate_params(1, [1.0]))
        for x in (0.1, 1.0, 5.0, 40.0):
            assert ed.hazard(x) == pytest.approx(1.0, rel=1e-10)

    def test_two_parameter_extension_is_multimodal(self):
        ed = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(2, [1e-6, 0.15]))
        x = 0.01 + 0.01 * np.arange(600)
        h = ed.hazard(x)
        d = np.sign(np.diff(h))
        d = d[d != 0]
        assert int(np.sum(d[1:] != d[:-1])) >= 2

    def test_two_wave_tail_against_mpmath(self):
        """Hazard on [5.9, 6.0], where the baseline survival is about 1e-4:
        the survival must keep its relative accuracy there (it was 7e-7
        off through the plain 1 - T(u))."""
        mp = pytest.importorskip("mpmath")
        a = (1e-6, 0.15)
        ed = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(2, a))
        x = np.linspace(5.9, 6.0, 21)
        h = ed.hazard(x)
        with mp.workdps(50):
            aa = [mp.mpf(v) for v in a]
            big_s = aa[0] + aa[1]

            def t_map(u):
                return 4 * u * (aa[1] + u - aa[1] * u) / (big_s - (big_s - 2) * u) ** 2

            for xi, hi in zip(x, h):
                z = mp.mpf(float(xi)) / 2
                s0 = mp.exp(-z * z)
                exact = mp.diff(t_map, 1 - s0) * z * s0 / (1 - t_map(1 - s0))
                assert abs(hi - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("x", [6.0, 10.0])
    def test_two_wave_density_and_hazard_from_both_levels(self, x):
        """pdf and hazard take T' from the baseline's u and s; from u alone
        they erred by 1.4e-13 at x = 6 and 6.0e-13 at x = 10."""
        mp = pytest.importorskip("mpmath")
        a = (1e-6, 0.15)
        ed = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(2, a))
        with mp.workdps(60):
            z = mp.mpf(x) / 2
            s0 = mp.exp(-z * z)
            t, dt = mp_distortion_and_deriv(mp, a, 1 - s0)
            pdf = dt * z * s0
            assert abs(ed.pdf(x) - pdf) <= 1e-14 * pdf
            assert abs(ed.hazard(x) - pdf / (1 - t)) <= 1e-14 * pdf / (1 - t)

    def test_tiny_parameters_sf_against_closed_form(self):
        """With a tiny T(u) is within 1e-8 of one where u is still small, and
        1 - T(u) formed there kept about eps / 1e-8 of relative accuracy."""
        mp = pytest.importorskip("mpmath")
        a = 1e-8
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [a, a]))
        x = np.geomspace(1e-12, 30.0, 30)
        got = ed.sf(x)
        with mp.workdps(60):
            for xi, si in zip(x, got):
                s0, u = mp.exp(-mp.mpf(float(xi))), -mp.expm1(-mp.mpf(float(xi)))
                exact = a * s0 / (a + (1 - a) * u)  # equal parameters: 1 - u / (a + (1 - a) u)
                assert abs(si - exact) <= 1e-14 * exact, xi

    def test_identity_hazard_exact_past_survival_underflow(self):
        """exp(-800) underflows to 0; the hazard has no survival in it."""
        ed = ExtendedDistribution(Exponential(1.0), validate_params(1, [1.0]))
        assert ed.hazard(800.0) == 1.0
        assert ed.hazard(1e4) == 1.0
        np.testing.assert_array_equal(ed.hazard(np.array([800.0, 1e4])), [1.0, 1.0])

    def test_underflowing_ratio_is_a_domain_error(self):
        """For a = (1e-300, 1e300), g_1 = q a_1 / S underflows, and from
        x = 745.2 so does the baseline survival: there the hazard is 0/0
        (its true value is 2), a DomainError that names the first such x,
        while at x = 0.5 and 10 it keeps its values."""
        mp = pytest.importorskip("mpmath")
        a = (1e-300, 1e300)
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, a))
        with mp.workdps(700):
            for x in (0.5, 10.0):
                exact = mp_hazard(mp, a, mp.mpf(1), mp.exp(-mp.mpf(x)))
                assert abs(ed.hazard(x) - exact) <= 1e-13 * exact, x
        np.testing.assert_array_equal(ed.hazard(np.array([0.5, 10.0])), [ed.hazard(0.5), ed.hazard(10.0)])
        for x in (750.0, np.array([700.0, 750.0, 800.0])):
            with pytest.raises(DomainError, match=r"hazard at x = 750\.0 is 0/0"):
                ed.hazard(x)

    @pytest.mark.parametrize("x", [26.5, 53.0, 60.0, 100.0, 1000.0])
    def test_two_wave_hazard_past_survival_underflow(self, x):
        """The survival of the two-wave spec is below 1e-300 from x = 53 on,
        and underflows to 0 before x = 100; its hazard stays h0 (q/S) B / sum."""
        mp = pytest.importorskip("mpmath")
        a = (1e-6, 0.15)
        ed = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(2, a))
        with mp.workdps(60):
            z = mp.mpf(x) / 2
            exact = mp_hazard(mp, a, z, mp.exp(-z * z))
            assert abs(ed.hazard(x) - exact) <= 1e-13 * exact


class TestQuantile:
    def test_identity_parameters(self):
        ed = ExtendedDistribution(LogLogistic(), validate_params(1, [1.0]))
        p = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(ed.quantile(p), LogLogistic().quantile(p), rtol=1e-10)

    @pytest.mark.parametrize("ed", CASES, ids=lambda e: f"{e.baseline.name}-{e.pv.a}")
    def test_round_trip(self, ed):
        p = np.linspace(0.01, 0.99, 21)
        np.testing.assert_allclose(ed.cdf(ed.quantile(p)), p, atol=1e-10)

    def test_median_of_halved_loglogistic(self):
        # equal parameters 0.5 send level 2/3 to baseline level 1/2
        ed = ExtendedDistribution(LogLogistic(), validate_params(2, [0.5, 0.5]))
        assert ed.quantile(2.0 / 3.0) == pytest.approx(1.0, rel=1e-10)

    def test_rejects_closed_levels(self):
        ed = CASES[1]
        for p in (0.0, 1.0):
            with pytest.raises(DomainError):
                ed.quantile(p)


class TestTailInverses:
    def test_relative_in_both_tails(self):
        """Both levels were 50% off: the absolute stop accepted the start
        u = p, and the upper half inverted T instead of its complement."""
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5]))
        assert ed.cdf(ed.quantile(1e-13)) == pytest.approx(1e-13, rel=1e-13, abs=0)
        p = 1.0 - 1e-13
        assert ed.sf(ed.quantile(p)) == pytest.approx(1.0 - p, rel=1e-13, abs=0)

    @pytest.mark.parametrize("ed", WITH_GW, ids=lambda e: f"{e.baseline.name}-{e.pv.a}")
    def test_isf_round_trip(self, ed):
        s = np.geomspace(1e-200, 0.99, 40)
        np.testing.assert_allclose(ed.sf(ed.isf(s)), s, rtol=1e-11)
        assert ed.isf(0.25) == ed.quantile(0.75)

    def test_isf_rejects_closed_levels(self):
        for s in (0.0, 1.0):
            with pytest.raises(DomainError):
                CASES[1].isf(s)

    def test_relative_round_trips_over_random_vectors(self, log_uniform_vectors, lower_levels):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(pv=log_uniform_vectors, levels=lower_levels)
        def check(pv, levels):
            ed = ExtendedDistribution(Exponential(1.0), pv)
            level = np.array(levels)
            np.testing.assert_allclose(ed.cdf(ed.quantile(level)), level, rtol=1e-12)
            np.testing.assert_allclose(ed.sf(ed.isf(level)), level, rtol=1e-12)
            p = 1.0 - level[level > 1e-16]  # upper levels that stay below one
            if p.size:
                np.testing.assert_allclose(ed.sf(ed.quantile(p)), 1.0 - p, rtol=1e-12)

        check()

    @pytest.mark.parametrize("a", [1e-20, 1e-8])
    def test_tiny_parameters_monotone_and_against_mpmath(self, a):
        """With a_1 tiny T(1/2) is close to one, so cdf levels above 1/2
        still have roots u far below 1/2.  Solved on the complement they
        came back as 1 - s: quantile(0.7) was 1.1e-16 for a = 1e-20, above
        quantile(0.9), against the true 2.33e-20."""
        mp = pytest.importorskip("mpmath")
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [a, a]))
        p = np.concatenate(
            [np.geomspace(1e-250, 0.5, 60), np.linspace(0.51, 0.98, 48), 1.0 - np.geomspace(1e-2, 1e-15, 40)]
        )
        assert np.all(np.diff(ed.quantile(p)) > 0.0)
        assert np.all(np.diff(ed.isf(1.0 - p[p > 0.5])) > 0.0)
        with mp.workdps(60):
            # equal parameters: T(u) = u / (a + (1 - a) u), inverted in closed form
            for level in (1e-250, 1e-13, 0.3, 0.5, 0.7, 0.9, 0.99):
                pl, am = mp.mpf(level), mp.mpf(a)
                exact = -mp.log1p(-am * pl / (1 - (1 - am) * pl))
                assert abs(ed.quantile(level) - exact) <= 1e-13 * exact, level
                if level >= 0.5:  # 1 - level is exact
                    assert abs(ed.isf(1.0 - level) - exact) <= 1e-13 * exact, level

    def test_huge_parameter(self):
        """a = (1e200, 1): the roots s ~ 1e-200 need the complement's relative
        accuracy; its expanded polynomial overflowed here before."""
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [1e200, 1.0]))
        p = np.array([0.1, 0.5, 0.9])
        # C(s) = 1 - 4 (1 - s) / (2 (1 - s) + S s)^2, so S s = 2 / sqrt(p) - 2 to rounding
        exact = -np.log((2.0 / np.sqrt(p) - 2.0) / (1e200 + 1.0))
        np.testing.assert_allclose(ed.quantile(p), exact, rtol=1e-14)
        np.testing.assert_allclose(ed.isf(1.0 - p), exact, rtol=1e-14)
        np.testing.assert_allclose(ed.sf(exact), 1.0 - p, rtol=1e-13)


class TestLargeQ:
    """q = 150 and q = 1000, a_i = 1 + 0.5 sin(i): nothing in the ratio forms
    grows like q^q, which overflowed from q = 144.  Each factor of T adds a
    few roundings, so the bound is 4 q eps relative."""

    @pytest.mark.parametrize("q", [150, 1000])
    def test_against_mpmath(self, q):
        mp = pytest.importorskip("mpmath")
        a = [1.0 + 0.5 * math.sin(i) for i in range(q)]
        ed = ExtendedDistribution(Exponential(1.0), validate_params(q, a))
        bound = 4 * q * np.finfo(float).eps

        def exact(x):
            """cdf, sf and pdf at x, with digits enough for 1 - T where s0 is tiny."""
            with mp.workdps(40 + int(x / 2.3)):
                xm = mp.mpf(float(x))
                t, dt = mp_distortion_and_deriv(mp, a, -mp.expm1(-xm))
                return t, 1 - t, dt * mp.exp(-xm)

        for x in (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
            cdf, sf, pdf = exact(x)
            for got, want in ((ed.cdf(x), cdf), (ed.sf(x), sf), (ed.pdf(x), pdf), (ed.hazard(x), pdf / sf)):
                assert abs(got - want) <= bound * want, x
        for level in (1e-300, 1e-100, 1e-12, 0.01, 0.3, 0.5, 0.9, 0.999):
            for x, which in ((ed.quantile(level), 0), (ed.isf(level), 1)):
                values = exact(x)
                # first order in the residual: the relative error of x
                assert abs(values[which] - level) <= bound * x * values[2], (level, which)


class TestScalarMatchesArray:
    """A scalar call runs the same numpy loops as the array call, so it
    returns the array's element bit for bit, tails included."""

    BASELINES = [Exponential(0.7), Weibull(2.0, 1.5), Weibull(1.0, 0.5), GeneralizedWeibull(1.5, 0.7, 2.3),
                 LogLogistic(2.0, 3.0)]
    VECTORS = [(1.0,), (1.5, 0.5), (2.0, 0.3, 0.9), (1e-6, 0.15)]

    @pytest.mark.parametrize("baseline", BASELINES, ids=repr)
    def test_scalar_equals_array_element(self, baseline):
        rng = np.random.default_rng(20261019)
        x = np.concatenate([10.0 ** rng.uniform(-30, 0, 60), 10.0 ** rng.uniform(0, 2.5, 60), [0.0, 1.0]])
        levels = np.concatenate([10.0 ** rng.uniform(-300, -0.3, 60), 1.0 - 10.0 ** rng.uniform(-15, -0.3, 60)])
        dists = [baseline] + [ExtendedDistribution(baseline, validate_params(len(a), a)) for a in self.VECTORS]
        for dist in dists:
            for name in ("cdf", "sf", "pdf", "hazard", "quantile", "isf"):
                fn = getattr(dist, name)
                args = x if name in ("cdf", "sf", "pdf", "hazard") else levels
                with np.errstate(all="ignore"):
                    whole = fn(args)
                    one_by_one = [fn(float(v)) for v in args]
                for v, got, want in zip(args, one_by_one, whole):
                    assert type(got) is float
                    assert got == want or (math.isnan(got) and math.isnan(want)), (dist, name, v)
