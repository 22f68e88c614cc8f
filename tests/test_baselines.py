"""Tests for the baseline families."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from moq import (
    BASELINE_FAMILIES,
    DomainError,
    Exponential,
    GeneralizedWeibull,
    LogLogistic,
    NonPositiveParameter,
    Weibull,
)

ALL = [
    Exponential(1.0),
    Exponential(0.4),
    Weibull(2.0, 2.0),
    Weibull(1.0, 0.5),
    Weibull(3.0, 4.0),
    GeneralizedWeibull(1.0, 1.0, 1.0),
    GeneralizedWeibull(2.0, 0.5, 2.0),
    GeneralizedWeibull(1.5, 2.0, 3.0),
    LogLogistic(),
    LogLogistic(2.0, 3.0),
    LogLogistic(1.0, 0.7),
]


class TestPointValues:
    def test_cdf(self):
        assert Exponential(1.0).cdf(math.log(2)) == pytest.approx(0.5, abs=1e-15)
        assert LogLogistic().cdf(1.0) == pytest.approx(0.5, abs=1e-15)
        assert Weibull(2.0, 2.0).cdf(2.0) == pytest.approx(-math.expm1(-1.0), abs=1e-15)

    def test_pdf(self):
        assert Exponential(1.0).pdf(0.0) == 1.0
        assert LogLogistic().pdf(1.0) == pytest.approx(0.25, rel=1e-14)
        assert Weibull(2.0, 2.0).pdf(2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_quantile(self):
        assert Exponential(1.0).quantile(0.5) == pytest.approx(math.log(2), rel=1e-15)
        assert LogLogistic().quantile(0.75) == pytest.approx(3.0, rel=1e-14)
        assert GeneralizedWeibull(1.0, 1.0, 1.0).quantile(-math.expm1(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_outside_support(self):
        for bm in ALL:
            assert bm.cdf(-1.0) == 0.0
            assert bm.sf(-1.0) == 1.0
            assert bm.pdf(-1.0) == 0.0


class TestRoundTrips:
    @pytest.mark.parametrize("bm", ALL, ids=lambda b: repr(b))
    def test_quantile_cdf(self, bm):
        p = np.linspace(0.01, 0.99, 25)
        x = bm.quantile(p)
        np.testing.assert_allclose(bm.cdf(x), p, rtol=1e-10)
        np.testing.assert_allclose(bm.quantile(bm.cdf(x)), x, rtol=1e-10)

    @pytest.mark.parametrize("bm", ALL, ids=lambda b: repr(b))
    def test_sf_complement(self, bm):
        x = bm.quantile(np.linspace(0.05, 0.95, 11))
        np.testing.assert_allclose(bm.sf(x) + bm.cdf(x), 1.0, atol=1e-14)

    @pytest.mark.parametrize("bm", ALL, ids=lambda b: repr(b))
    def test_pdf_is_cdf_slope(self, bm):
        x = bm.quantile(np.linspace(0.1, 0.9, 9))
        h = 1e-6
        fd = (bm.cdf(x + h) - bm.cdf(x - h)) / (2 * h)
        np.testing.assert_allclose(bm.pdf(x), fd, rtol=1e-6)


class TestInverseSurvival:
    @pytest.mark.parametrize("bm", ALL, ids=lambda b: repr(b))
    def test_isf_round_trip(self, bm):
        # down to 1e-200: LogLogistic(1, 0.7) overflows near s = 1e-216
        s = np.geomspace(1e-200, 0.99, 60)
        x = bm.isf(s)
        # sf(x) = s to a few ulp of log s, the exponent the baselines round
        np.testing.assert_allclose(bm.sf(x), s, rtol=1e-12)
        np.testing.assert_allclose(bm.isf(0.3), bm.quantile(0.7), rtol=1e-14)

    def test_isf_domain(self):
        for s in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                Weibull(1.0, 2.0).isf(s)

    def test_generalized_weibull_quantile_in_lower_tail(self):
        """(1 - log(1 - p))^shape2 - 1 cancels for small p unless taken
        through expm1 and log1p; 1e-20 gave x = 0."""
        p = np.geomspace(1e-300, 0.5, 40)
        np.testing.assert_allclose(GeneralizedWeibull(2.5, 1.0, 1.0).quantile(p), Exponential(2.5).quantile(p), rtol=1e-14)
        mp = pytest.importorskip("mpmath")
        gw = GeneralizedWeibull(2.0, 0.5, 2.0)
        with mp.workdps(50):
            for level in (1e-300, 1e-20, 1e-9):
                exact = 2 * ((1 - mp.log1p(-mp.mpf(level))) ** 2 - 1) ** 2
                assert abs(gw.quantile(level) - exact) <= 1e-14 * exact


class TestTails:
    def test_survival_deep_in_tail(self):
        # exp(-(40/2)^2) = exp(-400): far below where 1 - cdf could survive
        assert Weibull(2.0, 2.0).sf(40.0) == pytest.approx(math.exp(-400.0), rel=1e-12)
        assert Exponential(1.0).sf(700.0) == pytest.approx(math.exp(-700.0), rel=1e-12)

    def test_heavy_tail_loglogistic(self):
        assert LogLogistic().sf(1e12) == pytest.approx(1e-12, rel=1e-10)

    def test_generalized_weibull_small_argument_against_mpmath(self):
        """1 - (1 + z^shape)^(1/shape2) formed directly loses every digit
        once z^shape is below eps: cdf(1e-30) was 4.44e-16 (true 5.0e-16)
        and cdf(1e-40) was -0.0."""
        mp = pytest.importorskip("mpmath")
        gw = GeneralizedWeibull(1.0, 0.5, 2.0)
        with mp.workdps(50):
            for x in (1e-40, 1e-30, 1e-8, 1.0, 10.0):
                t = mp.mpf(x) ** mp.mpf("0.5")
                inner = 1 - mp.sqrt(1 + t)  # log sf
                exact = {
                    "cdf": -mp.expm1(inner),
                    "sf": mp.exp(inner),
                    "pdf": mp.exp(inner) * 0.5 * t / mp.mpf(x) / (2 * mp.sqrt(1 + t)),
                }
                for name, value in exact.items():
                    got = getattr(gw, name)(x)
                    assert abs(got - value) <= 1e-14 * value, (name, x, got, value)

    def test_singular_density_is_zero_at_origin(self):
        # shape < 1 blows up as x -> 0+; the value at exactly 0 is pinned to 0
        assert Weibull(1.0, 0.5).pdf(0.0) == 0.0
        assert LogLogistic(1.0, 0.7).pdf(0.0) == 0.0


class TestFamilies:
    def test_generalized_weibull_reduces_to_exponential(self):
        gw = GeneralizedWeibull(2.5, 1.0, 1.0)
        ex = Exponential(2.5)
        x = np.linspace(0.01, 20, 50)
        np.testing.assert_allclose(gw.cdf(x), ex.cdf(x), rtol=1e-12)
        np.testing.assert_allclose(gw.pdf(x), ex.pdf(x), rtol=1e-12)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(NonPositiveParameter):
            Weibull(0.0, 1.0)
        with pytest.raises(NonPositiveParameter):
            LogLogistic(1.0, -2.0)
        with pytest.raises(NonPositiveParameter):
            GeneralizedWeibull(1.0, 1.0, math.inf)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                Exponential(1.0).quantile(p)


def mp_hazards(mp, bm, x):
    """H and the hazard H' / scale at x, from each family's cumulative hazard
    H(z), z = x / scale, at mpmath precision.  The generalized Weibull's H
    goes through expm1 and log1p: (1 + t)^(1/shape2) - 1 cancels even at
    50 digits for the smallest x."""
    z, k = mp.mpf(x) / bm.scale, mp.mpf(getattr(bm, "shape", 1.0))
    if isinstance(bm, Exponential):
        big_h, dh = z, mp.mpf(1)
    elif isinstance(bm, Weibull):
        big_h, dh = z**k, k * z ** (k - 1)
    elif isinstance(bm, GeneralizedWeibull):
        inv = 1 / mp.mpf(bm.shape2)
        big_h, dh = mp.expm1(inv * mp.log1p(z**k)), inv * (1 + z**k) ** (inv - 1) * k * z ** (k - 1)
    else:
        big_h, dh = mp.log1p(z**k), k * z ** (k - 1) / (1 + z**k)
    return big_h, dh / bm.scale


class TestAccuracyFromCumulativeHazard:
    @pytest.mark.parametrize("bm", ALL, ids=lambda b: repr(b))
    def test_against_mpmath(self, bm):
        """Each quantity within a multiple of eps scaled by its conditioning:
        1 + x h0 for cdf and sf (a rounding of x moves H by x h0 times it),
        and |shape - 1| on top for the density and hazard, from z^(shape-1).
        Exact values below the smallest normal double are left out."""
        mp = pytest.importorskip("mpmath")
        eps, k = np.finfo(float).eps, getattr(bm, "shape", 1.0)
        for x in np.geomspace(1e-30, 1e60, 91):
            with mp.workdps(50):
                big_h, h0 = mp_hazards(mp, bm, x)
                exact = {"cdf": -mp.expm1(-big_h), "sf": mp.exp(-big_h), "pdf": h0 * mp.exp(-big_h), "hazard": h0}
                cond = float(x * h0)
            bounds = {
                "cdf": 16 * (1 + cond),
                "sf": 16 * (1 + cond),
                "pdf": 64 * (1 + abs(k - 1) + 2 * cond),
                "hazard": 64 * (1 + abs(k - 1) + cond),
            }
            for name, value in exact.items():
                value = float(value)
                if value >= np.finfo(float).tiny:
                    got = getattr(bm, name)(x)
                    assert abs(got - value) / value <= bounds[name] * eps, (name, x, got, value)

    def test_loglogistic_hazard_in_the_tail(self):
        """Above z = 1 the log-logistic hazard is k / z / (1 + z^-k) / scale,
        within 4 eps of 60-digit mpmath out to x = 1e300; exp(log H') was
        277 eps off at 1e90."""
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        xs = [1e50, 1e90, 1e200, 1e300]
        for bm in (LogLogistic(1.0, 3.0), LogLogistic(2.0, 0.5)):
            for x, got in zip(xs, bm.hazard(np.array(xs))):
                with mp.workdps(60):
                    exact = mp_hazards(mp, bm, x)[1]
                assert got == bm.hazard(x)
                assert abs(got - exact) <= 4 * eps * exact, (bm, x, got)

    def test_loglogistic_density_in_the_tail(self):
        """Above z = 1 the log-logistic density is k z^(-k-1) / (1 + z^-k)^2 /
        scale, within 4 eps of 60-digit mpmath out to x = 1e50; exp(log H' - H)
        was 13, 26 and 46 eps off at x = 1e3, 1e10 and 1e50 for shape 2.5."""
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        xs = [1.5, 10.0, 1e3, 1e10, 1e30, 1e50]
        for bm in (LogLogistic(1.0, 2.5), LogLogistic(2.0, 0.5), LogLogistic(1.0, 3.0)):
            for x, got in zip(xs, bm.pdf(np.array(xs))):
                with mp.workdps(60):
                    big_h, h0 = mp_hazards(mp, bm, x)
                    exact = h0 * mp.exp(-big_h)
                assert got == bm.pdf(x)
                assert abs(got - exact) <= 4 * eps * exact, (bm, x, got)

    def test_hazard_past_survival_underflow(self):
        assert Exponential(2.0).sf(1e4) == 0.0
        assert Exponential(2.0).hazard(1e4) == 0.5
        np.testing.assert_allclose(Weibull(2.0, 2.0).hazard([0.0, 2.0, 1e3]), [0.0, 1.0, 500.0], rtol=4e-16, atol=0)
        assert LogLogistic().hazard(-1.0) == 0.0
        assert Weibull(1.0, 0.5).hazard(0.0) == 0.0  # the blow-up pinned, as for the density
        assert Weibull(2.0, 1.0).pdf(0.0) == Weibull(2.0, 1.0).hazard(0.0) == 0.5


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    def test_every_family_method_traced_and_restored(self):
        """perfbench/tracing.py wraps cls.__dict__[m] for each family: each
        must hold cdf, sf, pdf and quantile in its own namespace."""
        methods = ("cdf", "sf", "pdf", "quantile")
        originals = {(cls, m): cls.__dict__[m] for cls in BASELINE_FAMILIES.values() for m in methods}
        tracer = _load_tracing().Tracer()
        tracer.install()
        try:
            for cls in BASELINE_FAMILIES.values():
                bm = next(b for b in ALL if type(b) is cls)
                for m in methods:
                    start = len(tracer.spans)
                    getattr(bm, m)(0.5)
                    assert f"baselines.{m}" in [span[0] for span in tracer.spans[start:]], (cls, m)
        finally:
            tracer.uninstall()
        assert all(cls.__dict__[m] is fn for (cls, m), fn in originals.items())
