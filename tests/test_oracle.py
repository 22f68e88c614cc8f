"""Tests for the quadrature, special functions, and KS machinery.

The oracle is itself checked against analytic values only: it must not be
validated by the code it exists to validate.
"""

import math

import numpy as np
import pytest

from moq import (
    DomainError,
    ToleranceNotMet,
    beta_fn,
    integrate_semiinfinite,
    ks_one_sample,
    ks_two_sample,
    log_gamma,
)


class TestQuadrature:
    def test_exponential_mass(self):
        res = integrate_semiinfinite(lambda x: np.exp(-x), tol=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.error_estimate >= abs(res.value - 1.0)

    def test_exponential_mean(self):
        res = integrate_semiinfinite(lambda x: x * np.exp(-x), tol=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_algebraic_tail_with_root_singularity(self):
        # Beta(3/2, 1/2) = pi/2; integrand decays like x^(-3/2)
        res = integrate_semiinfinite(lambda x: np.sqrt(x) / (1 + x) ** 2, tol=1e-10)
        assert res.value == pytest.approx(math.pi / 2, abs=1e-8)

    def test_origin_singularity(self):
        # integral of x^(-1/2) e^(-x) = Gamma(1/2)
        res = integrate_semiinfinite(
            lambda x: np.where(x > 0, x ** -0.5 * np.exp(-x), 0.0), tol=1e-10
        )
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_shifted_lower_limit(self):
        res = integrate_semiinfinite(lambda x: np.exp(-(x - 3.0)), lo=3.0, tol=1e-11)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_error_estimate_bounds_true_error(self):
        cases = [
            (lambda x: np.exp(-x), 1.0),
            (lambda x: x * np.exp(-x), 1.0),
            (lambda x: x * x * np.exp(-x), 2.0),
            (lambda x: np.sqrt(x) / (1 + x) ** 2, math.pi / 2),
        ]
        for f, exact in cases:
            res = integrate_semiinfinite(f, tol=1e-10)
            assert abs(res.value - exact) <= max(res.error_estimate, 1e-12)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ToleranceNotMet):
            integrate_semiinfinite(lambda x: np.sqrt(x) / (1 + x) ** 2, tol=1e-10, max_panels=8)

    def test_non_finite_integrand_raises(self):
        # the NaN error estimate compares false with tol; it must not pass
        with pytest.raises(ToleranceNotMet):
            integrate_semiinfinite(lambda x: np.where(x < 2.0, 1.0, np.nan))

    @pytest.mark.xfail(strict=True, reason="divergence goes undetected; ROADMAP direction 1 (an accurate "
                       "value or a typed error) covers it")
    def test_divergent_integrand_raises(self):
        """x / (1 + x)^2 decays like 1/x, so its integral diverges; today
        the rule returns about 353.89 with an error estimate near 5e-11."""
        with pytest.raises(ToleranceNotMet), np.errstate(over="ignore"):
            integrate_semiinfinite(lambda x: x / (1 + x) ** 2, tol=1e-10)

    def test_order_statistic_identity(self):
        """Quadrature against the exact alternating form of
        integral x^r F(x)^(m-1) f(x) dx for the unit exponential:
        r*Gamma(r) * sum_j C(m-1, j) (-1)^j (j+1)^(-r-1)."""
        for r in (0.5, 1.0, 2.0):
            for m in (1, 2, 5):
                def f(x, m=m, r=r):
                    return x**r * (-np.expm1(-x)) ** (m - 1) * np.exp(-x)

                exact = (
                    r
                    * math.gamma(r)
                    * math.fsum(
                        math.comb(m - 1, j) * (-1) ** j * (j + 1) ** (-r - 1.0)
                        for j in range(m)
                    )
                )
                res = integrate_semiinfinite(f, tol=1e-10)
                assert res.value == pytest.approx(exact, abs=1e-8)


class TestSpecialFunctions:
    def test_log_gamma_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_log_gamma_accuracy_sweep(self):
        # factorial anchor points across (0, 50)
        for n in range(1, 50):
            assert log_gamma(float(n + 1)) == pytest.approx(math.log(math.factorial(n)), rel=1e-13)

    def test_log_gamma_domain(self):
        for x in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                log_gamma(x)

    def test_beta_values(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
        assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_beta_properties(self):
        gen = np.random.default_rng(30)
        for _ in range(50):
            p, q = np.exp(gen.uniform(math.log(0.1), math.log(20), size=2))
            assert beta_fn(p, q) == pytest.approx(beta_fn(q, p), rel=1e-13)
            assert beta_fn(p, 1.0) == pytest.approx(1.0 / p, rel=1e-13)


class TestKolmogorovSmirnov:
    def test_one_sample_constructed_grid(self):
        n = 100
        vals = (np.arange(1, n + 1) - 0.5) / n  # quantiles of the uniform itself
        assert ks_one_sample(vals, lambda x: x) == pytest.approx(0.5 / n, abs=1e-15)

    def test_one_sample_single_point(self):
        assert ks_one_sample([0.5], lambda x: np.asarray(x)) == pytest.approx(0.5)

    def test_one_sample_uniform_draws(self):
        gen = np.random.default_rng(31)
        n = 100_000
        u = gen.random(n)
        assert ks_one_sample(u, lambda x: x) < 1.95 / math.sqrt(n)

    def test_two_sample_degenerate(self):
        a = np.linspace(0, 1, 50)
        assert ks_two_sample(a, a) == 0.0
        assert ks_two_sample([0.0], [1.0]) == 1.0

    def test_two_sample_same_seed(self):
        gen1 = np.random.default_rng(32)
        gen2 = np.random.default_rng(32)
        assert ks_two_sample(gen1.random(1000), gen2.random(1000)) == 0.0
