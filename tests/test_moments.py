"""Tests for the moment paths: series, closed forms, scaling, bounds.

Expected values are frozen from independent oracles: closed forms of the
one-parameter subfamily (geometric weights), classical special-function
identities, and the adaptive quadrature of x^r times the density.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from moq import (
    ConditionViolated,
    DomainError,
    Exponential,
    ExtendedDistribution,
    GeneralizedWeibull,
    LogLogistic,
    MoqError,
    Nonconvergence,
    ToleranceNotMet,
    Weibull,
    integrate_semiinfinite,
    moment,
    moment_bound_check,
    moment_exponential,
    moment_generalized_weibull,
    moment_loglogistic,
    moment_q2_loglogistic_closed,
    moment_weibull_scaled,
    validate_params,
)


def quad_moment(baseline, pv, r, tol=1e-10):
    ed = ExtendedDistribution(baseline, pv)
    return integrate_semiinfinite(lambda x: x**r * ed.pdf(x), tol=tol).value


class TestExponentialMoments:
    def test_identity_mean(self):
        res = moment_exponential(validate_params(1, [1.0]), 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_geometric_weights_mean(self):
        """One parameter a = 2: the sample-size weights are 2^-m and the mean
        is sum_m 2^-m H_m = 2 log 2 (generating function of harmonic numbers,
        confirmed by the quadrature oracle)."""
        res = moment_exponential(validate_params(1, [2.0]), 1.0)
        assert res.value == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
        assert abs(res.value - 2.0 * math.log(2.0)) <= max(res.error_estimate, 1e-10)

    def test_second_moment_vs_quadrature(self):
        pv = validate_params(2, [1.5, 0.5])
        res = moment_exponential(pv, 2.0)
        assert res.value == pytest.approx(quad_moment(Exponential(1.0), pv, 2.0), rel=1e-6)

    def test_branches_agree(self):
        pv = validate_params(2, [1.8, 0.5])  # sum = 2.3 in [q, 2q)
        z = moment_exponential(pv, 0.75, method="series_at_zero")
        o = moment_exponential(pv, 0.75, method="series_at_one")
        q = moment_exponential(pv, 0.75, method="quadrature")
        assert z.value == pytest.approx(o.value, rel=1e-8)
        assert z.value == pytest.approx(q.value, rel=1e-7)

    def test_zeroth_moment(self):
        assert moment_exponential(validate_params(1, [1.5]), 0.0).value == 1.0

    def test_requires_pmf_regime(self):
        with pytest.raises(ConditionViolated):
            moment_exponential(validate_params(2, [0.5, 0.5]), 1.0)

    def test_requires_positive_order(self):
        with pytest.raises(DomainError):
            moment_exponential(validate_params(1, [1.0]), -0.5)

    def test_cancellation_guard_triggers_and_auto_recovers(self):
        """A large first parameter needs so many series terms that the inner
        alternating sums drown in cancellation; the pinned branch must refuse
        and auto must still return the quadrature answer."""
        pv = validate_params(1, [40.0])
        with pytest.raises(Nonconvergence):
            moment_exponential(pv, 0.5, method="series_at_zero")
        res = moment_exponential(pv, 0.5, method="auto")
        assert res.method_used == "quadrature"
        assert res.value == pytest.approx(quad_moment(Exponential(1.0), pv, 0.5), rel=1e-8)

    def test_pinned_series_names_the_ill_conditioned_index(self):
        """The inner sums cancel from index 50 for a = (20, 0.5) at r = 1.5,
        however far the block that holds it reaches."""
        pv = validate_params(2, [20.0, 0.5])
        with pytest.raises(Nonconvergence, match=r"ill-conditioned at index 50 \(cancellation ratio 1\.27e\+12\)"):
            moment_exponential(pv, 1.5, method="series_at_zero")
        res = moment_exponential(pv, 1.5)
        assert res.method_used == "quadrature"
        assert res.value == pytest.approx(quad_moment(Exponential(1.0), pv, 1.5), rel=1e-12)

    def test_overflowing_terms_fail_the_series(self, wall_clock_limit):
        """At order 170 the terms Gamma(171) m C_m overflow from index 25:
        the series fails there, auto falls back on quadrature, which misses
        tol, and a pinned series raises; neither runs on towards max_terms."""
        pv = validate_params(3, [2.2, 0.5, 0.5])
        with wall_clock_limit(5.0):
            with pytest.raises(ToleranceNotMet):
                moment(Exponential(1.0), pv, 170.0)
            with pytest.raises(Nonconvergence, match="term at index 25 is not finite"):
                moment(Exponential(1.0), pv, 170.0, method="series_at_zero")

    def test_order_150_stays_a_series(self):
        res = moment(Exponential(1.0), validate_params(3, [2.2, 0.5, 0.5]), 150.0)
        assert (res.method_used, res.terms_used) == ("scaling(series_at_zero)", 237)
        assert res.value == pytest.approx(1.2569444704181982e263, rel=1e-12)


class TestLogLogisticMoments:
    def test_identity_half_moment(self):
        # E(X^r) of the standard log-logistic is r*pi/sin(r*pi)
        res = moment_loglogistic(validate_params(1, [1.0]), 0.5)
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_two_parameter_half_moment(self):
        # closed form: ((a1+a2)/2)^r * r*pi/sin(r*pi) * ((a1-a2)/(a1+a2)*r + 1)
        res = moment_loglogistic(validate_params(2, [1.5, 0.5]), 0.5)
        assert res.value == pytest.approx(1.25 * math.pi / 2.0, abs=1e-9)

    def test_zeroth_moment(self):
        assert moment_loglogistic(validate_params(1, [1.0]), 0.0).value == 1.0

    def test_negative_order_vs_quadrature(self):
        pv = validate_params(3, [2.0, 0.6, 0.7])
        res = moment_loglogistic(pv, -0.5)
        assert res.value == pytest.approx(quad_moment(LogLogistic(), pv, -0.5), rel=1e-7)

    def test_branches_agree(self):
        pv = validate_params(2, [1.8, 0.5])
        z = moment_loglogistic(pv, 0.5, method="series_at_zero")
        o = moment_loglogistic(pv, 0.5, method="series_at_one")
        assert z.value == pytest.approx(o.value, rel=1e-9)

    def test_auto_falls_back_to_quadrature(self):
        """With a_1 = 1e5 the series at zero does not converge within its
        200,000 terms; auto integrates, a pinned series still raises."""
        pv = validate_params(3, [1e5, 0.5, 0.5])
        res = moment(LogLogistic(), pv, 0.5)
        assert res.method_used == "scaling(quadrature)"
        # mpmath quadrature of x^r times the extended density
        assert res.value == pytest.approx(537.724825670868, rel=1e-10)
        with pytest.raises(Nonconvergence):
            moment_loglogistic(pv, 0.5, method="series_at_zero", max_terms=1000)

    def test_order_domain(self):
        with pytest.raises(DomainError):
            moment_loglogistic(validate_params(1, [1.0]), 1.0)

    def test_long_series_against_mpmath(self):
        """The 3,107-term series at zero for a = (200, 0.5), against E(X^r)
        = int r x^(r-1) (1 - T(x / (1 + x))) dx in mpmath."""
        mp = pytest.importorskip("mpmath")
        res = moment(LogLogistic(1.0, 1.0), validate_params(2, [200.0, 0.5]), 0.5, method="series_at_zero")
        with mp.workdps(30):
            a1, a2, r = mp.mpf(200), mp.mpf("0.5"), mp.mpf("0.5")
            big_s = a1 + a2

            def survival(x):
                u = x / (1 + x)
                return 1 - 4 * u * (a2 + u - a2 * u) / (big_s - (big_s - 2) * u) ** 2

            exact = mp.quad(lambda x: r * x ** (r - 1) * survival(x), [0, 1, 100, 1e4, mp.inf])
        assert res.terms_used == 3107
        assert abs(res.value - exact) <= 1e-10 * exact


class TestBlockSizes:
    """Where a series stops, and what it sums to, does not depend on how
    its indices are cut into blocks: one index per block gives the same
    results, bit for bit, as the blocks sized from the geometric tail."""

    @staticmethod
    def results():
        from moq import RandomSource, sample_count, series_at_one, series_at_zero

        out = []
        for q, a, r in [(5, (3.0, 0.3, 0.4, 0.9, 0.6), 2.0), (3, (2.5, 0.5, 0.8), 1.0)]:
            pv = validate_params(q, a)
            out += [moment_exponential(pv, r, method=m) for m in ("series_at_zero", "series_at_one")]
        out.append(moment_loglogistic(validate_params(2, [200.0, 0.5]), 0.5, method="series_at_zero"))
        try:
            moment_exponential(validate_params(2, [20.0, 0.5]), 1.5, method="series_at_zero")
        except Nonconvergence as exc:
            out.append(str(exc))
        mixed = validate_params(5, (1.386, 0.1817, 0.2462, 0.4314, 0.3165))
        out += [series_at_zero(mixed, tol=1e-10), series_at_one(validate_params(3, (2.0, 2.0, 1.95)))]
        out.append(sample_count(validate_params(2, [200.0, 0.5]), RandomSource(3), 2000).tolist())
        return out

    def test_one_index_per_block(self, monkeypatch):
        from moq import family, sampling

        sized = self.results()
        sampling._count_table.cache_clear()

        def one_index(self, m0, m1, tail, tol, rho, max_terms, lag=0):
            return min(m1 + 1 if m0 < m1 else 2, max_terms + 1)

        monkeypatch.setattr(family._SeriesStream, "next_end", one_index)
        try:
            assert self.results() == sized
        finally:
            sampling._count_table.cache_clear()


class TestOneWalk:
    """One walk of the series at zero serves every order of the
    generalized-Weibull binomial transform, and the log-logistic factors
    come from a running sum of log ratios: both against the sums they
    replaced and against mpmath."""

    ORDERS = list(itertools.product((1, 2, 3), repeat=3))  # (1/shape, shape2, m)

    @staticmethod
    def per_order_transform(pv, inv_shape, shape2, m, tol=1e-10):
        """The transform from one moment_exponential call per order, as it
        was summed before: (value, error estimate)."""
        n = inv_shape * m
        moments = [moment_exponential(pv, float(j), tol=tol * 1e-3) for j in range(shape2 * n + 1)]
        total = err = 0.0
        for k in range(n + 1):
            for j in range(shape2 * k + 1):
                c = (-1.0) ** (n - k) * math.comb(n, k) * math.comb(shape2 * k, j)
                total += c * moments[j].value
                err += abs(c) * (moments[j].error_estimate + np.finfo(float).eps * abs(moments[j].value))
        return total, err

    @staticmethod
    def exact_transform(a, inv_shape, shape2, m):
        """E(X^m) for the extended GeneralizedWeibull(1, 1/inv_shape, shape2)
        where sum(a) = q, so that T(u) = u prod_{i>=2} (a_i + (1 - a_i) u)
        is a polynomial: X = ((1 + Y)^shape2 - 1)^inv_shape with Y the unit
        exponential quantile of U, U of density T', so
        E(X^m) = int_0^inf ((1 + y)^shape2 - 1)^(m inv_shape) T'(1 - e^-y) e^-y dy,
        a sum of n! / c^(n+1), in exact rationals."""
        t = [Fraction(0), Fraction(1)]  # T's coefficients, lowest power first
        for ai in map(Fraction, a[1:]):
            t = [x * ai + y * (1 - ai) for x, y in zip(t + [0], [0] + t)]
        # T'(1 - e^-y) e^-y = sum_i d_i e^-(i+1)y
        d = [Fraction(0)] * len(t)
        for k in range(1, len(t)):
            for i in range(k):
                d[i] += k * t[k] * math.comb(k - 1, i) * (-1) ** i
        # ((1 + y)^shape2 - 1)^(m inv_shape) = sum_n p_n y^n
        base = [0] + [math.comb(shape2, n) for n in range(1, shape2 + 1)]
        p = [1]
        for _ in range(m * inv_shape):
            p = [sum(p[i] * base[n - i] for i in range(len(p)) if 0 <= n - i < len(base))
                 for n in range(len(p) + len(base) - 1)]
        return sum(pn * di * Fraction(math.factorial(n), (i + 1) ** (n + 1))
                   for n, pn in enumerate(p) for i, di in enumerate(d))

    @pytest.mark.parametrize("a", [(1.5, 0.5), (1.2, 0.9, 0.9), (2.2, 0.5, 0.5)])
    def test_binomial_transform_against_per_order_sums(self, a):
        pv = validate_params(len(a), a)
        for inv_shape, shape2, m in self.ORDERS:
            res = moment_generalized_weibull(pv, 1.0, 1.0 / inv_shape, float(shape2), m)
            value, err = self.per_order_transform(pv, inv_shape, shape2, m)
            assert res.method_used == "binomial_transform"
            assert abs(res.value - value) <= res.error_estimate + err, (inv_shape, shape2, m)

    @pytest.mark.parametrize("a", [(1.5, 0.5), (1.2, 0.9, 0.9)])
    def test_binomial_transform_estimate_bounds_the_error(self, a):
        mp = pytest.importorskip("mpmath")
        pv = validate_params(len(a), a)
        for inv_shape, shape2, m in self.ORDERS:
            res = moment_generalized_weibull(pv, 1.0, 1.0 / inv_shape, float(shape2), m)
            exact = self.exact_transform(a, inv_shape, shape2, m)
            with mp.workdps(40):
                miss = abs(mp.mpf(res.value) - mp.mpf(exact.numerator) / exact.denominator)
            assert miss <= res.error_estimate, (inv_shape, shape2, m, res)

    @pytest.mark.parametrize("method, a", [
        ("series_at_zero", (3.0, 0.5, 0.5)),
        ("series_at_zero", (20.0, 0.5)),
        ("series_at_zero", (200.0, 0.5)),
        ("series_at_one", (1.8, 0.5)),
        ("series_at_one", (3.4, 0.5)),
    ])
    def test_loglogistic_series_estimate_bounds_the_error(self, method, a):
        """Up to 3,624 terms at zero (a_1 = 200, r = 0.9), 736 at one."""
        mp = pytest.importorskip("mpmath")
        pv = validate_params(len(a), a)
        for r in (-0.5, 0.3, 0.5, 0.9):
            res = moment_loglogistic(pv, r, method=method)
            assert abs(res.value - mp_moment(mp, LogLogistic(), a, r)) <= res.error_estimate, (r, res)

    def test_each_order_ends_as_it_would_alone(self):
        """For a = (4, 0.5, 0.5) at tol 1e-13 the inner sums of order 0.3
        cancel past the limit before its series ends, while orders 1 and 8
        end after 45 and 60 terms in the same walk: auto integrates order
        0.3 alone, a pinned series raises for it, and every result is the
        one a call for that order alone returns."""
        from moq.moments import _unit_moment

        pv, orders = validate_params(3, [4.0, 0.5, 0.5]), [0.3, 1.0, 8.0]
        res = _unit_moment(Exponential, pv, orders, 1e-13, 1e-13, "auto")
        assert [(r.method_used, r.terms_used) for r in res[1:]] == [("series_at_zero", 45), ("series_at_zero", 60)]
        assert res == [moment_exponential(pv, r, tol=1e-13) for r in orders]
        assert res[0].method_used == "quadrature"
        with pytest.raises(Nonconvergence, match="ill-conditioned"):
            _unit_moment(Exponential, pv, orders, 1e-13, 1e-13, "series_at_zero")

    def test_failed_orders_keep_their_own_reason(self):
        """For a = (4, 0.5, 0.5) at tol 1e-13 the inner sums of order 0.3
        cancel past the limit at index 42, and the terms of order 170
        overflow from index 25, while order 1 ends after 45 terms: in one
        walk each failed order gives the Nonconvergence that a walk of it
        alone raises, and order 1 the result it gives alone."""
        from moq.moments import _gamma_factors, _moment_series

        pv, orders, tol = validate_params(3, [4.0, 0.5, 0.5]), [0.3, 170.0, 1.0], 1e-13
        joint = _moment_series(pv, "at_zero", _gamma_factors(orders, "at_zero", tol), tol, 10**5)
        for r, res in zip(orders[:2], joint):
            with pytest.raises(Nonconvergence) as alone:
                moment_exponential(pv, r, tol=tol, method="series_at_zero")
            assert isinstance(res, Nonconvergence) and str(res) == str(alone.value)
        assert "ill-conditioned at index 42" in str(joint[0]) and "term at index 25 is not finite" in str(joint[1])
        assert joint[2] == moment_exponential(pv, 1.0, tol=tol, method="series_at_zero")

    def test_moment_table_ops_keep_path_and_terms(self):
        """The two series of the benchmark's moment table that one walk and
        the log ratios speed up: same path and terms, and the values of the
        per-order sums and of the log-gamma factors within the estimates,
        which were 9.66e-6 and 1.4936e-10; the second is no larger now."""
        gw = moment(GeneralizedWeibull(1.0, 0.5, 2.0), validate_params(2, [1.5, 0.5]), 3.0)
        assert (gw.method_used, gw.terms_used) == ("binomial_transform", 4)
        assert abs(gw.value - 1866362371.874999) <= gw.error_estimate + 9.66e-06
        ll = moment(LogLogistic(1.0, 1.0), validate_params(2, [200.0, 0.5]), 0.5, method="series_at_zero")
        assert (ll.method_used, ll.terms_used) == ("scaling(series_at_zero)", 3107)
        assert abs(ll.value - 23.552158035525906) <= ll.error_estimate + 1.4936e-10
        assert ll.error_estimate <= 1.4936e-10


class TestClosedForm:
    def test_standard_case(self):
        assert moment_q2_loglogistic_closed(1.0, 1.0, 1.0, 1.0, 0.5) == pytest.approx(
            math.pi / 2.0, abs=1e-12
        )

    def test_unequal_parameters(self):
        assert moment_q2_loglogistic_closed(1.5, 0.5, 1.0, 1.0, 0.5) == pytest.approx(
            1.25 * math.pi / 2.0, rel=1e-12
        )

    def test_zero_order_limit(self):
        assert moment_q2_loglogistic_closed(1.5, 0.5, 2.0, 3.0, 0.0) == 1.0

    def test_scaled_baseline_vs_quadrature(self):
        pv = validate_params(2, [1.5, 0.5])
        val = moment_q2_loglogistic_closed(1.5, 0.5, 2.0, 2.0, 1.0)
        assert val == pytest.approx(quad_moment(LogLogistic(2.0, 2.0), pv, 1.0, tol=1e-9), rel=1e-8)

    def test_reversed_ordering_vs_quadrature(self):
        """The sign convention of the (a1 - a2) factor for a1 < a2 is decided
        by the quadrature oracle, not assumed."""
        pv = validate_params(2, [0.5, 1.5])
        val = moment_q2_loglogistic_closed(0.5, 1.5, 1.0, 1.0, 0.5)
        assert val == pytest.approx(quad_moment(LogLogistic(), pv, 0.5), rel=1e-8)

    def test_order_domain(self):
        with pytest.raises(DomainError):
            moment_q2_loglogistic_closed(1.0, 1.0, 1.0, 1.0, 1.0)


class TestWeibullScaling:
    def test_identity(self):
        assert moment_weibull_scaled(validate_params(1, [1.0]), 1.0, 1.0, 1.0).value == pytest.approx(1.0)

    def test_classical_second_moment(self):
        # Weibull(2, 2) second moment is scale^2 * Gamma(2) = 4
        res = moment_weibull_scaled(validate_params(1, [1.0]), 2.0, 2.0, 2.0)
        assert res.value == pytest.approx(4.0, rel=1e-10)

    def test_extension_vs_quadrature(self):
        pv = validate_params(2, [1.5, 0.5])
        res = moment_weibull_scaled(pv, 2.0, 2.0, 1.0)
        assert res.value == pytest.approx(quad_moment(Weibull(2.0, 2.0), pv, 1.0), rel=1e-6)

    def test_zero_order_limit(self):
        assert moment_weibull_scaled(validate_params(2, [1.5, 0.5]), 2.0, 2.0, 0.0).value == 1.0


class TestGeneralizedWeibull:
    def test_identity_baseline(self):
        res = moment_generalized_weibull(validate_params(1, [1.0]), 1.0, 1.0, 1.0, 1)
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_polynomial_transform_case(self):
        """shape2 = 2 with unit parameters: X = (1 + X0)^2 - 1 for unit
        exponential X0, so E X = E X0^2 + 2 E X0 = 4; quadrature agrees."""
        res = moment_generalized_weibull(validate_params(1, [1.0]), 1.0, 1.0, 2.0, 1)
        assert res.value == pytest.approx(4.0, rel=1e-9)
        quad = quad_moment(GeneralizedWeibull(1.0, 1.0, 2.0), validate_params(1, [1.0]), 1.0, tol=1e-9)
        assert res.value == pytest.approx(quad, rel=1e-6)

    def test_extension_vs_quadrature(self):
        pv = validate_params(2, [1.5, 0.5])
        res = moment_generalized_weibull(pv, 2.0, 0.5, 1.0, 2)
        quad = quad_moment(GeneralizedWeibull(2.0, 0.5, 1.0), pv, 2.0, tol=1e-8)
        assert res.value == pytest.approx(quad, rel=1e-6)

    def test_integrality_checks(self):
        pv = validate_params(1, [1.0])
        with pytest.raises(DomainError):
            moment_generalized_weibull(pv, 1.0, 0.6, 1.0, 1)  # 1/shape not integer
        with pytest.raises(DomainError):
            moment_generalized_weibull(pv, 1.0, 1.0, 1.5, 1)  # shape2 not integer
        with pytest.raises(DomainError):
            moment_generalized_weibull(pv, 1.0, 1.0, 1.0, 0)  # order not positive


class TestMomentBound:
    def test_identity_parameters_reach_equality(self):
        lhs, rhs = moment_bound_check(validate_params(1, [1.0]), Exponential(1.0), 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_exponential_bound(self):
        lhs, rhs = moment_bound_check(validate_params(2, [1.5, 0.5]), Exponential(1.0), 1.0)
        assert lhs <= rhs + 1e-9
        assert rhs == pytest.approx(1.5, rel=1e-9)

    def test_loglogistic_bound_with_analytic_right_side(self):
        lhs, rhs = moment_bound_check(validate_params(3, [2.0, 0.6, 0.7]), LogLogistic(), 0.5)
        assert lhs <= rhs + 1e-9
        assert rhs == pytest.approx(2.0 * math.pi / 2.0, rel=1e-8)

    def test_monte_carlo_left_side(self):
        pv = validate_params(2, [1.5, 0.5])
        lhs, rhs = moment_bound_check(pv, Exponential(1.0), 1.0, n_mc=200_000, seed=3)
        exact = quad_moment(Exponential(1.0), pv, 1.0)
        assert lhs == pytest.approx(exact, rel=0.02)
        assert lhs <= rhs + 0.02

    def test_requires_pmf_regime(self):
        with pytest.raises(ConditionViolated):
            moment_bound_check(validate_params(2, [1e-6, 0.15]), Exponential(1.0), 1.0)


class TestFrontDoor:
    def test_prefers_closed_form(self):
        res = moment(LogLogistic(), validate_params(2, [1.0, 1.0]), 0.5)
        assert res.method_used == "closed_form"
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_exponential_routes_through_scaling(self):
        res = moment(Exponential(2.0), validate_params(1, [1.0]), 1.0)
        assert res.value == pytest.approx(2.0, rel=1e-10)

    def test_quadrature_method(self):
        pv = validate_params(2, [1e-6, 0.15])  # outside the pmf regime
        res = moment(Weibull(2.0, 2.0), pv, 1.0, method="quadrature")
        assert res.method_used == "quadrature"
        assert res.value == pytest.approx(quad_moment(Weibull(2.0, 2.0), pv, 1.0), rel=1e-9)

    def test_loglogistic_order_beyond_shape_rejected(self):
        with pytest.raises(DomainError):
            moment(LogLogistic(1.0, 1.0), validate_params(2, [1.0, 1.0]), 1.5)

    def test_generalized_weibull_auto_falls_back_to_quadrature(self):
        pv = validate_params(1, [1.5])
        res = moment(GeneralizedWeibull(1.0, 0.6, 1.3), pv, 1.0)
        assert res.method_used == "quadrature"

    def test_auto_outside_pmf_regime_integrates(self):
        pv = validate_params(2, [1e-6, 0.15])
        res = moment(Weibull(2.0, 2.0), pv, 1.0)
        assert res.method_used == "quadrature"
        assert res.value == moment(Weibull(2.0, 2.0), pv, 1.0, method="quadrature").value

    @pytest.mark.parametrize("baseline", [Exponential(1.0), Weibull(2.0, 2.0), LogLogistic()])
    def test_unknown_method_rejected(self, baseline):
        with pytest.raises(DomainError, match="unknown method"):
            moment(baseline, validate_params(2, [1.5, 0.5]), 0.5, method="nonsense")

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_bad_tolerance_rejected_before_any_work(self, tol):
        with pytest.raises(DomainError, match="tol"):
            moment(LogLogistic(), validate_params(2, [1.5, 0.5]), 0.3, method="series_at_zero", tol=tol)

    def test_loglogistic_domain_checked_before_quadrature(self):
        with pytest.raises(DomainError):
            moment(LogLogistic(), validate_params(1, [1.0]), 1.0, method="quadrature")

    @pytest.mark.parametrize("baseline, r", [
        (Exponential(1.0), 200.0),  # Gamma(201) in the series prefactor
        (Weibull(1e200, 2.0), 2.0),  # scale^r
        (Weibull(1.2e154, 2.0), 2.0),  # scale^r is finite, the moment is not
        (LogLogistic(1e300, 3.0), 2.0),
        (GeneralizedWeibull(1e200, 1.0, 1.0), 2.0),  # the binomial transform's scale^m
    ])
    def test_overflowing_moment_is_a_domain_error(self, baseline, r):
        with pytest.raises(DomainError, match="overflows"):
            moment(baseline, validate_params(3, [2.2, 0.5, 0.5]), r)

    def test_largest_finite_scaled_moment_returns(self):
        res = moment(Weibull(1e154, 2.0), validate_params(3, [2.2, 0.5, 0.5]), 2.0)
        assert math.isfinite(res.value) and res.value > 1e308


def mp_t_deriv(mp, a, u):
    """T'(u) in mpmath from T = q^q u prod f_i / D^q, f_i = a_i + (1 - a_i) u,
    D = S + (q - S) u."""
    a = [mp.mpf(v) for v in a]
    q, big_s = len(a), mp.fsum(a)
    f = [ai + (1 - ai) * u for ai in a[1:]]
    d = big_s + (q - big_s) * u
    log_slope = mp.fsum((1 - ai) / fi for ai, fi in zip(a[1:], f)) - q * (q - big_s) / d
    return mp.mpf(q) ** q * mp.fprod(f) / d**q * (1 + u * log_slope)


def mp_moment(mp, baseline, a, r):
    """E(X^r) = int_0^inf x^r T'(F0(x)) f0(x) dx in mpmath, from the
    definitions of the baselines and of T, sharing no code with moq.

    The integral is split at the scale c.  Below it x = c v^(1/alpha),
    alpha = r + shape, and above it x = c v^(-1/beta), beta = shape - r,
    for the log-logistic, or x = c y^(1/kappa) for the others, kappa the
    power of x that their cumulative hazard grows with: each makes the
    integrand bounded, so the rule does not lose the mass at a singular
    end.
    """
    family = type(baseline).__name__
    c, r = mp.mpf(baseline.scale), mp.mpf(r)
    k = mp.mpf(getattr(baseline, "shape", 1.0))

    def cdf_pdf(x):
        z = x / c
        if family == "Exponential":
            return -mp.expm1(-z), mp.exp(-z) / c
        if family == "Weibull":
            return -mp.expm1(-(z**k)), k / c * z ** (k - 1) * mp.exp(-(z**k))
        if family == "GeneralizedWeibull":
            inv = 1 / mp.mpf(baseline.shape2)
            log_sf = -mp.expm1(inv * mp.log1p(z**k))
            return -mp.expm1(log_sf), mp.exp(log_sf) * inv * (1 + z**k) ** (inv - 1) * k / c * z ** (k - 1)
        return z**k / (1 + z**k), k / c * z ** (k - 1) / (1 + z**k) ** 2

    def integrand(x):
        u, density = cdf_pdf(x)
        return x**r * mp_t_deriv(mp, a, u) * density

    def substituted(power):
        return lambda v: integrand(c * v**power) * c * abs(power) * v ** (power - 1) if v > 0 else mp.mpf(0)

    unit = [0, mp.mpf(10) ** -12, mp.mpf(10) ** -8, mp.mpf(10) ** -4, mp.mpf(10) ** -2, 1]
    with mp.workdps(20):
        below = mp.quad(substituted(1 / (r + k)), unit)
        if family == "LogLogistic":
            above = mp.quad(substituted(-1 / (k - r)), unit)
        else:
            kappa = k / mp.mpf(baseline.shape2) if family == "GeneralizedWeibull" else k
            above = mp.quad(substituted(1 / kappa), [1, 2, 4, 8, 16, 32, 64, 128, 256])
        return below + above


def random_queries(n, seed):
    """Derandomized (baseline, a, r): the four families in turn, q <= 6, a
    log-uniform in [1e-3, 1e3] in turn with the pmf regime (a_i in
    [1e-3, 1] for i >= 2, a_1 up to 1e3 times what S >= q needs), and r
    across the existence domain, at most 0.9 of the way to its ends."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        q = int(rng.integers(1, 7))
        if i // 4 % 2:
            rest = 10 ** rng.uniform(-3, 0, q - 1)
            a = [max(q - rest.sum(), 1e-3) * 10 ** rng.uniform(0, 3), *rest]
            a[0] = max(a[0], q - rest.sum())
        else:
            a = list(10 ** rng.uniform(-3, 3, q))
        scale, shape = 10 ** rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-0.5, 0.6)
        baseline = [
            Exponential(scale),
            Weibull(scale, shape),
            GeneralizedWeibull(scale, shape, 10 ** rng.uniform(-0.3, 0.5)),
            LogLogistic(scale, shape),
        ][i % 4]
        shape = getattr(baseline, "shape", 1.0)
        hi = min(3.0, 0.9 * shape) if i % 4 == 3 else 3.0
        out.append((baseline, [float(v) for v in a], float(rng.uniform(-0.9 * shape, hi))))
    return out


class TestQuadrature:
    """The tanh-sinh rule in u-space against mpmath in x-space."""

    @pytest.mark.parametrize("baseline, a, r", random_queries(100, 11))
    def test_error_estimate_covers_error(self, baseline, a, r):
        mp = pytest.importorskip("mpmath")
        res = moment(baseline, validate_params(len(a), a), r, method="quadrature")
        assert res.method_used == "quadrature"
        exact = mp_moment(mp, baseline, a, r)
        assert abs(res.value - exact) <= res.error_estimate <= 1e-10 * res.value

    def test_abscissa_underflow_gives_a_finite_value(self):
        """At r < 0 the quantile of the outermost node underflows to 0,
        where the term's limit is 0, not inf."""
        mp = pytest.importorskip("mpmath")
        baseline, a, r = Weibull(1.824, 0.837), (5.613, 226.6), -0.00139
        res = moment(baseline, validate_params(2, a), r, method="quadrature")
        assert math.isfinite(res.value)
        assert abs(res.value - mp_moment(mp, baseline, a, r)) <= res.error_estimate

    @pytest.mark.parametrize("baseline, r", [(Weibull(100.0, 2.0), 2.0), (Exponential(30.0), 3.0)])
    def test_scaled_quadrature_keeps_a_relative_tol(self, baseline, r):
        """Through the power-scaling relation the quadrature's relative stop
        was handed tol / scale^r, below the rounding floor: both raised
        ToleranceNotMet.  The series keep the absolute tol / scale^r."""
        mp = pytest.importorskip("mpmath")
        a = (20.0, 0.5)
        res = moment(baseline, validate_params(2, a), r)
        assert res.method_used == "scaling(quadrature)"
        assert abs(res.value - mp_moment(mp, baseline, a, r)) <= res.error_estimate <= 1e-10 * res.value

    @pytest.mark.parametrize("fraction", [0.93, 0.94, 0.97, -0.93, -0.97])
    def test_barely_existing_moment_raises_or_matches(self, fraction):
        """Near r = +-shape the log-logistic integrand decays too slowly
        for the nodes' span, and level differences see little of the
        missing mass: the rule must count it or raise, never return the
        truncated sum as if it met tol."""
        mp = pytest.importorskip("mpmath")
        baseline, a = LogLogistic(1.3, 0.5), (0.3, 2.0, 5.0)  # outside the pmf regime
        r = fraction * baseline.shape
        try:
            res = moment(baseline, validate_params(3, a), r)
        except ToleranceNotMet:
            return
        assert abs(res.value - mp_moment(mp, baseline, a, r)) <= res.error_estimate

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_binomial_transform_against_mpmath(self, m):
        """The generalized-Weibull integer moments from the binomial
        transform of the exponential's: 1.87e9 at m = 3."""
        mp = pytest.importorskip("mpmath")
        baseline, a = GeneralizedWeibull(1.0, 0.5, 2.0), (1.5, 0.5)
        res = moment_generalized_weibull(validate_params(2, a), 1.0, 0.5, 2.0, m)
        assert res.value == pytest.approx(float(mp_moment(mp, baseline, a, m)), rel=1e-12)


class TestRouting:
    @pytest.mark.parametrize(
        "baseline, a, r",
        [
            (GeneralizedWeibull(1.0, 0.5, 2.0), (1.5, 0.5), -0.5),
            (Weibull(2.0, 2.0), (1e-6, 0.15), -2.0),
            (Exponential(1.0), (1.5, 0.5), -1.0),
            (LogLogistic(1.0, 2.0), (2.0, 0.5, 0.5), -2.0),
            (Weibull(2.0, 2.0), (1.5, 0.5), math.inf),
        ],
    )
    def test_infinite_moment_is_a_domain_error(self, baseline, a, r):
        """T' is bounded and positive, so E(X^r) is infinite exactly where
        the baseline's moment is; no path is tried there."""
        with pytest.raises(DomainError, match="moments need"):
            moment(baseline, validate_params(len(a), a), r, method="quadrature")

    def test_auto_skips_a_long_series(self, monkeypatch):
        """a = (20, 0.5) needs hundreds of terms at zero, whose inner sums
        cancel from index 50: auto integrates without trying them."""
        from moq import moments

        def no_series(*args):
            raise AssertionError("series summed")

        monkeypatch.setattr(moments, "_moment_series", no_series)
        res = moment(Exponential(1.0), validate_params(2, [20.0, 0.5]), 1.5)
        assert res.method_used == "scaling(quadrature)"

    def test_auto_takes_a_short_series(self):
        res = moment(Weibull(1.0, 0.8), validate_params(4, [2.2, 0.6, 0.7, 0.9]), 0.5)
        assert res.method_used == "scaling(series_at_zero)"

    def test_series_at_one_error_is_a_bound(self):
        """The alternating series at one where its modes cancel: the last
        term is no bound on the error, the envelope tail plus rounding is."""
        mp = pytest.importorskip("mpmath")
        a = (9.743716844665888, 0.09383741149985923, 0.1479449610186872,
             0.6979621847174724, 0.8982773889373366, 0.19843143616866027)
        r = 0.23994548870075624
        res = moment_loglogistic(validate_params(6, a), r, method="series_at_one")
        exact = mp_moment(mp, LogLogistic(), a, r)
        assert exact == pytest.approx(2.0480001528, rel=1e-10)
        assert abs(res.value - exact) <= res.error_estimate


# The routing table of moment(): per family, parameter vector and method,
# the path taken or the error raised at the negative, fractional and integer
# orders of _ROUTE_FAMILIES.  "short" and "long" lie in the pmf regime, the
# series at zero of "long" cancels past index 50 (so auto integrates), "mixed"
# lies outside it, and "q2" has the log-logistic closed form.
_ROUTE_FAMILIES = {
    "exponential": (Exponential(2.0), (-0.5, 0.5, 2.0)),
    "weibull": (Weibull(2.0, 2.0), (-1.5, 0.7, 2.0)),
    "generalized_weibull": (GeneralizedWeibull(1.0, 0.5, 2.0), (-0.3, 0.7, 2.0)),
    "loglogistic": (LogLogistic(1.5, 2.0), (-0.5, 0.7, 1.0)),
}
_ROUTE_VECTORS = {"short": (2.2, 0.5, 0.5), "long": (20.0, 0.5, 0.5), "mixed": (0.6, 0.3, 0.2), "q2": (1.5, 0.5)}
_ROUTE_OUTCOMES = {
    "z": "scaling(series_at_zero)", "o": "scaling(series_at_one)", "sq": "scaling(quadrature)",
    "q": "quadrature", "c": "closed_form", "b": "binomial_transform",
    "D": DomainError, "C": ConditionViolated, "N": Nonconvergence,
}
_ROUTES = """
exponential          short  auto            z   z   z
exponential          short  closed_form     D   D   D
exponential          short  series_at_zero  z   z   z
exponential          short  series_at_one   o   o   o
exponential          short  quadrature      q   q   q
exponential          long   auto            sq  sq  sq
exponential          long   closed_form     D   D   D
exponential          long   series_at_zero  N   N   N
exponential          long   series_at_one   C   C   C
exponential          long   quadrature      q   q   q
exponential          mixed  auto            q   q   q
exponential          mixed  closed_form     D   D   D
exponential          mixed  series_at_zero  C   C   C
exponential          mixed  series_at_one   C   C   C
exponential          mixed  quadrature      q   q   q
weibull              short  auto            z   z   z
weibull              short  closed_form     D   D   D
weibull              short  series_at_zero  z   z   z
weibull              short  series_at_one   o   o   o
weibull              short  quadrature      q   q   q
weibull              long   auto            sq  sq  sq
weibull              long   closed_form     D   D   D
weibull              long   series_at_zero  N   N   N
weibull              long   series_at_one   C   C   C
weibull              long   quadrature      q   q   q
weibull              mixed  auto            q   q   q
weibull              mixed  closed_form     D   D   D
weibull              mixed  series_at_zero  C   C   C
weibull              mixed  series_at_one   C   C   C
weibull              mixed  quadrature      q   q   q
generalized_weibull  short  auto            q   q   b
generalized_weibull  short  closed_form     D   D   b
generalized_weibull  short  series_at_zero  D   D   D
generalized_weibull  short  series_at_one   D   D   D
generalized_weibull  short  quadrature      q   q   q
generalized_weibull  long   auto            q   q   b
generalized_weibull  long   closed_form     D   D   b
generalized_weibull  long   series_at_zero  D   D   D
generalized_weibull  long   series_at_one   D   D   D
generalized_weibull  long   quadrature      q   q   q
generalized_weibull  mixed  auto            q   q   q
generalized_weibull  mixed  closed_form     D   D   C
generalized_weibull  mixed  series_at_zero  D   D   D
generalized_weibull  mixed  series_at_one   D   D   D
generalized_weibull  mixed  quadrature      q   q   q
loglogistic          short  auto            z   z   z
loglogistic          short  closed_form     C   C   C
loglogistic          short  series_at_zero  z   z   z
loglogistic          short  series_at_one   o   o   o
loglogistic          short  quadrature      q   q   q
loglogistic          long   auto            sq  sq  sq
loglogistic          long   closed_form     C   C   C
loglogistic          long   series_at_zero  z   z   z
loglogistic          long   series_at_one   C   C   C
loglogistic          long   quadrature      q   q   q
loglogistic          mixed  auto            q   q   q
loglogistic          mixed  closed_form     C   C   C
loglogistic          mixed  series_at_zero  C   C   C
loglogistic          mixed  series_at_one   C   C   C
loglogistic          mixed  quadrature      q   q   q
loglogistic          q2     auto            c   c   c
loglogistic          q2     closed_form     c   c   c
loglogistic          q2     series_at_zero  z   z   z
loglogistic          q2     series_at_one   o   o   o
loglogistic          q2     quadrature      q   q   q
"""


def _route_rows():
    for line in _ROUTES.strip().splitlines():
        family, vector, method, *outcomes = line.split()
        for r, outcome in zip(_ROUTE_FAMILIES[family][1], outcomes):
            yield pytest.param(family, vector, method, r, outcome, id=f"{family}-{vector}-{method}-{r}")


@functools.lru_cache(maxsize=None)
def _route_reference(family, vector, r):
    mp = pytest.importorskip("mpmath")
    return float(mp_moment(mp, _ROUTE_FAMILIES[family][0], _ROUTE_VECTORS[vector], r))


class TestRoutingTable:
    @pytest.mark.parametrize("family, vector, method, r, outcome", _route_rows())
    def test_route(self, family, vector, method, r, outcome):
        """Each query takes its path, with a value within its error
        estimate of mpmath, or raises its MoqError subclass."""
        baseline, a, expected = _ROUTE_FAMILIES[family][0], _ROUTE_VECTORS[vector], _ROUTE_OUTCOMES[outcome]
        pv = validate_params(len(a), a)
        if isinstance(expected, type):
            with pytest.raises(MoqError) as exc:
                moment(baseline, pv, r, method=method)
            assert type(exc.value) is expected
            return
        res = moment(baseline, pv, r, method=method)
        assert res.method_used == expected
        assert abs(res.value - _route_reference(family, vector, r)) <= res.error_estimate

    @pytest.mark.parametrize("family", _ROUTE_FAMILIES)
    def test_scaling_is_not_a_method(self, family):
        with pytest.raises(DomainError, match="unknown method 'scaling'"):
            moment(_ROUTE_FAMILIES[family][0], validate_params(3, _ROUTE_VECTORS["short"]), 0.5, method="scaling")

    @pytest.mark.parametrize("baseline", [LogLogistic(1e4, 1.0), Weibull(1e4, 1.0)])
    def test_scaled_series_stops_on_an_absolute_tol(self, baseline):
        """Through power scaling a series stops on tol / scale^r, so its
        error is absolute: LogLogistic(1e4, 1) reported 1.4e-8 here when
        its series got tol itself, Weibull(1e4, 1) 4.7e-11."""
        mp = pytest.importorskip("mpmath")
        a, r, tol = (3.0, 0.5, 0.5), 0.6, 1e-10
        res = moment(baseline, validate_params(3, a), r, tol=tol)
        assert res.method_used == "scaling(series_at_zero)"
        assert abs(res.value - mp_moment(mp, baseline, a, r)) <= res.error_estimate <= 2 * tol
