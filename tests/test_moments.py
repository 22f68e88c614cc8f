"""Tests for the moment paths: series, closed forms, scaling, bounds.

Expected values are frozen from independent oracles: closed forms of the
one-parameter subfamily (geometric weights), classical special-function
identities, and the adaptive quadrature of x^r times the density.
"""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from moq import (
    Baseline,
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
        auto integrates first, which misses tol, and the series it falls
        back on fails there, so the quadrature's error is raised; a pinned
        series raises its own; neither runs on towards max_terms."""
        pv = validate_params(3, [2.2, 0.5, 0.5])
        with wall_clock_limit(5.0):
            with pytest.raises(ToleranceNotMet, match="quadrature error estimate inf"):
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
        sampling._count_cdf.cache_clear()
        family._series_stream.cache_clear()  # else the weights come from the kept prefixes

        def one_index(self, m0, m1, tail, tol, rho, max_terms, lag=0):
            return min(m1 + 1 if m0 < m1 else 2, max_terms + 1)

        monkeypatch.setattr(family._SeriesStream, "next_end", one_index)
        try:
            assert self.results() == sized
        finally:
            sampling._count_cdf.cache_clear()


class TestOneWalk:
    """The generalized-Weibull binomial transform against the per-order
    series sums it was once built from and against exact rationals; the
    log-logistic factors from a running sum of log ratios against mpmath;
    and the single-order series of the unit exponential, which ends or
    fails on its own terms."""

    ORDERS = list(itertools.product((1, 2, 3), repeat=3))  # (1/shape, shape2, m)

    @staticmethod
    def per_order_transform(pv, inv_shape, shape2, m, tol=1e-10):
        """The transform from one series-at-zero call per order, as it was
        summed before: (value, error estimate)."""
        n = inv_shape * m
        moments = [moment_exponential(pv, float(j), tol=tol * 1e-3, method="series_at_zero")
                   for j in range(shape2 * n + 1)]
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
        """For a = (4, 0.5, 0.5) at tol 1e-13 the series at zero of order 8
        ends after 60 terms, within its estimate of the quadrature's value."""
        pv = validate_params(3, [4.0, 0.5, 0.5])
        res = moment_exponential(pv, 8.0, tol=1e-13, method="series_at_zero")
        assert (res.method_used, res.terms_used) == ("series_at_zero", 60)
        quad = moment_exponential(pv, 8.0, tol=1e-13, method="quadrature")
        assert abs(res.value - quad.value) <= res.error_estimate + quad.error_estimate

    def test_failed_orders_keep_their_own_reason(self):
        """For a = (4, 0.5, 0.5) at tol 1e-13 the inner sums of order 0.3
        cancel past the limit at index 42, and the terms of order 170
        overflow from index 25, while order 1 ends after 45 terms: each
        pinned series raises its own reason or ends on its own."""
        pv, tol = validate_params(3, [4.0, 0.5, 0.5]), 1e-13
        for r, reason in ((0.3, "ill-conditioned at index 42"), (170.0, "term at index 25 is not finite")):
            with pytest.raises(Nonconvergence, match=reason):
                moment_exponential(pv, r, tol=tol, method="series_at_zero")
        res = moment_exponential(pv, 1.0, tol=tol, method="series_at_zero")
        assert (res.method_used, res.terms_used) == ("series_at_zero", 45)

    def test_moment_table_ops_keep_path_and_terms(self):
        """Two series of the benchmark's moment table: path and terms, and
        the values of the binomial transform and of the log-gamma factors
        within the estimates, which were 9.66e-6 and 1.4936e-10; the second
        is no larger now.  Under auto the generalized Weibull integrates."""
        gw = moment(GeneralizedWeibull(1.0, 0.5, 2.0), validate_params(2, [1.5, 0.5]), 3.0)
        assert (gw.method_used, gw.terms_used) == ("quadrature", 385)
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

    def test_estimate_bounds_the_rounding(self):
        """The reported error bounds the rounding of the formula, against
        the formula in mpmath.  The first query reached 4.8 eps, above the
        4 eps once reported: there s = r / b2 = 0.81, m = (a1 + a2) / 2 = 33,
        so the rounding of s costs |s log m| = 2.8 eps in m^s, and the last
        factor cancels to 0.19.  The others are a log-uniform in
        [1e-3, 1e3] and s in (-1, 1), seed 3; a value past the float range
        raises DomainError, and one below it must still be bounded."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        queries = [(0.026651525595684934, 65.67754677903876, 1.0338529551378393, 1.392515821530706,
                    1.1241900559307938)]
        for _ in range(300):
            a1, a2, b1, b2 = 10 ** rng.uniform(-3, 3, 4)
            queries.append((a1, a2, b1, b2, b2 * rng.uniform(-0.9999, 0.9999)))
        for a1, a2, b1, b2, r in (map(float, query) for query in queries):
            try:
                res = moment(LogLogistic(b1, b2), validate_params(2, [a1, a2]), r)
            except DomainError as exc:
                assert "overflows" in str(exc)
                continue
            assert res.method_used == "closed_form"
            with mp.workdps(40):
                a1_, a2_, b1_, b2_, r_ = map(mp.mpf, (a1, a2, b1, b2, r))
                s = r_ / b2_
                exact = (b1_**r_ * ((a1_ + a2_) / 2) ** s * r_ * mp.pi / (b2_ * mp.sin(mp.pi * s))
                         * (s * (a1_ - a2_) / (a1_ + a2_) + 1))
                assert abs(res.value - exact) <= res.error_estimate, (a1, a2, b1, b2, r)


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
        assert res.method_used == "scaling(quadrature)"
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
        assert res.method_used == "scaling(quadrature)"
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
        (GeneralizedWeibull(1e200, 1.0, 1.0), 2.0),  # scale^r, before the quadrature
        (GeneralizedWeibull(1e200, 1.0, 1.0), 2.5),
        (GeneralizedWeibull(np.float64(1e200), 1.0, 1.0), 2.5),
    ])
    def test_overflowing_moment_is_a_domain_error(self, baseline, r):
        with pytest.raises(DomainError, match="overflows"):
            moment(baseline, validate_params(3, [2.2, 0.5, 0.5]), r)

    def test_pinned_quadrature_overflow_is_a_domain_error(self):
        """scale^r is formed before the quadrature of the baseline, whose
        infinite estimate raised ToleranceNotMet."""
        with pytest.raises(DomainError, match="overflows"):
            moment(GeneralizedWeibull(1e200, 1.0, 1.0), validate_params(3, [2.2, 0.5, 0.5]), 2.0,
                   method="quadrature")

    def test_largest_finite_scaled_moment_returns(self):
        res = moment(Weibull(1e154, 2.0), validate_params(3, [2.2, 0.5, 0.5]), 2.0)
        assert math.isfinite(res.value) and res.value > 1e308

    @pytest.mark.parametrize("baseline", [
        Weibull(1e200, 2.0), LogLogistic(1e300, 3.0), GeneralizedWeibull(1e200, 1.0, 1.0),
    ])
    def test_overflow_outside_the_pmf_regime_is_a_domain_error(self, baseline):
        """Outside the pmf regime scale^r overflows before any quadrature,
        as in it; the quadrature of the baseline raised ToleranceNotMet."""
        with pytest.raises(DomainError, match="overflows"):
            moment(baseline, validate_params(3, [0.6, 0.3, 0.2]), 2.0)

    def test_scaled_moment_near_the_float_range_returns(self):
        """scale^2 = 1.44e308 is finite and the unit mean 0.788 below 1, so
        the moment is finite; the baseline's own quadrature overflowed."""
        res = moment(Weibull(1.2e154, 2.0), validate_params(3, [0.6, 0.3, 0.2]), 2.0)
        unit = moment(Exponential(1.0), validate_params(3, [0.6, 0.3, 0.2]), 1.0)
        assert res.method_used == "scaling(quadrature)" and math.isfinite(res.value)
        assert res.value == pytest.approx(1.2e154**2 * unit.value, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-160, 1e-200])
    def test_subnormal_scaled_moment_bounds_its_rounding(self, scale):
        """scale^2 is subnormal (1e-320) or underflows to 0 (1e-400): the
        estimate counts that rounding, against scale^r times the unit
        moment in mpmath, which the x-space integral of mp_moment cannot
        resolve at these scales."""
        mp = pytest.importorskip("mpmath")
        a = (2.2, 0.5, 0.5)
        res = moment(Weibull(scale, 2.0), validate_params(3, a), 2.0)
        with mp.workdps(30):
            exact = mp.mpf(scale) ** 2 * mp_moment(mp, Exponential(1.0), a, 1.0)
            assert 0 < abs(res.value - exact) <= res.error_estimate


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
        """The exponential, Weibull and log-logistic integrate their unit
        baseline by the scaling relation, the generalized Weibull itself."""
        mp = pytest.importorskip("mpmath")
        res = moment(baseline, validate_params(len(a), a), r, method="quadrature")
        expected = "quadrature" if isinstance(baseline, GeneralizedWeibull) else "scaling(quadrature)"
        assert res.method_used == expected
        exact = mp_moment(mp, baseline, a, r)
        assert abs(res.value - exact) <= res.error_estimate <= 1e-10 * res.value

    def test_abscissa_underflow_gives_a_finite_value(self):
        """At r < 0 the Weibull quantile of the outermost node underflows
        to 0, where the term's limit is 0, not inf.  moment() takes the
        unit exponential here, whose abscissa does not underflow, so the
        rule is called on the Weibull itself."""
        from moq.moments import _moment_quadrature

        mp = pytest.importorskip("mpmath")
        baseline, a, r = Weibull(1.824, 0.837), (5.613, 226.6), -0.00139
        res = _moment_quadrature(baseline, validate_params(2, a), r, 1e-10)
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

    @staticmethod
    def q1_loglogistic(baseline, a, r):
        """E(X^r) of the q = 1 extension of LogLogistic(c, k) with parameter
        a: c^r a^rho pi rho / sin(pi rho), rho = r / k."""
        rho = r / baseline.shape
        return baseline.scale**r * a**rho * math.pi * rho / math.sin(math.pi * rho)

    def test_scaled_quadrature_meets_its_estimate(self):
        """The quadrature of this log-logistic itself took 3,073 nodes and
        returned 3.8924496069026358 with estimate 1.05e-7, while its error
        was 1.41e-7; the unit log-logistic at order r / shape takes 193."""
        baseline, a, r = LogLogistic(0.8524320806838607, 0.3832202547818613), 4.707372913197539, -0.36023282638438825
        res = moment(baseline, validate_params(1, [a]), r, method="quadrature", tol=4.321844028020049e-08)
        assert (res.method_used, res.terms_used) == ("scaling(quadrature)", 193)
        assert abs(res.value - self.q1_loglogistic(baseline, a, r)) <= res.error_estimate

    @pytest.mark.parametrize("method", ["quadrature", "auto"])
    @pytest.mark.parametrize("shape, a, fraction, tol, scale", [
        (0.3, 0.5, 0.97, 1e-10, 2.0), (0.3, 20.0, -0.97, 1e-8, 1.0), (0.5, 2.0, 0.94, 1e-6, 2.0),
        (0.5, 0.5, -0.94, 1e-10, 1.0), (0.7, 20.0, 0.9, 1e-10, 2.0), (0.7, 2.0, -0.9, 1e-8, 2.0),
        (1.0, 0.5, 0.97, 1e-8, 1.0), (1.0, 20.0, -0.97, 1e-6, 2.0), (1.0, 2.0, 0.94, 1e-10, 1.0),
    ])
    def test_barely_existing_q1_moment_meets_its_estimate(self, method, shape, a, fraction, tol, scale):
        """Near r = +-shape the q = 1 log-logistic has a closed form: each
        query returns within its estimate of it, or raises ToleranceNotMet."""
        baseline, r = LogLogistic(scale, shape), fraction * shape
        try:
            res = moment(baseline, validate_params(1, [a]), r, method=method, tol=tol)
        except ToleranceNotMet:
            return
        assert abs(res.value - self.q1_loglogistic(baseline, a, r)) <= res.error_estimate

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_binomial_transform_against_mpmath(self, m):
        """The generalized-Weibull integer moments from the binomial
        transform of the exponential's: 1.87e9 at m = 3."""
        mp = pytest.importorskip("mpmath")
        baseline, a = GeneralizedWeibull(1.0, 0.5, 2.0), (1.5, 0.5)
        res = moment_generalized_weibull(validate_params(2, a), 1.0, 0.5, 2.0, m)
        assert res.value == pytest.approx(float(mp_moment(mp, baseline, a, m)), rel=1e-12)


def per_level_quadrature(baseline, pv, r, tol=1e-10):
    """The tanh-sinh rule as it ran with one numpy call per level: the 25
    nodes of step 1/2 first, then the odd multiples of each halved step,
    with the stop rule and the estimate of _moment_quadrature.  Returns
    (value, error estimate, nodes evaluated)."""
    from moq.family import _deriv
    from moq.moments import _DE_MAX_LEVEL, _DE_MIN_LEVEL, _DE_SPAN, _EPS, _edge_tail

    def level_terms(level):
        h = 0.5 ** (level + 1)
        n = round(_DE_SPAN / h)
        t = h * (np.arange(-n, n + 1.0) if level == 0 else np.arange(1.0 - n, n, 2))
        x = np.pi * np.sinh(t)
        u, s = 1.0 / (1.0 + np.exp(-x)), 1.0 / (1.0 + np.exp(x))
        weight, k = np.pi * np.cosh(t) * u * s, np.count_nonzero(t <= 0.0)
        power = np.concatenate((baseline.quantile(u[:k]), baseline.isf(s[k:]))) ** r
        known = ~np.isinf(power)
        return np.where(known, power * weight * _deriv(pv, u, s), 0.0), known

    def interleave(old, new):
        out = np.empty(old.size + new.size, dtype=old.dtype)
        out[0::2], out[1::2] = old, new
        return out

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h = 0.5
        g, known = level_terms(0)
        sums = [h * g.sum()]
        for level in range(1, _DE_MAX_LEVEL + 1):
            h /= 2
            new, new_known = level_terms(level)
            g, known = interleave(g, new), interleave(known, new_known)
            sums.append(sums[-1] / 2 + h * new.sum())
            if level >= _DE_MIN_LEVEL:
                floor = _edge_tail(g, known, h) + 16 * (pv.q + abs(r) + 4) * _EPS * h * np.abs(g).sum()
                estimate = abs(sums[-2] - sums[-3]) + floor
                if estimate <= tol * abs(sums[-1]):
                    return float(sums[-1]), float(estimate), g.size
                if not floor <= tol * abs(sums[-1]):
                    break
    raise ToleranceNotMet(f"per-level rule: estimate {estimate:.3e}")


class TestOneCallLevels:
    """Levels 0 to _DE_MIN_LEVEL of the rule come from one call over the
    193 nodes of step 1/16: against the per-level loop, the same nodes
    evaluated, values within 4 ulps and estimates within 1%."""

    @pytest.mark.parametrize("baseline, a, r", [
        (Exponential(1.0), (20.0, 0.5), 1.5),  # the moment table's exp-a20-fallback
        (GeneralizedWeibull(1.0, 1.0, 1.5), (2.0, 0.5), 1.5),  # gw-q2-quadrature
        (LogLogistic(1.0, 3.0), (2.0, 0.5, 0.5), 1.5),  # ll-q3-quadrature
        (Weibull(2.0, 2.0), (1e-6, 0.15), 1.0),  # weib-wave-quadrature, outside the pmf regime
        (Weibull(1.824, 0.837), (5.613, 226.6), -0.00139),  # outside the pmf regime, 769 nodes
        (Exponential(1.0), (3.0, 0.3, 0.4, 0.9, 0.6), -0.5),
    ])
    def test_matches_the_per_level_loop(self, baseline, a, r):
        from moq.moments import _moment_quadrature

        pv = validate_params(len(a), a)
        value, estimate, nodes = per_level_quadrature(baseline, pv, r)
        res = _moment_quadrature(baseline, pv, r, 1e-10)
        assert res.terms_used == nodes
        assert abs(res.value - value) <= 4 * np.spacing(abs(value))
        assert res.error_estimate == pytest.approx(estimate, rel=0.01)

    def test_first_call_holds_levels_zero_to_three(self):
        from moq.moments import _DE_MIN_LEVEL, _de_level

        u = _de_level(_DE_MIN_LEVEL)[0]
        assert u.size == 193
        first = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(np.arange(-6.0, 6.5, 0.5))))
        assert np.array_equal(u[::8], first)
        assert _de_level(_DE_MIN_LEVEL + 1)[0].size == 192


# The benchmark's moment table: (baseline, a, r, method)
_TABLE_QUERIES = [
    (LogLogistic(1.5, 2.0), (2.0, 0.5), 0.5, "auto"),
    (LogLogistic(1.5, 2.0), (2.0, 0.5), -0.5, "auto"),
    (LogLogistic(1.0, 1.0), (200.0, 0.5), 0.5, "series_at_zero"),
    (LogLogistic(1.0, 1.0), (3.0, 0.5, 0.5), 0.3, "auto"),
    (Exponential(1.0), (20.0, 0.5), 1.5, "auto"),
    (Exponential(1.0), (3.0, 0.3, 0.4, 0.9, 0.6), 2.0, "auto"),
    (Exponential(1.0), (2.5, 0.5, 0.8), 1.0, "series_at_one"),
    (Weibull(2.0, 1.5), (1.5, 0.5), 1.0, "auto"),
    (Weibull(1.0, 0.8), (2.2, 0.6, 0.7, 0.9), 0.5, "auto"),
    (GeneralizedWeibull(1.0, 0.5, 2.0), (1.5, 0.5), 3.0, "auto"),
    (GeneralizedWeibull(1.0, 1.0, 1.5), (2.0, 0.5), 1.5, "auto"),
    (LogLogistic(1.0, 3.0), (2.0, 0.5, 0.5), 1.5, "quadrature"),
    (Weibull(2.0, 2.0), (1e-6, 0.15), 1.0, "quadrature"),
]


@dataclasses.dataclass(eq=True)  # eq without frozen leaves the class unhashable
class _Rayleigh(Baseline):
    """H(z) = z^2: Weibull(scale, 2), as a baseline outside the four families."""

    scale: float = 1.0

    def _H(self, z):
        return z * z

    def _log_dH(self, z):
        return np.log(2.0 * z)

    def _H_inv(self, y):
        return np.sqrt(y)


class _IdentityRayleigh(_Rayleigh):
    """Hashed by identity, so a changed scale keeps its hash."""

    __hash__ = object.__hash__


def _outcome(baseline, a, r, method):
    """repr of the MomentResult, or the type and message of the MoqError."""
    try:
        return repr(moment(baseline, validate_params(len(a), a), r, method=method))
    except MoqError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestQuadratureCaches:
    """The rule's abscissae, kept per (baseline, level), and T', kept per
    (vector, level): a warm call gives what a cold one gives, bit for bit,
    from read-only arrays in bounded caches; a baseline outside the four
    families is never kept."""

    @staticmethod
    def clear():
        from moq import moments

        moments._de_abscissae.cache_clear()
        moments._de_deriv.cache_clear()

    @staticmethod
    def sweep():
        """Seeded queries over the four families, q 1 to 8, under auto and
        quadrature."""
        rng = np.random.default_rng(27)
        for i in range(24):
            q = int(rng.integers(1, 9))
            a = tuple(float(v) for v in np.exp(rng.uniform(-2.0, 2.0, q)))
            scale, shape, shape2 = (float(v) for v in np.exp(rng.uniform(-1.0, 1.0, 3)))
            baseline = (Exponential(scale), Weibull(scale, shape), GeneralizedWeibull(scale, shape, shape2),
                        LogLogistic(scale, shape))[i % 4]
            r = shape * float(rng.uniform(-0.9, 0.9)) if i % 4 == 3 else float(rng.uniform(-0.5, 3.0))
            for method in ("auto", "quadrature"):
                yield baseline, a, r, method

    def test_warm_call_matches_cold(self):
        queries = [*_TABLE_QUERIES, *self.sweep()]
        assert len(queries) == 61
        for query in queries:
            self.clear()
            cold = _outcome(*query)
            assert _outcome(*query) == cold, query

    def test_kept_arrays_are_read_only_and_bounded(self):
        """Each kept array refuses a write, and the caches hold at most the
        1.5 MiB and 6 MiB their docstring states."""
        from moq.moments import _DE_MAX_LEVEL, _DE_MIN_LEVEL, _de_abscissae, _de_deriv, _de_level

        pv = validate_params(3, [2.0, 0.5, 0.5])
        for level in range(_DE_MIN_LEVEL, _DE_MAX_LEVEL + 1):
            for kept in (_de_abscissae(LogLogistic(), level), _de_deriv(pv, level)):
                assert kept.size == _de_level(level)[0].size and not kept.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    kept[0] = 0.0
        entry = _de_level(_DE_MAX_LEVEL)[0].nbytes  # the largest entry
        assert entry == 3072 * 8
        assert _de_abscissae.cache_info().maxsize * entry <= 1.5 * 2**20
        assert _de_deriv.cache_info().maxsize * entry <= 6 * 2**20

    def test_orders_share_one_derivative(self):
        """A run of orders on one vector evaluates T' and the abscissae once
        per level: every later call hits both caches."""
        from moq.moments import _de_abscissae, _de_deriv

        self.clear()
        pv = validate_params(3, [2.0, 0.5, 0.5])
        orders = [0.25 * k for k in range(1, 13)]
        calls = 0
        for r in orders:
            res = moment(GeneralizedWeibull(1.0, 1.0, 1.5), pv, r, method="quadrature")
            calls += 1 + int(math.log2((res.terms_used - 1) // 192))  # one call per level past the first
        levels = _de_deriv.cache_info().misses
        assert 1 <= levels <= 6
        for cache in (_de_deriv, _de_abscissae):
            assert cache.cache_info().misses == levels
            assert cache.cache_info().hits == calls - levels >= len(orders) - 1

    def test_unhashable_baseline_integrates(self):
        """A baseline outside the families that cannot be hashed is
        integrated without the abscissa cache: as the Weibull(1, 2) it is."""
        baseline, pv = _Rayleigh(1.0), validate_params(2, [1.5, 0.5])
        with pytest.raises(TypeError):
            hash(baseline)
        res = moment(baseline, pv, 2.0, method="quadrature")
        ref = moment(Weibull(1.0, 2.0), pv, 2.0, method="quadrature")
        assert res.method_used == "quadrature" and ref.method_used == "scaling(quadrature)"
        assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate
        assert moment(baseline, pv, 2.0, method="quadrature") == res

    def test_changed_baseline_is_not_served_stale(self):
        """A baseline outside the families may hash by identity and change:
        its abscissae are formed on each call.  E(X^2) scales by scale^2."""
        baseline, pv = _IdentityRayleigh(1.0), validate_params(2, [1.5, 0.5])
        first = moment(baseline, pv, 2.0, method="quadrature")
        baseline.scale = 2.0
        second = moment(baseline, pv, 2.0, method="quadrature")
        assert second.value == pytest.approx(4.0 * first.value, rel=1e-12)


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

    @staticmethod
    def spy_paths(monkeypatch) -> list[str]:
        """The names of the quadrature and series-walk calls of moq.moments,
        in the order they are made."""
        from moq import moments

        calls = []
        for name in ("_moment_quadrature", "_moment_series"):
            def spy(*args, _real=getattr(moments, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(moments, name, spy)
        return calls

    def test_series_takes_over_near_minus_one(self, monkeypatch):
        """At r = -0.99 the rule's outermost nodes miss mass that is real
        (estimate 1.2e-2): auto integrates once, then sums the short series
        at zero, which meets tol."""
        calls = self.spy_paths(monkeypatch)
        a = (3.0, 0.3, 0.4, 0.9, 0.6)
        res = moment(Exponential(1.0), validate_params(5, a), -0.99)
        assert calls == ["_moment_quadrature", "_moment_series"]
        assert res.method_used == "scaling(series_at_zero)" and res.error_estimate <= 1e-10
        mp = pytest.importorskip("mpmath")
        assert abs(res.value - mp_moment(mp, Exponential(1.0), a, -0.99)) <= res.error_estimate
        with pytest.raises(ToleranceNotMet, match="estimate 1.2"):
            moment(Exponential(1.0), validate_params(5, a), -0.99, method="quadrature")

    def test_both_paths_fail_once(self, monkeypatch):
        """Order 170: the quadrature misses tol and the series fails at
        index 25; the quadrature's error is raised, without integrating
        again."""
        calls = self.spy_paths(monkeypatch)
        with pytest.raises(ToleranceNotMet):
            moment(Exponential(1.0), validate_params(3, [2.2, 0.5, 0.5]), 170.0)
        assert calls == ["_moment_quadrature", "_moment_series"]

    def test_order_zero_keeps_its_place(self):
        """The binomial transform of shape = shape2 = m = 1 combines orders
        0 and 1: order 0 is exactly 1, and the transform is the unit
        moment of order 1."""
        from moq.moments import MomentResult, _unit_moment

        pv = validate_params(2, [1.5, 0.5])
        assert _unit_moment(Exponential, pv, 0.0, 1e-13, 1e-13, "auto") == MomentResult(1.0, "closed_form", 1, 0.0)
        res = _unit_moment(Exponential, pv, 1.0, 1e-13, 1e-13, "auto")
        gw = moment_generalized_weibull(pv, 1.0, 1.0, 1.0, 1)
        assert gw.method_used == "binomial_transform"
        assert abs(gw.value - res.value) <= gw.error_estimate

    def test_auto_skips_a_long_series(self, monkeypatch):
        """a = (20, 0.5) needs hundreds of terms at zero, whose inner sums
        cancel from index 50: auto integrates without trying them."""
        from moq import moments

        def no_series(*args):
            raise AssertionError("series summed")

        monkeypatch.setattr(moments, "_moment_series", no_series)
        res = moment(Exponential(1.0), validate_params(2, [20.0, 0.5]), 1.5)
        assert res.method_used == "scaling(quadrature)"

    def test_auto_integrates_a_short_series(self):
        """The series at zero of a = (2.2, 0.6, 0.7, 0.9) is short, but the
        quadrature of its single order meets tol first: auto integrates."""
        res = moment(Weibull(1.0, 0.8), validate_params(4, [2.2, 0.6, 0.7, 0.9]), 0.5)
        assert res.method_used == "scaling(quadrature)"

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
exponential          short  auto            sq  sq  sq
exponential          short  closed_form     D   D   D
exponential          short  series_at_zero  z   z   z
exponential          short  series_at_one   o   o   o
exponential          short  quadrature      sq  sq  sq
exponential          long   auto            sq  sq  sq
exponential          long   closed_form     D   D   D
exponential          long   series_at_zero  N   N   N
exponential          long   series_at_one   C   C   C
exponential          long   quadrature      sq  sq  sq
exponential          mixed  auto            sq  sq  sq
exponential          mixed  closed_form     D   D   D
exponential          mixed  series_at_zero  C   C   C
exponential          mixed  series_at_one   C   C   C
exponential          mixed  quadrature      sq  sq  sq
weibull              short  auto            sq  sq  sq
weibull              short  closed_form     D   D   D
weibull              short  series_at_zero  z   z   z
weibull              short  series_at_one   o   o   o
weibull              short  quadrature      sq  sq  sq
weibull              long   auto            sq  sq  sq
weibull              long   closed_form     D   D   D
weibull              long   series_at_zero  N   N   N
weibull              long   series_at_one   C   C   C
weibull              long   quadrature      sq  sq  sq
weibull              mixed  auto            sq  sq  sq
weibull              mixed  closed_form     D   D   D
weibull              mixed  series_at_zero  C   C   C
weibull              mixed  series_at_one   C   C   C
weibull              mixed  quadrature      sq  sq  sq
generalized_weibull  short  auto            q   q   q
generalized_weibull  short  closed_form     D   D   b
generalized_weibull  short  series_at_zero  D   D   D
generalized_weibull  short  series_at_one   D   D   D
generalized_weibull  short  quadrature      q   q   q
generalized_weibull  long   auto            q   q   q
generalized_weibull  long   closed_form     D   D   b
generalized_weibull  long   series_at_zero  D   D   D
generalized_weibull  long   series_at_one   D   D   D
generalized_weibull  long   quadrature      q   q   q
generalized_weibull  mixed  auto            q   q   q
generalized_weibull  mixed  closed_form     D   D   C
generalized_weibull  mixed  series_at_zero  D   D   D
generalized_weibull  mixed  series_at_one   D   D   D
generalized_weibull  mixed  quadrature      q   q   q
loglogistic          short  auto            sq  sq  sq
loglogistic          short  closed_form     C   C   C
loglogistic          short  series_at_zero  z   z   z
loglogistic          short  series_at_one   o   o   o
loglogistic          short  quadrature      sq  sq  sq
loglogistic          long   auto            sq  sq  sq
loglogistic          long   closed_form     C   C   C
loglogistic          long   series_at_zero  z   z   z
loglogistic          long   series_at_one   C   C   C
loglogistic          long   quadrature      sq  sq  sq
loglogistic          mixed  auto            sq  sq  sq
loglogistic          mixed  closed_form     C   C   C
loglogistic          mixed  series_at_zero  C   C   C
loglogistic          mixed  series_at_one   C   C   C
loglogistic          mixed  quadrature      sq  sq  sq
loglogistic          q2     auto            c   c   c
loglogistic          q2     closed_form     c   c   c
loglogistic          q2     series_at_zero  z   z   z
loglogistic          q2     series_at_one   o   o   o
loglogistic          q2     quadrature      sq  sq  sq
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
        res = moment(baseline, validate_params(3, a), r, tol=tol, method="series_at_zero")
        assert res.method_used == "scaling(series_at_zero)"
        assert abs(res.value - mp_moment(mp, baseline, a, r)) <= res.error_estimate <= 2 * tol


def contract_query(rng):
    """One (baseline, a, r) for the auto contract: the exponential, Weibull
    or log-logistic, q in 2..6, and a log-uniform in [1e-3, 1e3], or half
    the time in the pmf regime (a_i in [1e-3, 1] for i >= 2, a_1 up to 1e3
    times what S >= q needs); r up to 0.99 of the way to the ends of the
    existence domain, and up to 4 shape where it has no upper end."""
    q = int(rng.integers(2, 7))
    if rng.random() < 0.5:
        rest = list(10 ** rng.uniform(-3, 0, q - 1))
        a = [max(q - sum(rest), 1e-3) * 10 ** rng.uniform(0, 3), *rest]
    else:
        a = list(10 ** rng.uniform(-3, 3, q))
    scale, shape = 10 ** rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-0.5, 0.6)
    family = int(rng.integers(3))
    baseline = (Exponential(scale), Weibull(scale, shape), LogLogistic(scale, shape))[family]
    k = getattr(baseline, "shape", 1.0)
    return baseline, [float(v) for v in a], float(k * rng.uniform(-0.99, 0.99 if family == 2 else 4.0))


class TestAutoContract:
    """A first slice of the property contract: moment(method="auto") over
    the exponential, Weibull and log-logistic, in the pmf regime and out of
    it, returns a value within its error estimate of mpmath, or raises a
    MoqError subclass.  Another exception, a NaN or a miss fails.
    Hypothesis draws the seed of each query, derandomized: in 24 examples
    its own float draws cluster at their bounds."""

    def test_value_within_estimate_or_typed_error(self):
        hypothesis = pytest.importorskip("hypothesis")
        mp = pytest.importorskip("mpmath")

        @hypothesis.settings(max_examples=24, deadline=None, derandomize=True, database=None)
        @hypothesis.given(hypothesis.strategies.integers(0, 2**32 - 1))
        def check(seed):
            baseline, a, r = contract_query(np.random.default_rng(seed))
            try:
                res = moment(baseline, validate_params(len(a), a), r)
            except MoqError:
                return
            assert math.isfinite(res.value) and math.isfinite(res.error_estimate), res
            assert abs(res.value - mp_moment(mp, baseline, a, r)) <= res.error_estimate, res

        check()
