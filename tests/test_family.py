"""Tests for the distortion function, its derivative, and its expansions."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from moq import (
    ConditionViolated,
    DomainError,
    LengthMismatch,
    Nonconvergence,
    NonPositiveParameter,
    distortion,
    distortion_complement,
    distortion_deriv,
    distortion_inverse,
    elementary_symmetric,
    series_at_one,
    series_at_zero,
    validate_params,
)


def mo_map(a, u):
    """Equal-parameter closed form u / (a + (1-a)u), the one-parameter family."""
    return u / (a + (1.0 - a) * u)


def random_vectors(gen, count, q_max=6, lo=0.05, hi=4.0):
    out = []
    for _ in range(count):
        q = int(gen.integers(1, q_max + 1))
        a = np.exp(gen.uniform(math.log(lo), math.log(hi), size=q))
        out.append(validate_params(q, a))
    return out


# Distortion parameters of the benchmark's sampling specs and of its CLI
# draw spec; the second is the two-wave spec, with a_1 far below a_2.
SAMPLED_SPECS = [
    (1.5, 0.5),
    (1e-6, 0.15),
    (3.0, 0.3, 0.4, 0.9, 0.6),
    (2.5, 0.5, 0.8),
    (0.8, 1.3, 0.6, 1.4),
    (0.5, 1.2, 0.8, 2.0, 0.6, 1.5, 0.9, 0.7),
    (2.0, 0.3, 0.9),
]


def mp_distortion(mp, a, u):
    """T(u) at mpmath precision for the float parameters a."""
    aa = [mp.mpf(x) for x in a]
    big_s, q = mp.fsum(aa), len(aa)
    num = mp.mpf(q) ** q * u * mp.fprod(ai + u - ai * u for ai in aa[1:])
    return num / (big_s - (big_s - q) * u) ** q


def mp_complement(mp, a, s):
    return 1 - mp_distortion(mp, a, 1 - s)


def count_passes(monkeypatch):
    """Count the passes of the inversion: each evaluates the bracket of T' once."""
    from moq import family

    seen = {"n": 0}
    original = family._bracket

    def counted(pv, w, r):
        seen["n"] += 1
        return original(pv, w, r)

    monkeypatch.setattr(family, "_bracket", counted)
    return seen


class TestValidateParams:
    def test_accepts_and_flags(self):
        pv = validate_params(1, [2.0])
        assert pv.series_at_zero_ok  # 2 > 1/2
        assert not pv.series_at_one_ok  # sum(a) < 2q is strict, and 2 = 2q here
        assert pv.pmf_ok  # 2 >= 1
        pv2 = validate_params(1, [1.5])
        assert pv2.series_at_zero_ok and pv2.series_at_one_ok and pv2.pmf_ok

    def test_flag_regimes(self):
        pv = validate_params(2, [1e-6, 0.15])
        assert not pv.series_at_zero_ok  # 0.150001 <= 1
        assert pv.series_at_one_ok  # 0.150001 < 4
        assert not pv.pmf_ok

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveParameter):
            validate_params(2, [1.0, -0.5])
        with pytest.raises(NonPositiveParameter):
            validate_params(1, [0.0])
        with pytest.raises(NonPositiveParameter):
            validate_params(1, [float("nan")])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_params(3, [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            validate_params(0, [])


class TestDistortion:
    def test_equal_parameter_reduction(self):
        """With all parameters equal the map collapses to the one-parameter form."""
        u = np.linspace(0.0, 1.0, 101)
        for q in range(1, 7):
            for a in (0.1, 0.5, 1.0, 2.0, 10.0):
                pv = validate_params(q, [a] * q)
                np.testing.assert_allclose(distortion(pv, u), mo_map(a, u), atol=1e-12, rtol=0)

    def test_spec_values(self):
        assert distortion(validate_params(2, [0.5, 0.5]), 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
        # direct formula: 4 * 0.5 * 0.75 / 2.25^2
        assert distortion(validate_params(2, [2.0, 0.5]), 0.5) == pytest.approx(
            4.0 * 0.5 * 0.75 / 2.25**2, abs=1e-14
        )

    def test_endpoints_exact(self):
        gen = np.random.default_rng(11)
        for pv in random_vectors(gen, 50):
            assert distortion(pv, 0.0) == 0.0
            assert distortion(pv, 1.0) == 1.0

    def test_bounds_and_monotonicity(self):
        gen = np.random.default_rng(12)
        for pv in random_vectors(gen, 100):
            u = np.sort(gen.uniform(0, 1, size=32))
            v = distortion(pv, u)
            assert np.all(v >= 0.0) and np.all(v <= 1.0)
            assert np.all(np.diff(v) >= 0.0)

    def test_domain_error_beyond_slack(self):
        pv = validate_params(1, [1.0])
        with pytest.raises(DomainError):
            distortion(pv, 1.0 + 1e-9)
        with pytest.raises(DomainError):
            distortion(pv, -2e-12)
        # inside the slack: clamped
        assert distortion(pv, 1.0 + 1e-13) == 1.0


class TestDistortionDeriv:
    def test_value_at_one_is_first_parameter(self):
        assert distortion_deriv(validate_params(3, [1.4, 0.9, 0.8]), 1.0) == pytest.approx(1.4, rel=1e-12)
        assert distortion_deriv(validate_params(2, [1e-6, 0.15]), 1.0) == pytest.approx(1e-6, rel=1e-12)

    def test_value_at_one_is_first_parameter_bit_for_bit(self):
        """T'(1) = a_1 exactly, so the pmf-regime envelope a_1 holds without slack."""
        gen = np.random.default_rng(16)
        for pv in random_vectors(gen, 200, q_max=12, lo=1e-6, hi=1e6):
            assert distortion_deriv(pv, 1.0) == pv.a[0], pv.a

    def test_one_parameter_at_zero(self):
        # d/du [u/(2-u)] at 0 is 1/2
        assert distortion_deriv(validate_params(1, [2.0]), 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_matches_central_difference(self):
        gen = np.random.default_rng(13)
        h = 1e-6
        for pv in random_vectors(gen, 80):
            u = float(gen.uniform(0.01, 0.99))
            fd = (distortion(pv, u + h) - distortion(pv, u - h)) / (2 * h)
            assert distortion_deriv(pv, u) == pytest.approx(fd, rel=1e-6)

    def test_nonnegative_everywhere(self):
        gen = np.random.default_rng(14)
        u = np.linspace(0, 1, 201)
        for pv in random_vectors(gen, 100):
            assert np.all(np.asarray(distortion_deriv(pv, u)) >= 0.0)

    def test_two_parameter_rational_form(self):
        """Independently expanded two-parameter derivative:

        T'(u) = 4 * (a2*(a1+a2)*(1-u) + 2*a1*u) / (2u + (a1+a2)(1-u))^3,

        obtained by differentiating 4u(a2 + (1-a2)u)/(a1+a2-(a1+a2-2)u)^2
        by hand and collecting the numerator in the (1-u, u) basis.
        """
        gen = np.random.default_rng(15)
        for _ in range(50):
            a1, a2 = np.exp(gen.uniform(math.log(0.05), math.log(5), size=2))
            pv = validate_params(2, [a1, a2])
            u = np.linspace(0, 1, 21)
            s = a1 + a2
            expected = 4 * (a2 * s * (1 - u) + 2 * a1 * u) / (2 * u + s * (1 - u)) ** 3
            np.testing.assert_allclose(distortion_deriv(pv, u), expected, rtol=1e-12)


class TestElementarySymmetric:
    def test_degenerate_cases(self):
        assert elementary_symmetric([], 2) == [1.0, 0.0, 0.0]
        assert elementary_symmetric([0.7], 1) == [1.0, 0.7]

    def test_mixed_signs(self):
        # (1 + x)(1 - 0.5x) = 1 + 0.5x - 0.5x^2
        assert elementary_symmetric([1.0, -0.5], 3) == [1.0, 0.5, -0.5, 0.0]

    def test_against_subset_enumeration(self):
        gen = np.random.default_rng(16)
        for _ in range(20):
            n = int(gen.integers(1, 7))
            w = list(gen.uniform(-2, 2, size=n))
            got = elementary_symmetric(w, n)
            for k in range(n + 1):
                brute = math.fsum(math.prod(c) for c in itertools.combinations(w, k))
                assert got[k] == pytest.approx(brute, rel=1e-12, abs=1e-12)


class TestSeriesAtZero:
    def test_geometric_closed_form(self):
        """For one parameter the weights are (a-1)^(m-1) / a^m."""
        a = 2.0
        sc = series_at_zero(validate_params(1, [a]), tol=1e-12)
        for m in range(1, 12):
            assert sc.values[m - 1] == pytest.approx((a - 1) ** (m - 1) / a**m, rel=1e-13)

    def test_identity_parameter(self):
        sc = series_at_zero(validate_params(1, [1.0]), tol=1e-12)
        assert sc.values[0] == 1.0
        assert all(v == 0.0 for v in sc.values[1:])

    def test_weights_sum_to_one(self):
        sc = series_at_zero(validate_params(2, [1.5, 0.5]), tol=1e-12)
        assert abs(math.fsum(sc.values) - 1.0) < 1e-10

    def test_nonnegative_in_pmf_regime(self):
        gen = np.random.default_rng(17)
        for _ in range(30):
            q = int(gen.integers(1, 6))
            rest = gen.uniform(0.05, 1.0, size=q - 1)
            a1 = max(float(gen.uniform(1, 4)), q - float(rest.sum()) + 0.01)
            pv = validate_params(q, [a1, *rest])
            assert pv.pmf_ok
            sc = series_at_zero(pv, tol=1e-10)
            assert all(v >= 0.0 for v in sc.values)
            assert abs(math.fsum(sc.values) - 1.0) <= sc.tail_estimate

    def test_reconstruction_within_tail(self):
        gen = np.random.default_rng(18)
        count = 0
        while count < 25:
            q = int(gen.integers(1, 6))
            a = np.exp(gen.uniform(math.log(0.2), math.log(3), size=q))
            pv = validate_params(q, a)
            if not pv.series_at_zero_ok:
                continue
            count += 1
            sc = series_at_zero(pv, tol=1e-10)
            u = np.linspace(0, 1, 11)
            err = np.max(np.abs(sc.reconstruct(u) - distortion(pv, u)))
            assert err <= sc.tail_estimate

    def test_condition_and_budget_errors(self):
        with pytest.raises(ConditionViolated):
            series_at_zero(validate_params(2, [0.1, 0.2]), tol=1e-10)
        with pytest.raises(Nonconvergence):
            series_at_zero(validate_params(1, [4.0]), tol=1e-12, max_terms=5)

    @pytest.mark.parametrize(
        "a, u, slack",
        [
            # geometric weights: the truncation tail alone is exact, so any
            # rounding the estimate leaves out shows, and the estimate stays
            # within 1% of the error
            ((1.4,), np.linspace(0.0, 1.0, 11), 1.01),
            # mixed-sign weights with sum |w| near 1.8e6 and envelopes summing
            # to 1.1e8: rounding dominates at the edge u = -1 of the
            # convergence interval, and the envelope-based estimate is about
            # 1e4 times the error there
            ((1.386, 0.1817, 0.2462, 0.4314, 0.3165), np.array([-1.0]), 3e4),
        ],
        ids=["geometric", "mixed-sign-edge"],
    )
    def test_tail_bounds_error_against_exact_distortion(self, a, u, slack):
        mp = pytest.importorskip("mpmath")
        pv = validate_params(len(a), a)
        sc = series_at_zero(pv, tol=1e-10)
        recon = sc.reconstruct(u)
        with mp.workdps(50):
            aa = [mp.mpf(x) for x in a]
            big_s, q = mp.fsum(aa), len(a)

            def exact_t(x):
                x = mp.mpf(float(x))
                num = x * mp.fprod(ai + x - ai * x for ai in aa[1:])
                return mp.mpf(q) ** q * num / (big_s - (big_s - q) * x) ** q

            err = max(abs(mp.mpf(float(r)) - exact_t(x)) for r, x in zip(recon, u))
        assert err <= sc.tail_estimate <= slack * err


class TestSeriesAtOne:
    def test_identity_parameter(self):
        sd = series_at_one(validate_params(1, [1.0]), tol=1e-12)
        assert sd.values[0] == 1.0
        assert all(v == 0.0 for v in sd.values[1:])

    def test_reconstruction_examples(self):
        pv = validate_params(1, [1.5])
        sd = series_at_one(pv, tol=1e-12)
        assert abs(sd.reconstruct(0.7) - distortion(pv, 0.7)) < 1e-10
        pv2 = validate_params(2, [1.0, 1.0])
        sd2 = series_at_one(pv2, tol=1e-12)
        assert abs(sd2.reconstruct(0.3) - distortion(pv2, 0.3)) < 1e-10

    def test_reconstruction_within_tail(self):
        gen = np.random.default_rng(19)
        count = 0
        while count < 25:
            q = int(gen.integers(1, 6))
            a = np.exp(gen.uniform(math.log(0.1), math.log(2.5), size=q))
            pv = validate_params(q, a)
            if not pv.series_at_one_ok:
                continue
            count += 1
            sd = series_at_one(pv, tol=1e-10)
            u = np.linspace(0, 1, 11)
            err = np.max(np.abs(sd.reconstruct(u) - distortion(pv, u)))
            assert err <= sd.tail_estimate

    def test_condition_error(self):
        with pytest.raises(ConditionViolated):
            series_at_one(validate_params(1, [2.5]), tol=1e-10)


@pytest.mark.parametrize("expansion", [series_at_zero, series_at_one])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_truncated_expansions_refuse_a_bad_tol(expansion, tol):
    """A tol that is not positive and finite raises DomainError, before any
    walk: not a math domain error (0, -1), a Nonconvergence after 1e6 terms
    (nan), or a 5-term series (inf)."""
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        expansion(validate_params(3, (3.0, 0.5, 0.5)), tol)


class TestSeriesStream:
    @pytest.mark.parametrize(
        "q, a, kind, terms",
        [
            # mixed-sign modes out to m = 900, where log C(k+q-1, q-1) taken
            # as a difference of lgamma values errs by thousands of ulp
            (5, (1.386, 0.1817, 0.2462, 0.4314, 0.3165), "at_zero", 900),
            (3, (2.0, 2.0, 1.95), "at_one", 300),
        ],
        ids=["mixed-sign-at-zero", "at-one"],
    )
    def test_weights_within_rounding_bound(self, q, a, kind, terms):
        """Each float weight and envelope is within rounding(m) * envelope of
        its exact value for the float inputs coeff, srat and log_pref."""
        mp = pytest.importorskip("mpmath")
        from moq.family import _SeriesStream

        stream = _SeriesStream(validate_params(q, a), kind)
        with mp.workdps(50):
            pref, srat = mp.exp(mp.mpf(stream.log_pref)), mp.mpf(stream.srat)
            for m in range(1, terms + 1):
                value, env = np.ravel(stream.block(m, m + 1)).tolist()
                modes = [
                    mp.mpf(c) * mp.binomial(m - j + q - 1, q - 1) * srat ** (m - j)
                    for j, c in stream.coeff.items()
                    if m >= j
                ]
                bound = stream.rounding(m) * env
                assert abs(value - pref * mp.fsum(modes)) <= bound
                assert abs(env - pref * mp.fsum(map(abs, modes))) <= bound


class TestEnvelopeTotal:
    """The bound on all envelopes summed, pref * sum_j |coeff_j| / (1 -
    ratio)^q, formed in log space."""

    @pytest.mark.parametrize("q, a, kind", [
        (2, (1.5, 0.5), "at_zero"),
        (5, (1.386, 0.1817, 0.2462, 0.4314, 0.3165), "at_zero"),  # mixed signs, envelopes near 1.1e8
        (3, (2.0, 2.0, 1.95), "at_one"),
    ])
    def test_bounds_the_summed_envelopes(self, q, a, kind):
        """The identity sum_k C(k+q-1, q-1) x^k = (1 - x)^-q is exact, so
        the bound is the sum of the envelopes to within its rounding
        allowance."""
        from moq.family import _SeriesStream

        stream = _SeriesStream(validate_params(q, a), kind)
        seen = math.fsum(stream.block(0, 8000)[1].tolist())
        assert seen <= stream.envelope_total() <= seen * (1.0 + 1e-12)

    def test_abs_coefficients_formed_once(self, monkeypatch):
        """The |w| coefficients behind the total are formed on the first
        call only: a second truncated series of the same vector, and a
        second total, make no elementary_symmetric call, and give the same
        tail estimate."""
        from moq import family

        pv = validate_params(4, (3.0, 0.2, 0.7, 0.4))
        family._series_stream.cache_clear()
        family._series_stream(pv, "at_zero")  # its coefficients, formed once
        calls = []
        symmetric = family.elementary_symmetric
        monkeypatch.setattr(family, "elementary_symmetric", lambda w, upto: calls.append(upto) or symmetric(w, upto))
        first = series_at_zero(pv)
        assert calls == [4]
        assert series_at_zero(pv, tol=1e-8).tail_estimate > 0.0
        assert series_at_zero(pv) == first
        assert family._series_stream(pv, "at_zero").envelope_total() > 0.0
        assert calls == [4]

    def test_large_q_pmf_vector(self, wall_clock_limit):
        """q = 1000: pref and (1 - ratio)^q both underflow, and their
        quotient divided by zero; in log space the total is exp(1.4e-11)."""
        from moq import RandomSource, sample_count
        from moq.family import _series_stream

        a = [2000.0, *np.random.default_rng(0).uniform(0.2, 1.0, 999).tolist()]
        pv = validate_params(1000, a)
        with wall_clock_limit(30.0):
            sc = series_at_zero(pv)
            counts = sample_count(pv, RandomSource(1), 5)
        assert 1.0 <= _series_stream(pv, "at_zero").envelope_total() <= 1.0 + 1e-10
        assert abs(math.fsum(sc.values) - 1.0) <= sc.tail_estimate <= 1e-9
        assert counts.min() >= 1

    def test_overflowed_binomials_are_exact(self, wall_clock_limit):
        """q = 1000: the float product C(k+999, 999) overflows from small k
        on; there each log is that of the exact integer, carried from one
        math.comb (the walk made one per k, 1.5 s for this vector's series)."""
        from moq.family import _SeriesStream

        a = [2000.0, *np.random.default_rng(0).uniform(0.2, 1.0, 999).tolist()]
        stream = _SeriesStream(validate_params(1000, a), "at_zero")
        kr = np.arange(3.0, 4000.0)
        with wall_clock_limit(2.0):
            row = stream._log_binomials(kr)
        for k in range(900, 4000, 97):
            assert row[k - 3] == math.log(math.comb(k + 999, 999))
        exact = [math.log(math.comb(k + 999, 999)) for k in range(3, 8)]
        np.testing.assert_allclose(row[:5], exact, rtol=1e-13)
        assert stream._log_binomials(kr[2000:2001])[0] == row[2000]

    def test_total_beyond_the_float_range_is_a_typed_error(self):
        """Mixed signs at q = 400: the envelopes sum to about exp(877)."""
        from moq.family import _SeriesStream

        stream = _SeriesStream(validate_params(400, [1.0] + [5.0] * 399), "at_zero")
        with pytest.raises(Nonconvergence, match="beyond the float range"):
            stream.envelope_total()


class TestSeriesBlock:
    @pytest.mark.parametrize(
        "a, kind, terms",
        [
            # q = 12, modes of both signs (a_i on either side of 1)
            ((40.0, 0.4, 2.5, 0.7, 1.8, 0.3, 0.9, 3.1, 0.5, 1.2, 0.6, 2.2), "at_zero", 400),
            # the 3,107-term log-logistic moment series, and beyond
            ((200.0, 0.5), "at_zero", 3200),
        ],
        ids=["q12-mixed-sign", "a200"],
    )
    def test_block_weights_within_rounding_bound(self, a, kind, terms):
        """Each block weight and envelope is within rounding(m) * envelope
        of its exact value for the float inputs coeff, srat and log_pref,
        over two blocks split just past the burn-in."""
        mp = pytest.importorskip("mpmath")
        from moq.family import _SeriesStream

        q = len(a)
        stream = _SeriesStream(validate_params(q, a), kind)
        split = q + 5
        first, second = stream.block(1, split), stream.block(split, terms + 1)
        values, envs = np.concatenate((first[0], second[0])), np.concatenate((first[1], second[1]))
        assert any(c < 0 for c in stream.coeff.values()) or q == 2
        with mp.workdps(40):
            pref, srat = mp.exp(mp.mpf(stream.log_pref)), mp.mpf(stream.srat)
            coeff = {j: mp.mpf(c) for j, c in stream.coeff.items()}
            for m in range(1, terms + 1):
                modes = [c * mp.binomial(m - j + q - 1, q - 1) * srat ** (m - j) for j, c in coeff.items() if m >= j]
                bound = stream.rounding(m) * envs[m - 1]
                assert abs(values[m - 1] - pref * mp.fsum(modes)) <= bound
                assert abs(envs[m - 1] - pref * mp.fsum(map(abs, modes))) <= bound

    @pytest.mark.parametrize(
        "a, terms",
        [((40.0, 0.4, 2.5, 0.7, 1.8, 0.3, 0.9, 3.1, 0.5, 1.2, 0.6, 2.2), 400), ((200.0, 0.5), 3200)],
        ids=["q12-mixed-sign", "a200"],
    )
    def test_cold_and_warm_streams_agree(self, a, terms):
        """A stream whose prefix is full gives, byte for byte, what a fresh
        one gives: walked one index per block, across the cap, and far past
        it.  The prefix stays within the cap, and no caller can write to it."""
        from moq.family import _PREFIX_CAP, _SeriesStream

        pv, cap = validate_params(len(a), a), _PREFIX_CAP
        warm = _SeriesStream(pv, "at_zero")
        full = warm.block(0, cap)
        assert full[0].size == cap

        def same(x, y):
            return all(u.tobytes() == v.tobytes() for u, v in zip(x, y))

        cold = _SeriesStream(pv, "at_zero")
        steps = [cold.block(m, m + 1) for m in range(terms)]
        assert same(map(np.concatenate, zip(*steps)), warm.block(0, terms))
        cold = _SeriesStream(pv, "at_zero")
        edges = list(range(cap - 700, cap + 700, 300))
        walked = [cold.block(m0, m1) for m0, m1 in zip(edges, edges[1:])]
        assert same(map(np.concatenate, zip(*walked)), cold._evaluate(edges[0], edges[-1]))
        assert same(map(np.concatenate, zip(*walked)), warm.block(edges[0], edges[-1]))
        for m in (cap, 3 * cap, 10**6):
            assert same(_SeriesStream(pv, "at_zero").block(m, m + 1), warm.block(m, m + 1))
        for stream in (warm, cold):
            assert all(p.size <= cap and not p.flags.writeable for p in stream._prefix)
        with pytest.raises(ValueError):
            warm.block(1, 5)[0][0] = 0.0

    def test_second_walk_reuses_the_kept_prefix(self, monkeypatch):
        """A series longer than the prefix is walked twice, up to the cap and
        then from index 0; the second walk takes the kept weights from the
        prefix, so the cold series forms each weight about once (23,078
        for 22,698 terms, against 31,264 when its block past the cap was
        formed whole)."""
        from moq import family

        formed = []
        evaluate = family._SeriesStream._evaluate
        monkeypatch.setattr(family._SeriesStream, "_evaluate",
                            lambda self, m0, m1: formed.append(m1 - m0) or evaluate(self, m0, m1))
        family._series_stream.cache_clear()
        sc = series_at_zero(validate_params(3, (2000.0, 0.5, 0.5)))
        assert sc.truncation_index == 22698
        assert sum(formed) <= 1.05 * (sc.truncation_index + 1)

    def test_exact_binomial_where_the_float_product_overflows(self):
        """q = 200 at m = 1e6: every C(k+q-1, q-1) of the block exceeds the
        largest double, so each log binomial comes from the exact integer."""
        mp = pytest.importorskip("mpmath")
        from moq.family import _SeriesStream

        q, m = 200, 10**6
        stream = _SeriesStream(validate_params(q, (1e6 - 179.1,) + (0.9,) * (q - 1)), "at_zero")
        assert math.comb(m - max(stream.coeff) + q - 1, q - 1) > float(np.finfo(float).max)
        value, env = np.ravel(stream.block(m, m + 1)).tolist()
        with mp.workdps(80):
            pref, srat = mp.exp(mp.mpf(stream.log_pref)), mp.mpf(stream.srat)
            modes = [mp.mpf(c) * mp.binomial(m - j + q - 1, q - 1) * srat ** (m - j) for j, c in stream.coeff.items()]
            bound = stream.rounding(m) * env
            assert abs(value - pref * mp.fsum(modes)) <= bound
            assert abs(env - pref * mp.fsum(map(abs, modes))) <= bound


class TestComplement:
    def test_matches_one_minus_distortion(self):
        gen = np.random.default_rng(20)
        for pv in random_vectors(gen, 50):
            s = gen.uniform(0, 1, size=16)
            np.testing.assert_allclose(
                distortion_complement(pv, s), 1.0 - np.asarray(distortion(pv, 1.0 - s)),
                atol=1e-13,
            )

    def test_small_survival_behaves_like_linear_term(self):
        """Near s = 0 the complement is a_1 * s; the direct 1 - T path has
        already lost every digit at this scale."""
        pv = validate_params(3, [0.7, 0.4, 0.9])
        for s in (1e-10, 1e-14, 1e-200):
            val = distortion_complement(pv, s)
            assert val == pytest.approx(pv.a[0] * s, rel=1e-10)

    def test_endpoints(self):
        pv = validate_params(2, [1.5, 0.5])
        assert distortion_complement(pv, 0.0) == 0.0
        assert distortion_complement(pv, 1.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("a", [(1e-6, 0.15), (0.0218, 3.56, 0.0196, 517.0, 2.34)], ids=["wave", "q5-wide"])
    def test_small_survival_against_mpmath(self, a):
        """The s-coefficient of the complement polynomial is q^q a_1 exactly;
        formed as a difference of two O(q^q) numbers it cost 1.4e-10 and
        3.0e-12 relative here."""
        mp = pytest.importorskip("mpmath")
        pv = validate_params(len(a), a)
        with mp.workdps(60):
            for s in (1e-4, 1e-9, 1e-15):
                exact = mp_complement(mp, a, mp.mpf(s))
                assert abs(distortion_complement(pv, s) - exact) <= 5e-15 * exact

    def test_large_survival_against_mpmath(self):
        """Above s = 1/2 the polynomial cancels when every a_i is small
        (1e-8 relative here); 1 - T(1 - s) does not."""
        mp = pytest.importorskip("mpmath")
        a = (0.004114, 0.00229, 0.001051, 0.02032)
        pv = validate_params(len(a), a)
        with mp.workdps(60):
            for s in (0.6, 0.9, 0.988, 0.999):
                exact = mp_complement(mp, a, mp.mpf(s))
                assert abs(distortion_complement(pv, s) - exact) <= 1e-13 * exact


class TestInverse:
    def test_round_trip(self):
        gen = np.random.default_rng(21)
        for pv in random_vectors(gen, 40):
            p = gen.uniform(1e-6, 1 - 1e-6, size=9)
            u = distortion_inverse(pv, p)
            np.testing.assert_allclose(distortion(pv, u), p, atol=1e-12)

    def test_extreme_levels(self):
        pv = validate_params(2, [1.5, 0.5])
        for p in (1e-300, 1e-15, 1 - 1e-12):
            u = distortion_inverse(pv, p)
            assert 0.0 <= u <= 1.0
            assert distortion(pv, u) == pytest.approx(p, rel=1e-6, abs=1e-13)

    def test_rejects_levels_outside_open_interval(self):
        pv = validate_params(1, [1.0])
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                distortion_inverse(pv, p)

    def test_survival_and_split(self):
        """``survival`` takes the levels 1 - p; ``split`` returns the smaller
        of u and 1 - u with its own digits, as arrays also for a scalar."""
        pv = validate_params(3, [2.5, 0.5, 0.8])
        s = np.array([1e-200, 1e-9, 0.3, 0.7, 1.0 - 1e-9])
        x, upper = distortion_inverse(pv, s, survival=True, split=True)
        np.testing.assert_array_equal(distortion_inverse(pv, s, survival=True), np.where(upper, 1.0 - x, x))
        np.testing.assert_allclose(distortion_complement(pv, x[upper]), s[upper], rtol=1e-13)
        np.testing.assert_allclose(distortion(pv, x[~upper]), 1.0 - s[~upper], rtol=1e-13)
        x1, upper1 = distortion_inverse(pv, 0.3, split=True)
        assert x1.shape == upper1.shape == (1,)

    def test_every_pass_through_the_public_maps(self, monkeypatch):
        """A quantile goes through distortion_inverse once, and each pass
        evaluates T_c by distortion once and 1 - T_c by distortion_complement
        where a level lies above 1/2: wrappers on the public names see them."""
        from moq import ExtendedDistribution, Exponential, family

        calls = {"distortion_inverse": 0, "distortion": 0, "distortion_complement": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(family, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(family, name, counted)
        passes = count_passes(monkeypatch)
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5]))
        ed.quantile(np.array([1e-9, 0.2, 0.45]))
        assert calls == {"distortion_inverse": 1, "distortion": passes["n"], "distortion_complement": 0}
        passes["n"] = 0
        ed.isf(np.array([1e-9, 0.2, 0.45]))
        assert calls["distortion_inverse"] == 2
        assert calls["distortion_complement"] == passes["n"] > 0


class TestInverseAccuracy:
    """The safeguarded Newton inversion, one solve for all levels, in the
    smaller ratio w or r = 1 - w, against the smaller level p or 1 - p."""

    @pytest.mark.parametrize(
        "on_c, up", [(False, False), (True, True), (True, False), (False, True)], ids=["T", "C", "1-T", "T(1-s)"]
    )
    def test_relative_residual_and_passes(self, on_c, up, monkeypatch, log_uniform_vectors, lower_levels):
        """Each (level side, root side): T = p with w <= 1/2, 1 - T = 1 - p
        with r <= 1/2, and across 1 - T = 1 - p with w <= 1/2, T = p with
        r <= 1/2; the level is p, or the survival level 1 - p."""
        hypothesis = pytest.importorskip("hypothesis")
        from moq.family import _complement, _distortion

        forward = _complement if on_c else _distortion
        passes = count_passes(monkeypatch)

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hypothesis.given(pv=log_uniform_vectors, levels=lower_levels)
        def check(pv, levels):
            level = np.array(levels)
            big_s, q = pv.sum_a, pv.q
            # w = 1/2 at u = S / (S + q); the levels with a root there on one side of its value
            edge = float(forward(pv, np.array(big_s / (big_s + q)), np.array(q / (big_s + q))))
            if on_c != up:  # levels across lie in [edge, 1/2], empty for half the vectors
                level = edge + (0.5 - edge) * 2.0 * level
                if edge >= 0.5:
                    return
            else:
                level = level[level <= edge]
                hypothesis.assume(level.size)
            distortion_inverse(pv, level[:1], survival=on_c, split=True)  # builds the cached start table
            passes["n"] = 0
            x, upper = distortion_inverse(pv, level, survival=on_c, split=True)
            assert passes["n"] == 1
            u, s = np.where(upper, 1.0 - x, x), np.where(upper, x, 1.0 - x)
            w = q * u / (q * u + big_s * s)
            assert np.all((1.0 - w if up else w) <= 0.5 + 1e-15)  # a root at 1/2 may land an ulp past it
            resid = np.abs(forward(pv, u, s) - level)
            assert np.all(resid <= 1e-12 * level)
            if not on_c:
                np.testing.assert_array_equal(distortion_inverse(pv, level), u)

        check()

    @pytest.mark.parametrize("a", SAMPLED_SPECS, ids=lambda a: f"q{len(a)}-{a[0]:g}")
    def test_both_tails_against_mpmath(self, a):
        """Relative error of the smaller root, u or s = 1 - u, for cdf and
        for survival levels, against a 350-digit residual; 60 digits cannot
        even resolve 1 - s at s = 1e-59."""
        mp = pytest.importorskip("mpmath")
        pv = validate_params(len(a), a)
        levels = np.array([1e-300, 1e-100, 1e-59, 1e-13, 1e-5, 0.1, 0.37, 0.5])
        with mp.workdps(350):
            for survival in (False, True):
                roots, upper = distortion_inverse(pv, levels, survival=survival, split=True)
                for level, x, on_c in zip(levels, roots, upper):
                    f = mp_complement if on_c else mp_distortion
                    exact = mp.mpf(float(level)) if survival == on_c else 1 - mp.mpf(float(level))
                    x = mp.mpf(float(x))
                    # first order in the residual: (f(x) - level) / (x f'(x))
                    rel = (f(mp, a, x) - exact) / (x * mp.diff(lambda t: f(mp, a, t), x))
                    assert abs(rel) <= 1e-13, (survival, level, float(rel))

    def test_iteration_cap(self, monkeypatch):
        from moq import family

        monkeypatch.setattr(family, "_INVERSE_MAX_ITER", 0)
        pv = validate_params(2, [1.5, 0.5])
        with pytest.raises(Nonconvergence):
            distortion_inverse(pv, np.array([1e-200, 0.3, 0.9]))

    def test_safeguards_of_a_wide_vector(self, monkeypatch):
        """Parameters over 26 decades: the start misses by far more than the
        one-pass stop, so the solve bisects, drops the levels it has ended
        from the active set, and still meets the residual; capped at one
        pass, it raises."""
        from moq import family
        from moq.family import _complement, _distortion

        pv = validate_params(3, [1.3e-13, 7.82e-12, 2.82e13])
        levels = np.array([1e-300, 1e-100, 1e-30, 1e-8, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-8, 1.0 - 1e-15])
        small = np.fmin(levels, 1.0 - levels)
        family._start_table(pv)
        passes = count_passes(monkeypatch)
        for survival in (False, True):
            passes["n"] = 0
            x, upper = distortion_inverse(pv, levels, survival=survival, split=True)
            assert passes["n"] > 1, survival
            u, s = np.where(upper, 1.0 - x, x), np.where(upper, x, 1.0 - x)
            on_c = (levels <= 0.5) if survival else (levels > 0.5)  # the smaller level is 1 - T
            forward = np.where(on_c, _complement(pv, u, s), _distortion(pv, u, s))
            assert np.all(np.abs(forward - small) <= 1e-12 * small), survival
        monkeypatch.setattr(family, "_INVERSE_MAX_ITER", 1)
        for survival in (False, True):
            with pytest.raises(Nonconvergence):
                distortion_inverse(pv, levels, survival=survival)

    def test_levels_solved_apart(self, monkeypatch):
        """The levels of the wide vector take from 1 to many passes.  Each
        root of a batch is the one that its level alone gets, bit for bit,
        and the batch takes as many passes as its slowest level: a level
        that ends leaves the others as they were."""
        from moq import family

        pv = validate_params(3, [1.3e-13, 7.82e-12, 2.82e13])
        levels = np.array([1e-300, 1e-100, 1e-30, 1e-8, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-8, 1.0 - 1e-15])
        family._start_table(pv)
        passes = count_passes(monkeypatch)
        for survival in (False, True):
            alone = []
            for level in levels:
                passes["n"] = 0
                alone.append((distortion_inverse(pv, level, survival=survival, split=True), passes["n"]))
            passes["n"] = 0
            x, upper = distortion_inverse(pv, levels, survival=survival, split=True)
            assert passes["n"] == max(n for _, n in alone) > min(n for _, n in alone), survival
            np.testing.assert_array_equal(x, np.concatenate([xi for (xi, _), _ in alone]))
            np.testing.assert_array_equal(upper, np.concatenate([ui for (_, ui), _ in alone]))

    def test_each_root_against_the_smaller_level(self):
        """The smaller root, u or s = 1 - u, solved against the smaller
        level, p or 1 - p: T(1/2) = 0.375 for a = (1.5, 0.5), 0.625 for
        a = (0.5, 1.5); with S = q, w = 1/2 where u = 1/2."""
        from moq.family import _complement, _distortion

        def roots(pv, p, upper_side):
            x, upper = distortion_inverse(pv, p, survival=False, split=True)
            assert np.all(upper == upper_side)
            if np.all(p >= 0.5):  # the survival levels 1 - p are exact
                np.testing.assert_array_equal(distortion_inverse(pv, 1.0 - p, survival=True, split=True)[0], x)
            u = np.where(upper, 1.0 - x, x)
            np.testing.assert_array_equal(distortion_inverse(pv, p), u)
            return x

        pv = validate_params(2, [1.5, 0.5])
        assert distortion(pv, 0.5) == 0.375
        p = np.array([1e-300, 0.2, 0.37])  # T(u) = p
        u = roots(pv, p, False)
        np.testing.assert_allclose(distortion(pv, u), p, rtol=1e-14)
        p = np.array([0.5 + 2.0**-40, 0.75, 1.0 - 1e-13])  # C(s) = 1 - p
        s = roots(pv, p, True)
        np.testing.assert_allclose(distortion_complement(pv, s), 1.0 - p, rtol=1e-14)
        p = np.array([0.38, 0.45])  # T(1 - s) = p
        s = roots(pv, p, True)
        np.testing.assert_allclose(_distortion(pv, 1.0 - s, s), p, rtol=1e-14)
        pv = validate_params(2, [0.5, 1.5])
        assert distortion(pv, 0.5) == 0.625
        p = np.array([0.55, 0.6])  # 1 - T(u) = 1 - p
        u = roots(pv, p, False)
        np.testing.assert_allclose(_complement(pv, u, 1.0 - u), 1.0 - p, rtol=1e-14)

    @pytest.mark.parametrize("p", [6.6e-300, 1e-305])
    def test_subnormal_roots(self, p):
        """T(u) is about 1.4e14 u here, so the roots are subnormal: in the
        old u-form T underflowed first (Nonconvergence at 6.6e-300, and
        1.39e-311 for the root 7.13e-320 at 1e-305)."""
        mp = pytest.importorskip("mpmath")
        a = (5.9e-15, 1.43e-14)
        pv = validate_params(2, a)
        u = distortion_inverse(pv, p)
        with mp.workdps(60):
            exact = mp.findroot(lambda t: mp_distortion(mp, a, t) - mp.mpf(p), mp.mpf(p) / mp.mpf(1.4e14))
        assert abs(u - exact) <= 1e-13 * exact + 2 * 5e-324

    def test_concave_map_keeps_upper_cdf_levels_on_t(self):
        """With a_1 tiny T(1/2) is close to one, so even p = 0.9 has a root
        u far below 1/2 and must be solved on T: on the complement it would
        come back as 1 - s, which cannot hold u = 2.3e-20."""
        pv = validate_params(2, [1e-20, 1e-20])
        p = np.array([0.5, 0.7, 0.9])
        x, upper = distortion_inverse(pv, p, survival=False, split=True)
        assert not upper.any()
        np.testing.assert_allclose(x, 1e-20 * p / (1.0 - p), rtol=1e-14)
        np.testing.assert_array_equal(distortion_inverse(pv, p), x)

    def test_huge_parameter(self):
        """S = 1e200: the expanded complement polynomial overflowed at
        (S - q)^q; the roots s ~ 1e-200 of C need its relative accuracy."""
        mp = pytest.importorskip("mpmath")
        a = (1e200, 1.0)
        pv = validate_params(2, a)
        s = np.array([1e-300, 1e-201, 1e-3, 0.5, 0.9])
        with mp.workdps(450):
            for si, ci in zip(s, distortion_complement(pv, s)):
                exact = mp_complement(mp, a, mp.mpf(float(si)))
                assert abs(ci - exact) <= 1e-14 * exact
        p = np.array([1e-300, 0.1, 0.9])
        x, upper = distortion_inverse(pv, p, survival=False, split=True)
        assert upper.all()
        np.testing.assert_allclose(distortion_complement(pv, x), 1.0 - p, rtol=1e-14)


class TestStartTable:
    """The cubic start of the inversion: one Newton pass per level, the
    start being accurate to far below the sqrt(tol) / 100 stop."""

    @pytest.mark.parametrize("a", SAMPLED_SPECS, ids=lambda a: f"q{len(a)}-{a[0]:g}")
    def test_one_pass_per_call(self, a, monkeypatch):
        """1e5 uniform levels, as the inverse-cdf sampler draws them."""
        from moq import ExtendedDistribution, Exponential
        from moq.family import _start_table

        pv = validate_params(len(a), a)
        ed = ExtendedDistribution(Exponential(1.0), pv)
        _start_table(pv)  # built first: its passes are not the calls'
        passes = count_passes(monkeypatch)
        levels = np.random.default_rng(19).uniform(size=100_000)
        for inverse in (ed.quantile, ed.isf):
            passes["n"] = 0
            inverse(levels)
            assert passes["n"] == 1, inverse.__name__

    @pytest.mark.parametrize("a", [SAMPLED_SPECS[0], SAMPLED_SPECS[1], SAMPLED_SPECS[5]], ids=lambda a: f"q{len(a)}")
    def test_one_pass_in_both_tails(self, a, monkeypatch):
        """Below the first node, at logit 40 from 1/2, the start goes on
        linearly in the log level, as T and 1 - T are linear there; a cubic
        would run away over hundreds of decades."""
        from moq.family import _start_table

        pv = validate_params(len(a), a)
        _start_table(pv)
        passes = count_passes(monkeypatch)
        for survival in (False, True):
            for level in (1e-30, 1e-100, 1e-300, 1.0 - 1e-12):
                passes["n"] = 0
                distortion_inverse(pv, np.array([level]), survival=survival, split=True)
                assert passes["n"] == 1, (survival, level)

    @pytest.mark.parametrize("a", SAMPLED_SPECS, ids=lambda a: f"q{len(a)}-{a[0]:g}")
    def test_nodes_solved_to_rounding(self, a):
        """At each node's logit t, 60-digit T (or 1 - T on its side) of
        w = 1 / (1 + e^-t) gives back the node's log level y within
        (q + 4) eps max(1, |y|): the rounding of a sum of q + 1 logs.
        Every 16th node and the last 16 are checked."""
        mp = pytest.importorskip("mpmath")
        from moq.family import _START_CELLS, _start_table

        eps, q = np.finfo(float).eps, len(a)
        _, _, ends, table = _start_table(validate_params(q, a))
        with mp.workdps(60):
            big_s = mp.fsum(mp.mpf(x) for x in a)
            c = [q * mp.mpf(x) / big_s for x in a[1:]]
            for on_c, (least, _), coef in zip((False, True), ends, np.split(table, 2, axis=1)):
                t = np.append(coef[0], coef[:, -1].sum())  # the last node closes the last cell
                y = least + (math.log(0.5) - least) / _START_CELLS * np.arange(_START_CELLS + 1)
                for k in np.r_[0 : _START_CELLS : 16, _START_CELLS - 15 : _START_CELLS + 1]:
                    w = 1 / (1 + mp.exp(-mp.mpf(float(t[k]))))
                    level = w * mp.fprod(w + ci * (1 - w) for ci in c)
                    got = mp.log(1 - level if on_c else level)
                    assert abs(got - mp.mpf(float(y[k]))) <= (q + 4) * eps * max(1.0, abs(y[k])), (on_c, k)


class TestRootsPinned:
    """Roots of a seeded sweep through the multi-pass path, pinned by digest:
    a log-uniform in [1e-15, 1e15], q from 1 to 8 and four q from 50 to 400,
    500 levels in both tails, with and without ``survival``.  309 of the 400
    vectors take more than one pass, so the bracket, the bisection and the
    bookkeeping of the open levels all run.  The digests, the pass counts
    and that count were recorded before the start lookup and the first
    pass were trimmed; a root that moves in its last bit, or a pass more
    or less, shows here."""

    DIGESTS = {
        False: "aa7cd0952c45303476d7338a2637341cc82eef2326cc7b9e2db695dbbe132308",
        True: "b4ab055b510484b5c864d7b994589e13f1e0ae118d1ce48190290886693648df",
    }
    PASSES = {False: 1797, True: 893}

    def test_roots_and_passes_pinned(self, monkeypatch):
        passes = count_passes(monkeypatch)
        rng = np.random.default_rng(32)
        digests = {survival: hashlib.sha256() for survival in self.DIGESTS}
        total, multi = {survival: 0 for survival in self.DIGESTS}, 0
        for i in range(400):
            q = int(rng.integers(50, 401)) if i % 100 == 99 else int(rng.integers(1, 9))
            pv = validate_params(q, 10.0 ** rng.uniform(-15.0, 15.0, q))
            levels = np.concatenate([10.0 ** rng.uniform(-300.0, -0.3, 250), 1.0 - 10.0 ** rng.uniform(-16.0, -0.3, 250)])
            most = 0
            for survival in (False, True):
                passes["n"] = 0
                x, upper = distortion_inverse(pv, levels, survival=survival, split=True)
                digests[survival].update(x.astype("<f8").tobytes() + upper.tobytes())
                total[survival] += passes["n"]
                most = max(most, passes["n"])
            multi += most > 1
        assert multi == 309
        assert total == self.PASSES
        assert {survival: d.hexdigest() for survival, d in digests.items()} == self.DIGESTS


class TestComposition:
    def test_identity_on_random_triples(self, composition_pair):
        gen = np.random.default_rng(22)
        for pv in random_vectors(gen, 100):
            b = float(np.exp(gen.uniform(math.log(0.2), math.log(5))))
            u = float(gen.uniform(0, 1))
            left, right = composition_pair(pv, b, u)
            assert left == pytest.approx(right, abs=1e-12)

    def test_neutral_scale(self, composition_pair):
        pv = validate_params(2, [1.5, 0.5])
        left, right = composition_pair(pv, 1.0, 0.37)
        assert left == right == pytest.approx(distortion(pv, 0.37), abs=1e-15)

    def test_one_parameter_closed_form(self, composition_pair):
        a, b, u = 1.7, 2.0, 0.41
        left, right = composition_pair(validate_params(1, [a]), b, u)
        expected = mo_map(a * b, u)
        assert left == pytest.approx(expected, abs=1e-13)
        assert right == pytest.approx(expected, abs=1e-13)
