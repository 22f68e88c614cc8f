"""Tests for the samplers, the dominating constant, and the logistic collapse."""

import hashlib
import math

import numpy as np
import pytest

from moq import (
    ConditionViolated,
    DomainError,
    EnvelopeViolation,
    Exponential,
    ExtendedDistribution,
    GeneralizedWeibull,
    LogLogistic,
    MoqError,
    Nonconvergence,
    RandomSource,
    SampleBatch,
    Weibull,
    distortion_deriv,
    envelope_constant,
    ks_one_sample,
    ks_threshold_one_sample,
    ks_threshold_two_sample,
    ks_two_sample,
    logistic_transform,
    sample_accept_reject,
    sample_count,
    sample_inverse_cdf,
    sample_random_maxima,
    series_at_zero,
    validate_params,
)
from moq import sampling
from moq.verify import random_parameter_vectors

ED = ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5]))
N = 100_000

# the benchmark's two mixed specs, outside the pmf regime
MIXED = {
    "exp-q8-mixed": ExtendedDistribution(Exponential(2.0), validate_params(8, [0.5, 1.2, 0.8, 2.0, 0.6, 1.5, 0.9, 0.7])),
    "weib-q4-mixed": ExtendedDistribution(Weibull(1.0, 1.5), validate_params(4, [0.8, 1.3, 0.6, 1.4])),
}
WAVE = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(2, [1e-6, 0.15]))


def mp_deriv_max(mp, a):
    """The max of T' on [0, 1] at 30 digits, from the product rule on T.

    The best node of a dense float grid is refined by golden-section search
    in mpmath over its two neighbouring cells; both ends are also taken.
    """
    q = len(a)
    grid = np.linspace(0.0, 1.0, 20_001)
    rest = np.array(a[1:])[:, None]
    f = rest + (1.0 - rest) * grid
    d = math.fsum(a) - (math.fsum(a) - q) * grid
    slope = 1.0 + grid * np.sum((1.0 - rest) / f, axis=0) + q * (math.fsum(a) - q) * grid / d
    best = int(np.argmax(np.prod(q * f / d, axis=0) * (q / d) * slope))
    with mp.workdps(30):
        aa = [mp.mpf(x) for x in a]
        big_s = mp.fsum(aa)

        def deriv(u):
            u = mp.mpf(u)
            fs = [ai + (1 - ai) * u for ai in aa[1:]]
            dd = big_s - (big_s - q) * u
            inner = 1 + u * mp.fsum((1 - ai) / fi for ai, fi in zip(aa[1:], fs)) + q * (big_s - q) * u / dd
            return mp.mpf(q) ** q * mp.fprod(fs) / dd**q * inner

        lo, hi = mp.mpf(grid[max(best - 1, 0)]), mp.mpf(grid[min(best + 1, grid.size - 1)])
        ratio = (mp.sqrt(5) - 1) / 2
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        f1, f2 = deriv(x1), deriv(x2)
        for _ in range(60):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + ratio * (hi - lo)
                f2 = deriv(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - ratio * (hi - lo)
                f1 = deriv(x1)
        return max(f1, f2, deriv(grid[best]), deriv(0), deriv(1))


def logistic_cdf(v):
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


class TestEnvelopeConstant:
    def test_identity(self):
        assert envelope_constant(validate_params(1, [1.0])) == 1.0

    def test_pmf_regime_is_first_parameter(self):
        assert envelope_constant(validate_params(2, [1.5, 0.5])) == 1.5

    def test_general_bound_dominates_grid(self):
        pv = validate_params(2, [1e-6, 0.15])
        m_const = envelope_constant(pv)
        grid = np.linspace(0, 1, 10_001)
        assert float(np.max(distortion_deriv(pv, grid))) <= m_const

    def test_dominates_across_regimes(self):
        gen = np.random.default_rng(40)
        grid = np.linspace(0, 1, 2001)
        for pv in random_parameter_vectors(gen, 200):
            top = float(np.max(distortion_deriv(pv, grid)))
            assert top <= envelope_constant(pv) + 1e-12


    def test_dominates_mpmath_max(self):
        mp = pytest.importorskip("mpmath")
        gen = np.random.default_rng(909)
        pmf = 0
        for _ in range(200):
            q = int(gen.integers(1, 13))
            pv = validate_params(q, 10.0 ** gen.uniform(-3.0, 3.0, size=q))
            pmf += pv.pmf_ok
            top = mp_deriv_max(mp, pv.a)
            assert mp.mpf(envelope_constant(pv)) >= top * (1 - mp.mpf(10) ** -25), pv.a
        assert 0 < pmf < 200

    def test_float_deriv_dominated_without_slack(self):
        """The rounding margin covers the float T' at every node of the
        pieces and between them, outside the pmf regime."""
        grid = np.arange(4097) / 4096
        gen = np.random.default_rng(41)
        for pv in random_parameter_vectors(gen, 600):
            if not pv.pmf_ok:
                assert float(np.max(distortion_deriv(pv, grid))) <= envelope_constant(pv), pv.a

    @pytest.mark.parametrize("key", sorted(MIXED))
    def test_within_one_percent_of_max(self, key):
        mp = pytest.importorskip("mpmath")
        pv = MIXED[key].pv
        top = float(mp_deriv_max(mp, pv.a))
        assert top <= envelope_constant(pv) <= 1.01 * top

    def test_pmf_regime_is_exactly_first_parameter(self):
        pvs = [pv for pv in random_parameter_vectors(np.random.default_rng(31), 300) if pv.pmf_ok]
        assert len(pvs) > 50
        for pv in pvs:
            assert envelope_constant(pv) == pv.a[0]

    @pytest.mark.parametrize("q", [150, 1000])
    def test_large_q_finite_or_typed_error(self, q):
        gen = np.random.default_rng(q)
        vectors = [validate_params(q, 10.0 ** gen.uniform(-e, e, size=q)) for e in (1.0, 3.0, 15.0)]
        vectors.append(validate_params(q, [float(q)] + [0.5] * (q - 1)))
        for pv in vectors:
            try:
                m_const = envelope_constant(pv)
            except MoqError:
                continue
            assert math.isfinite(m_const) and m_const > 0.0


class TestAcceptReject:
    def test_identity_accepts_everything(self):
        ed = ExtendedDistribution(Exponential(1.0), validate_params(1, [1.0]))
        batch = sample_accept_reject(ed, RandomSource(1), 2000)
        assert batch.acceptance_rate == 1.0

    def test_acceptance_rate_matches_reciprocal_constant(self):
        batch = sample_accept_reject(ED, RandomSource(42), N)
        p = 1.0 / envelope_constant(ED.pv)
        se = math.sqrt(p * (1 - p) / batch.n_proposed)
        assert abs(batch.acceptance_rate - p) <= 3 * se

    def test_distribution(self):
        batch = sample_accept_reject(ED, RandomSource(42), N)
        assert ks_one_sample(batch.values, ED.cdf) < ks_threshold_one_sample(N)

    def test_corrupted_constant_is_detected(self):
        good = envelope_constant(ED.pv)
        with pytest.raises(EnvelopeViolation):
            sample_accept_reject(ED, RandomSource(5), 1000, envelope=good / 2.0)

    @pytest.mark.parametrize("envelope", [math.nan, -1.0, math.inf])
    def test_envelope_neither_positive_nor_finite_is_refused(self, envelope, wall_clock_limit):
        """No proposal could be accepted, so the draw would never end."""
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5]))
        with wall_clock_limit(5.0), pytest.raises(DomainError, match="positive and finite"):
            sample_accept_reject(ed, RandomSource(1), 10, envelope=envelope)

    def test_expected_proposals_over_budget_are_refused(self, wall_clock_limit):
        """n * M = 1e301 expected proposals: refused before the first draw."""
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5]))
        with wall_clock_limit(5.0), pytest.raises(Nonconvergence, match=r"n \* M = 10 \* 1e\+300"):
            sample_accept_reject(ed, RandomSource(1), 10, envelope=1e300)

    def test_budget_sits_above_the_calls_made(self):
        """5e4 draws of the wave spec, the most a test asks for, and 1e4
        draws of a random q = 1000 vector with M = 88,206 stay inside the
        budget with margins of 1,000 and 10."""
        a = np.exp(np.random.default_rng(0).uniform(-3.0, 3.0, 1000))
        big = envelope_constant(validate_params(1000, a))
        assert big == pytest.approx(88_206, rel=1e-4)
        assert 1_000 * 50_000 * envelope_constant(WAVE.pv) < sampling._MAX_EXPECTED_PROPOSALS
        assert 10 * 10_000 * big < sampling._MAX_EXPECTED_PROPOSALS

    @pytest.mark.parametrize("ed", [MIXED["exp-q8-mixed"], WAVE], ids=["exp-q8-mixed", "weib-q2-wave"])
    def test_outside_pmf_regime_rate_and_law(self, ed):
        n = 50_000
        batch = sample_accept_reject(ed, RandomSource(43), n)
        p = 1.0 / envelope_constant(ed.pv)
        se = math.sqrt(p * (1 - p) / batch.n_proposed)
        assert abs(batch.acceptance_rate - p) <= 3 * se
        assert ks_one_sample(batch.values, ed.cdf) < ks_threshold_one_sample(n)

    def test_chunks_capped(self, monkeypatch):
        """The wave spec needs about 1.3e6 proposals for 5e4 draws: more
        than one chunk holds, and T' sees them a block at a time."""
        sizes = []

        def spy(pv, u):
            sizes.append(np.size(u))
            return distortion_deriv(pv, u)

        monkeypatch.setattr(sampling, "distortion_deriv", spy)
        batch = sample_accept_reject(WAVE, RandomSource(44), 50_000)
        assert batch.values.size == 50_000
        assert sum(sizes) > sampling._MAX_PROPOSALS and max(sizes) <= sampling._BLOCK

    @pytest.mark.parametrize(
        "a, proposed, digest",
        [
            ((1.5, 0.5), 30075, "b888b2bc6f247dc658c23aaec3dbe646c791ac7ab1a7b786ff73f70a01d7672a"),
            ((3.0, 0.3, 0.4, 0.9, 0.6), 59925, "64305e2bf7feaa32a0d504747fe2fc859163eda8e11197f69e19255629832093"),
        ],
    )
    def test_pmf_stream_pinned(self, a, proposed, digest):
        """In the pmf regime the constant is a_1, so a fixed seed keeps its
        draws; the log-logistic quantile with shape 1 is a single division."""
        ed = ExtendedDistribution(LogLogistic(), validate_params(len(a), a))
        batch = sample_accept_reject(ed, RandomSource(42), 20_000)
        assert batch.n_proposed == proposed
        assert hashlib.sha256(batch.values.tobytes()).hexdigest() == digest

    def test_provenance(self):
        batch = sample_accept_reject(ED, RandomSource(9), 100)
        assert batch.sampler == "accept-reject"
        assert batch.seed == 9
        assert batch.n_proposed >= batch.values.size == 100


class TestSampleCount:
    def test_identity_always_one(self):
        counts = sample_count(validate_params(1, [1.0]), RandomSource(2), 10_000)
        assert np.all(counts == 1)

    def test_scalar_form(self):
        assert sample_count(validate_params(1, [1.0]), RandomSource(3)) == 1

    def test_geometric_case(self):
        """a = 2 gives weights 2^-m: a geometric count with mean 2."""
        counts = sample_count(validate_params(1, [2.0]), RandomSource(7), 1_000_000)
        p1 = float((counts == 1).mean())
        se = math.sqrt(0.5 * 0.5 / counts.size)
        assert abs(p1 - 0.5) <= 3 * se
        assert counts.mean() == pytest.approx(2.0, abs=0.01)

    def test_matches_series_weights(self):
        pv = validate_params(2, [1.5, 0.5])
        sc = series_at_zero(pv, tol=1e-12)
        counts = sample_count(pv, RandomSource(11), 1_000_000)
        for m in range(1, 11):
            p = sc.values[m - 1]
            if p < 1e-6:
                break
            obs = float((counts == m).mean())
            se = math.sqrt(p * (1 - p) / counts.size)
            assert abs(obs - p) <= 3 * se + 1e-9

    def test_refuses_signed_weights(self):
        with pytest.raises(ConditionViolated):
            sample_count(validate_params(2, [1e-6, 0.15]), RandomSource(1))

    def test_uniform_above_the_last_sum(self):
        """For the benchmark's ll-q5-pmf vector the float sum of the weights
        stops short of one; a uniform above it takes the count one past
        the count CDF at once, where a table extended to cover it ran
        through 1e6 terms and raised."""

        class Top:
            def random(self, n):
                return np.full(n, 1.0 - 2.0**-53)

        pv = validate_params(5, [3.0, 0.3, 0.4, 0.9, 0.6])
        cdf = sampling._count_cdf(pv, 10**6)
        assert cdf[-1] < 1.0 - 2.0**-53
        np.testing.assert_array_equal(sampling._draw_counts(pv, Top(), 3, 10**6), cdf.size + 1)

    def test_term_budget_depends_on_the_vector_alone(self):
        """The count CDF covers the mass to 2^-53, about 20 a_1 terms at
        q = 2: a_1 = 1e4 fits the default budget of 1e6 terms and 5e4 does
        not, whatever the seed."""
        for seed in (1, 2):
            assert sample_count(validate_params(2, [1e4, 0.5]), RandomSource(seed), 10).min() >= 1
            with pytest.raises(Nonconvergence):
                sample_count(validate_params(2, [5e4, 0.5]), RandomSource(seed), 10)

    def test_refusal_is_cached(self, monkeypatch):
        """A count CDF over the term budget raises on every call, from one
        walk of the series; a vector within the budget still draws."""
        walks = []

        def spy(*args):
            walks.append(args)
            return series_at_zero(*args)

        sampling._count_cdf.cache_clear()
        monkeypatch.setattr(sampling, "series_at_zero", spy)
        messages = []
        for seed in (1, 2):
            with pytest.raises(Nonconvergence) as exc:
                sample_count(validate_params(2, [5e4, 0.5]), RandomSource(seed), 10)
            messages.append(str(exc.value))
        assert len(walks) == 1 and messages[0] == messages[1] != ""
        pv = validate_params(2, [1e4, 0.5])
        assert sample_count(pv, RandomSource(1), 10).min() >= 1
        assert sampling._count_cdf(pv, 10**6).size == 202_301

    def test_budget_refused_up_front(self, monkeypatch):
        """A count CDF that cannot close within max_terms is refused after
        the prefix and one index at max_terms, not after a walk of them all."""
        from moq import family

        evaluated = []
        evaluate = family._SeriesStream._evaluate

        def spy(self, m0, m1):
            evaluated.append(m1 - m0)
            return evaluate(self, m0, m1)

        sampling._count_cdf.cache_clear()
        family._series_stream.cache_clear()
        monkeypatch.setattr(family._SeriesStream, "_evaluate", spy)
        with pytest.raises(Nonconvergence, match=r"still above tol=.* after 1000000 terms"):
            sample_count(validate_params(2, [5e4, 0.5]), RandomSource(1), 10)
        assert sum(evaluated) <= family._PREFIX_CAP + 1
        sampling._count_cdf.cache_clear()

    def test_budget_just_met_keeps_the_full_table(self):
        """A series that closes at index n past the prefix keeps its whole
        count CDF under max_terms = n, and is refused under n - 1."""
        from moq import family

        pv, tol = validate_params(2, [2000.0, 0.5]), 2.0**-53
        full = series_at_zero(pv, tol)
        n = full.truncation_index
        assert n > family._PREFIX_CAP
        assert series_at_zero(pv, tol, n) == full
        assert np.array_equal(sampling._count_cdf(pv, n), sampling._count_cdf(pv, 10**6))
        with pytest.raises(Nonconvergence, match=f"after {n - 1} terms"):
            series_at_zero(pv, tol, n - 1)


class TestRandomMaxima:
    def test_identity_is_baseline(self):
        ed = ExtendedDistribution(Exponential(1.0), validate_params(1, [1.0]))
        batch = sample_random_maxima(ed, RandomSource(13), N)
        assert ks_one_sample(batch.values, ed.baseline.cdf) < ks_threshold_one_sample(N)

    def test_marginal_law(self):
        batch = sample_random_maxima(ED, RandomSource(14), N)
        assert ks_one_sample(batch.values, ED.cdf) < ks_threshold_one_sample(N)

    def test_agrees_with_accept_reject(self):
        b1 = sample_random_maxima(ED, RandomSource(15), N)
        b2 = sample_accept_reject(ED, RandomSource(16), N)
        assert ks_two_sample(b1.values, b2.values) < ks_threshold_two_sample(N, N)

    def test_refuses_outside_pmf_regime(self):
        ed = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(2, [1e-6, 0.15]))
        with pytest.raises(ConditionViolated):
            sample_random_maxima(ed, RandomSource(17), 10)

    def test_large_first_parameter(self):
        """a_1 = 2000: counts average 2000, yet each draw takes one uniform
        V^(1/N), not N of them.  One-sample KS at the DKW bound for
        alpha = 1e-6."""
        n = 200_000
        ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [2000.0, 0.5]))
        batch = sample_random_maxima(ed, RandomSource(18), n)
        assert ks_one_sample(batch.values, ed.cdf) < math.sqrt(math.log(2.0 / 1e-6) / (2 * n))


class TestInverseCdf:
    def test_identity_is_inverse_transform(self):
        ed = ExtendedDistribution(Exponential(1.0), validate_params(1, [1.0]))
        batch = sample_inverse_cdf(ed, RandomSource(18), 1000)
        gen = RandomSource(18).generator()
        u = np.clip(gen.random(1000), np.finfo(float).tiny, None)
        np.testing.assert_allclose(batch.values, Exponential(1.0).quantile(u), rtol=1e-12)

    def test_distribution(self):
        batch = sample_inverse_cdf(ED, RandomSource(19), N)
        assert ks_one_sample(batch.values, ED.cdf) < ks_threshold_one_sample(N)

    def test_deterministic_rerun(self):
        b1 = sample_inverse_cdf(ED, RandomSource(20), 5000)
        b2 = sample_inverse_cdf(ED, RandomSource(20), 5000)
        assert np.array_equal(b1.values, b2.values)

    def test_sample_mean_matches_moment(self):
        from moq import moment

        batch = sample_inverse_cdf(ED, RandomSource(21), N)
        expected = moment(ED.baseline, ED.pv, 1.0).value
        sd = float(batch.values.std(ddof=1)) / math.sqrt(N)
        assert abs(float(batch.values.mean()) - expected) <= 4 * sd


def _spy(monkeypatch, owner, name, sizes):
    """Replace ``owner.name`` by a wrapper that records the size of its last argument."""
    fn = getattr(owner, name)

    def spy(*args):
        sizes.append(np.size(args[-1]))
        return fn(*args)

    monkeypatch.setattr(owner, name, spy)


class TestBlocks:
    """Each sampler maps its draws in blocks of ``sampling._BLOCK`` levels,
    and the draws are those of one call over the whole batch."""

    CASES = {
        "inverse-cdf": (sample_inverse_cdf, MIXED["exp-q8-mixed"], [(ExtendedDistribution, "quantile")]),
        "accept-reject": (
            sample_accept_reject,
            MIXED["exp-q8-mixed"],
            [(sampling, "distortion_deriv"), (Exponential, "quantile")],
        ),
        "random-maxima": (sample_random_maxima, ED, [(Exponential, "quantile")]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical_to_one_call(self, monkeypatch, name):
        sampler, ed, maps = self.CASES[name]
        n = 2 * sampling._BLOCK + 3
        with monkeypatch.context() as m:
            m.setattr(sampling, "_BLOCK", sampling._MAX_PROPOSALS)  # above n and every chunk
            whole = sampler(ed, RandomSource(50), n)
        sizes = []
        for owner, attr in maps:
            _spy(monkeypatch, owner, attr, sizes)
        blocked = sampler(ed, RandomSource(50), n)
        assert blocked.values.tobytes() == whole.values.tobytes()
        assert blocked.n_proposed == whole.n_proposed
        assert sum(sizes) >= n and max(sizes) <= sampling._BLOCK

    def test_envelope_violation_over_blocks(self, monkeypatch):
        sizes = []
        _spy(monkeypatch, sampling, "distortion_deriv", sizes)
        ed = MIXED["exp-q8-mixed"]
        with pytest.raises(EnvelopeViolation):
            sample_accept_reject(ed, RandomSource(5), 2 * sampling._BLOCK + 3, envelope=envelope_constant(ed.pv) / 2.0)
        assert len(sizes) > 1 and max(sizes) <= sampling._BLOCK


class TestStreamsPinned:
    """Digests of the benchmark's simulate specs, at sizes of several blocks
    and chunks: each sampler's draws, and accept-reject's proposal count,
    stay those of drawing every stream in one call."""

    SPECS = {
        "exp-q2-pmf": ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5])),
        "weib-q2-wave": WAVE,
        "ll-q5-pmf": ExtendedDistribution(LogLogistic(1.0, 1.0), validate_params(5, [3.0, 0.3, 0.4, 0.9, 0.6])),
        "gw-q3-pmf": ExtendedDistribution(GeneralizedWeibull(1.0, 0.5, 2.0), validate_params(3, [2.5, 0.5, 0.8])),
        **MIXED,
    }

    @pytest.mark.parametrize(
        "key, digest",
        [
            ("exp-q2-pmf", "61d24d4e4bbee1501ac00c20c2e3dc86cff78ea8b6046bb9198f77b9f2ad89f9"),
            ("weib-q2-wave", "159d983b243b30343740b6da497be3ca32940a2b9ef8eb9925063840b3d2d177"),
            ("ll-q5-pmf", "720ffe10b7fc4cb0a335b20063f81701331731ce907bbae407ed576bb8bcbb53"),
            ("gw-q3-pmf", "102df5ed66a3829d77bf0d4f9501f42bbf2c720be14b5d20d157b7afd179936d"),
            ("weib-q4-mixed", "79259280dd2a36644c584a4e3cc08acbbba14752573699d75fa8b379f4032e3e"),
            ("exp-q8-mixed", "1993d06c54df30119f7b9aefa6bcd6349163ea0de425bd7ee7cfc2645e3560f8"),
        ],
    )
    def test_inverse_cdf(self, key, digest):
        batch = sample_inverse_cdf(self.SPECS[key], RandomSource(11), 16_387)  # two blocks of 8192 and 3
        assert hashlib.sha256(batch.values.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "key, n, proposed, digest",
        [
            # two chunks, the first of 2^20 proposals
            ("weib-q2-wave", 50_000, 1_335_364, "2afa06dc364ba571429532aff33d2c93cdb6221f3a215905f0e1bcf1fce5c087"),
            ("exp-q8-mixed", 16_387, 19_250, "2c4bde568ae8f617d4ec7c9c4014b4f237efb0b5eb06a966140f607e70c4c24c"),
        ],
    )
    def test_accept_reject(self, key, n, proposed, digest):
        batch = sample_accept_reject(self.SPECS[key], RandomSource(11), n)
        assert batch.n_proposed == proposed
        assert hashlib.sha256(batch.values.tobytes()).hexdigest() == digest

    def test_random_maxima(self):
        batch = sample_random_maxima(self.SPECS["ll-q5-pmf"], RandomSource(11), 24_576)  # three blocks
        digest = "ee23b3f0c3554cabfdb9950dd39e69040a5c9dae3f57ae5560a308c0966906f0"
        assert hashlib.sha256(batch.values.tobytes()).hexdigest() == digest


class TestSamplerPairwiseAgreement:
    def test_three_way(self):
        cases = [
            ED,
            ExtendedDistribution(LogLogistic(), validate_params(2, [1.5, 0.5])),
            ExtendedDistribution(Weibull(2.0, 2.0), validate_params(3, [2.2, 0.9, 0.4])),
        ]
        n = 40_000
        for ed in cases:
            srcs = RandomSource(77).spawn(3)
            batches = [
                sample_accept_reject(ed, srcs[0], n),
                sample_random_maxima(ed, srcs[1], n),
                sample_inverse_cdf(ed, srcs[2], n),
            ]
            thr = ks_threshold_two_sample(n, n)
            for i in range(3):
                assert ks_one_sample(batches[i].values, ed.cdf) < ks_threshold_one_sample(n)
                for j in range(i + 1, 3):
                    assert ks_two_sample(batches[i].values, batches[j].values) < thr


class TestLogisticTransform:
    def test_first_ordering(self):
        pv = validate_params(2, [1.5, 0.5])
        ed = ExtendedDistribution(LogLogistic(), pv)
        batch = sample_inverse_cdf(ed, RandomSource(23), N)
        out = logistic_transform(batch, 1.5, 0.5, LogLogistic(), RandomSource(24))
        assert ks_one_sample(out, logistic_cdf) < ks_threshold_one_sample(N)

    def test_reversed_ordering(self):
        pv = validate_params(2, [0.5, 1.5])
        ed = ExtendedDistribution(LogLogistic(), pv)
        batch = sample_inverse_cdf(ed, RandomSource(25), N)
        out = logistic_transform(batch, 0.5, 1.5, LogLogistic(), RandomSource(26))
        assert ks_one_sample(out, logistic_cdf) < ks_threshold_one_sample(N)

    def test_boundary_draws_map_through_zero_log_odds(self):
        """Values with F0 in {0, 1} contribute log-odds 0, so the output is
        exactly the shifted exponential draw."""
        batch = SampleBatch(values=np.array([0.0, 0.0]), sampler="inverse-cdf", seed=0)
        out = logistic_transform(batch, 1.5, 0.5, LogLogistic(), RandomSource(27))
        v = RandomSource(27).generator().exponential(scale=1.0 / 2.0, size=2)
        np.testing.assert_allclose(out, v, rtol=1e-12)  # - log(2/(a1+a2)) = 0 here

    def test_equal_parameters_rejected(self):
        batch = SampleBatch(values=np.array([1.0]), sampler="inverse-cdf", seed=0)
        with pytest.raises(DomainError):
            logistic_transform(batch, 1.0, 1.0, LogLogistic(), RandomSource(28))


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(123).generator().random(100)
        b = RandomSource(123).generator().random(100)
        assert np.array_equal(a, b)

    def test_spawn_is_deterministic_and_distinct(self):
        kids1 = RandomSource(5).spawn(4)
        kids2 = RandomSource(5).spawn(4)
        assert [k.seed for k in kids1] == [k.seed for k in kids2]
        assert len({k.seed for k in kids1}) == 4
