"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Tolerances are pinned here and nowhere else; expected values come from
closed forms or from the quadrature oracle, never from the path under test.
"""

import math

import numpy as np

from moq import (
    Exponential,
    ExtendedDistribution,
    GeneralizedWeibull,
    LogLogistic,
    RandomSource,
    Weibull,
    composition_pair,
    distortion,
    distortion_deriv,
    envelope_constant,
    integrate_semiinfinite,
    ks_one_sample,
    ks_threshold_one_sample,
    ks_threshold_two_sample,
    ks_two_sample,
    logistic_transform,
    moment_exponential,
    moment_loglogistic,
    moment_q2_loglogistic_closed,
    sample_accept_reject,
    sample_inverse_cdf,
    sample_random_maxima,
    series_at_one,
    series_at_zero,
    validate_params,
)
from moq.cli import main as cli_main
from moq.verify import count_interior_extrema, random_parameter_vectors


def report(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {text}")
    assert ok, f"criterion {number}: {text}"


def quad_moment(baseline, pv, r, tol=1e-9):
    ed = ExtendedDistribution(baseline, pv)
    return integrate_semiinfinite(lambda x: x**r * ed.pdf(x), tol=tol).value


def test_criterion_01_equal_parameter_reduction():
    u = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for q in range(1, 6):
        for a in (0.1, 0.5, 1.0, 2.0, 10.0):
            pv = validate_params(q, [a] * q)
            gap = np.max(np.abs(np.asarray(distortion(pv, u)) - u / (a + (1 - a) * u)))
            worst = max(worst, float(gap))
    report(1, worst <= 1e-12, f"equal-parameter reduction, worst gap {worst:.2e} (tol 1e-12)")


def test_criterion_02_distortion_function_suite():
    gen = np.random.default_rng(202)
    worst_end = 0.0
    worst_rel = 0.0
    mono_ok = True
    deriv_ok = True
    for pv in random_parameter_vectors(gen, 1000):
        worst_end = max(worst_end, abs(distortion(pv, 0.0)), abs(distortion(pv, 1.0) - 1.0))
        u = np.sort(gen.uniform(0.0, 1.0, size=8))
        v = np.asarray(distortion(pv, u))
        if not np.all(np.diff(v) >= 0.0):
            mono_ok = False
        g = np.asarray(distortion_deriv(pv, np.linspace(0, 1, 17)))
        if np.any(g < 0.0):
            deriv_ok = False
        worst_rel = max(worst_rel, abs(distortion_deriv(pv, 1.0) - pv.a[0]) / pv.a[0])
    ok = worst_end <= 1e-14 and mono_ok and deriv_ok and worst_rel <= 1e-12
    report(
        2, ok,
        f"1000 random vectors: endpoint gap {worst_end:.1e} (tol 1e-14), monotone {mono_ok}, "
        f"derivative nonnegative {deriv_ok}, endpoint slope rel err {worst_rel:.1e} (tol 1e-12)",
    )


def test_criterion_03_series_fidelity():
    gen = np.random.default_rng(303)
    u_grid = np.linspace(0.0, 1.0, 11)
    checked = {"at_zero": 0, "at_one": 0}
    recon_ok = True
    pmf_checked = 0
    signs_ok = True
    worst_sum_gap = 0.0
    while min(checked.values()) < 20:
        q = int(gen.integers(1, 6))
        a = np.exp(gen.uniform(math.log(0.15), math.log(3.0), size=q))
        pv = validate_params(q, a)
        if pv.series_at_zero_ok and checked["at_zero"] < 20:
            sc = series_at_zero(pv, tol=1e-10)
            err = np.max(np.abs(sc.reconstruct(u_grid) - np.asarray(distortion(pv, u_grid))))
            recon_ok &= bool(err <= sc.tail_estimate)
            checked["at_zero"] += 1
            if pv.pmf_ok:
                pmf_checked += 1
                signs_ok &= all(v >= 0.0 for v in sc.values)
                worst_sum_gap = max(worst_sum_gap, abs(math.fsum(sc.values) - 1.0))
        if pv.series_at_one_ok and checked["at_one"] < 20:
            sd = series_at_one(pv, tol=1e-10)
            err = np.max(np.abs(sd.reconstruct(u_grid) - np.asarray(distortion(pv, u_grid))))
            recon_ok &= bool(err <= sd.tail_estimate)
            checked["at_one"] += 1
    # make sure the pmf sub-checks actually ran
    for _ in range(10):
        q = int(gen.integers(1, 6))
        rest = gen.uniform(0.1, 1.0, size=q - 1)
        a1 = max(float(gen.uniform(1.0, 3.0)), q - float(rest.sum()) + 0.01)
        pv = validate_params(q, [a1, *rest])
        sc = series_at_zero(pv, tol=1e-10)
        pmf_checked += 1
        signs_ok &= all(v >= 0.0 for v in sc.values)
        worst_sum_gap = max(worst_sum_gap, abs(math.fsum(sc.values) - 1.0))
    ok = recon_ok and signs_ok and worst_sum_gap <= 1e-8 and pmf_checked >= 10
    report(
        3, ok,
        f"20+20 reconstructions within reported tails ({recon_ok}); {pmf_checked} pmf vectors "
        f"nonnegative ({signs_ok}) with worst |sum - 1| = {worst_sum_gap:.2e} (tol 1e-8)",
    )


EXP_BATTERY = [
    ((1, [1.0]), 0.25), ((1, [1.5]), 0.5), ((1, [2.0]), 1.0), ((1, [2.5]), 2.0),
    ((2, [1.5, 0.5]), 0.25), ((2, [2.0, 1.0]), 0.5), ((2, [1.2, 0.9]), 1.0),
    ((2, [3.0, 0.25]), 2.0), ((3, [2.2, 0.9, 0.4]), 0.5), ((3, [1.8, 0.7, 0.6]), 2.0),
    ((4, [2.5, 0.8, 0.9, 0.6]), 1.0), ((5, [2.0, 0.8, 0.9, 0.7, 0.75]), 0.25),
]

LL_BATTERY = [
    ((1, [1.0]), -0.5), ((1, [1.5]), 0.9), ((1, [3.0]), 0.25),
    ((2, [1.5, 0.5]), -0.5), ((2, [1.5, 0.5]), 0.9), ((2, [2.0, 1.0]), 0.25),
    ((3, [2.0, 0.6, 0.7]), 0.5), ((3, [2.5, 0.9, 0.3]), -0.5),
    ((4, [3.0, 0.5, 0.25, 0.5]), 0.5), ((2, [1.01, 0.99]), 0.9),
]


def test_criterion_04_moment_cross_validation():
    # Each case checks the paper's series at zero and auto (which integrates a
    # single order first) against quadrature.  At a = (2.5,), r = 2 the series'
    # inner alternating sum is ill-conditioned (it raises Nonconvergence), so
    # that case checks auto alone.
    worst = 0.0
    series_cases = auto_cases = 0
    batteries = (
        (moment_exponential, Exponential(1.0), EXP_BATTERY),
        (moment_loglogistic, LogLogistic(), LL_BATTERY),
    )
    for moment_fn, baseline, battery in batteries:
        for (q, a), r in battery:
            pv = validate_params(q, a)
            ref = quad_moment(baseline, pv, r)
            ill_conditioned = (baseline.name, a, r) == ("exponential", [2.5], 2.0)
            methods = ("auto",) if ill_conditioned else ("series_at_zero", "auto")
            for method in methods:
                res = moment_fn(pv, r, method=method)
                gap = abs(res.value - ref)
                allowed = max(1e-6 * abs(ref), res.error_estimate)
                assert gap <= allowed, f"{baseline.name} {a} r={r} {method}: {gap:.2e} > {allowed:.2e}"
                worst = max(worst, gap / abs(ref))
            series_cases += len(methods) - 1
            auto_cases += 1
    report(
        4, series_cases >= 20,
        f"{series_cases} series-vs-quadrature and {auto_cases} auto-vs-quadrature cases agree, "
        f"worst rel gap {worst:.2e}",
    )


def test_criterion_05_closed_form():
    equal = moment_q2_loglogistic_closed(1.0, 1.0, 1.0, 1.0, 0.5)
    gap_equal = abs(equal - math.pi / 2.0)

    pv = validate_params(2, [1.5, 0.5])
    closed = moment_q2_loglogistic_closed(1.5, 0.5, 1.0, 1.0, 0.5)
    series = moment_loglogistic(pv, 0.5, method="series_at_zero").value
    quad = quad_moment(LogLogistic(), pv, 0.5)
    pair_gap = max(abs(closed - series), abs(closed - quad), abs(series - quad))

    pv_rev = validate_params(2, [0.5, 1.5])
    closed_rev = moment_q2_loglogistic_closed(0.5, 1.5, 1.0, 1.0, 0.5)
    quad_rev = quad_moment(LogLogistic(), pv_rev, 0.5)
    rev_gap = abs(closed_rev - quad_rev)

    ok = gap_equal <= 1e-10 and pair_gap <= 1e-6 and rev_gap <= 1e-6
    report(
        5, ok,
        f"pi/2 gap {gap_equal:.1e} (tol 1e-10); (1.5,0.5) pairwise gap {pair_gap:.1e} and "
        f"(0.5,1.5) vs quadrature gap {rev_gap:.1e} (tol 1e-6)",
    )


def test_criterion_06_sampler_correctness():
    ed = ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5]))
    n = 100_000
    srcs = RandomSource(606).spawn(3)
    batches = [
        sample_accept_reject(ed, srcs[0], n),
        sample_random_maxima(ed, srcs[1], n),
        sample_inverse_cdf(ed, srcs[2], n),
    ]
    thr1 = ks_threshold_one_sample(n)
    ks1 = [ks_one_sample(b.values, ed.cdf) for b in batches]
    thr2 = ks_threshold_two_sample(n, n)
    ks2 = [
        ks_two_sample(batches[i].values, batches[j].values)
        for i in range(3) for j in range(i + 1, 3)
    ]
    p = 1.0 / envelope_constant(ed.pv)
    rate = batches[0].acceptance_rate
    se = math.sqrt(p * (1 - p) / batches[0].n_proposed)
    rate_ok = abs(rate - p) <= 3 * se
    ok = max(ks1) < thr1 and max(ks2) < thr2 and rate_ok
    report(
        6, ok,
        f"one-sample KS max {max(ks1):.4f} < {thr1:.4f}; pairwise KS max {max(ks2):.4f} < {thr2:.4f}; "
        f"acceptance rate {rate:.4f} within 3 SE of {p:.4f}",
    )


def test_criterion_07_logistic_convolution():
    def logistic_cdf(v):
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    n = 100_000
    thr = ks_threshold_one_sample(n)
    stats = []
    for idx, (a1, a2) in enumerate([(1.5, 0.5), (0.5, 1.5)]):
        pv = validate_params(2, [a1, a2])
        ed = ExtendedDistribution(LogLogistic(), pv)
        batch = sample_inverse_cdf(ed, RandomSource(707 + idx), n)
        out = logistic_transform(batch, a1, a2, LogLogistic(), RandomSource(808 + idx))
        stats.append(ks_one_sample(out, logistic_cdf))
    ok = max(stats) < thr
    report(7, ok, f"both orderings KS {stats[0]:.4f}, {stats[1]:.4f} < {thr:.4f}")


BOUND_CASES = [
    (Exponential(1.0), (1, [1.0]), 1.0),
    (Exponential(1.0), (1, [2.0]), 0.5),
    (Exponential(1.0), (2, [1.5, 0.5]), 1.0),
    (Exponential(1.0), (3, [2.2, 0.9, 0.4]), 2.0),
    (Exponential(1.0), (4, [2.5, 0.8, 0.9, 0.6]), 0.5),
    (Exponential(1.0), (5, [2.0, 0.8, 0.9, 0.7, 0.75]), 1.0),
    (Weibull(2.0, 2.0), (2, [2.0, 0.25]), 2.0),
    (LogLogistic(), (3, [2.0, 0.6, 0.7]), 0.5),
    (LogLogistic(), (2, [1.2, 0.9]), -0.5),
    (GeneralizedWeibull(1.0, 1.0, 2.0), (2, [3.0, 1.0]), 1.0),
]


def test_criterion_08_expectation_bound():
    worst = -math.inf
    for baseline, (q, a), r in BOUND_CASES:
        pv = validate_params(q, a)
        assert pv.pmf_ok
        lhs = quad_moment(baseline, pv, r)
        rhs = pv.a[0] * integrate_semiinfinite(lambda x: x**r * baseline.pdf(x), tol=1e-10).value
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-9, f"{baseline.name} a={a} r={r}: {lhs} > {rhs}"
    report(8, True, f"10 dominated-moment cases hold, worst lhs - rhs = {worst:.2e} (slack 1e-9)")


def test_criterion_09_hazard_curve_reproduction(tmp_path):
    import json

    spec_base = tmp_path / "base.json"
    spec_base.write_text(json.dumps(
        {"baseline": {"family": "weibull", "scale": 2.0, "shape": 2.0}, "a": [1.0]}
    ))
    spec_rich = tmp_path / "rich.json"
    spec_rich.write_text(json.dumps(
        {"baseline": {"family": "weibull", "scale": 2.0, "shape": 2.0}, "a": [1e-6, 0.15]}
    ))

    def run(spec, out):
        rc = cli_main(["curve", "--spec", str(spec), "--quantity", "hazard",
                       "--lo", "0.01", "--hi", "6", "--step", "0.01", "--out", str(out)])
        assert rc == 0
        text = out.read_bytes()
        vals = np.array([float(l.split(",")[1]) for l in text.decode().strip().split("\n")[1:]])
        return text, count_interior_extrema(vals)

    text_b1, n_base = run(spec_base, tmp_path / "b1.csv")
    text_b2, _ = run(spec_base, tmp_path / "b2.csv")
    text_r1, n_rich = run(spec_rich, tmp_path / "r1.csv")
    text_r2, n_rich2 = run(spec_rich, tmp_path / "r2.csv")
    ok = n_base == 0 and n_rich >= 2 and n_rich == n_rich2 and text_b1 == text_b2 and text_r1 == text_r2
    report(
        9, ok,
        f"baseline hazard extrema {n_base} (want 0), extension {n_rich} (want >= 2), CSV byte-stable",
    )


def test_criterion_10_composition_identity():
    gen = np.random.default_rng(1010)
    worst = 0.0
    for pv in random_parameter_vectors(gen, 1000):
        b = float(np.exp(gen.uniform(math.log(0.2), math.log(5.0))))
        u = float(gen.uniform(0.0, 1.0))
        left, right = composition_pair(pv, b, u)
        worst = max(worst, abs(left - right))
    report(10, worst <= 1e-12, f"1000 random triples, worst composition gap {worst:.2e} (tol 1e-12)")


def test_criterion_11_envelope_dominance():
    gen = np.random.default_rng(1111)
    grid = np.linspace(0.0, 1.0, 10_001)
    violations = 0
    worst = -math.inf
    for pv in random_parameter_vectors(gen, 1000):
        top = float(np.max(distortion_deriv(pv, grid)))
        m_const = envelope_constant(pv)
        worst = max(worst, top - m_const)
        if top > m_const + 1e-12:
            violations += 1
    report(
        11, violations == 0,
        f"1000 vectors across regimes, {violations} violations, worst excess {worst:.2e}",
    )
