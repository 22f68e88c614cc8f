"""The self-check battery behind ``moq verify``.

Every check pits one computation path against an independent one: series
against quadrature, samplers against the CDF and against each other, the
density-domination constant against a grid maximum of the derivative, and
a deliberately corrupted constant against the violation detector (so a
silent detector cannot pass).  Checks are pure given (spec, budget, seed)
and can run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .baselines import Exponential, GeneralizedWeibull, LogLogistic, Weibull
from .config import DistributionSpec
from .errors import EnvelopeViolation
from .extended import ExtendedDistribution
from .family import ParameterVector, _deriv, validate_params
from .moments import _require_pmf, moment
from .oracle import (
    integrate_semiinfinite,
    ks_one_sample,
    ks_threshold_one_sample,
    ks_threshold_two_sample,
    ks_two_sample,
)
from .sampling import (
    RandomSource,
    envelope_constant,
    logistic_transform,
    sample_accept_reject,
    sample_inverse_cdf,
    sample_random_maxima,
)

__all__ = ["CheckResult", "CHECKS", "run_checks", "random_parameter_vectors", "count_interior_extrema"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_parameter_vectors(gen: np.random.Generator, count: int, q_max: int = 6) -> list[ParameterVector]:
    """Random parameter vectors spanning the pmf, mixed, and wild regimes."""
    out = []
    for k in range(count):
        q = int(gen.integers(1, q_max + 1))
        regime = k % 3
        if regime == 0:
            rest = gen.uniform(0.05, 1.0, size=q - 1)
            a1 = max(float(gen.uniform(1.0, 4.0)), q - float(rest.sum()) + 0.01)
            a = [a1, *rest]
        elif regime == 1:
            a = list(gen.uniform(0.3, 1.8, size=q))
        else:
            a = list(np.exp(gen.uniform(math.log(0.02), math.log(6.0), size=q)))
        out.append(validate_params(q, a))
    return out


def count_interior_extrema(values: np.ndarray) -> int:
    """Count sign changes of the first differences, ignoring flat steps."""
    d = np.sign(np.diff(np.asarray(values, dtype=float)))
    d = d[d != 0]
    if d.size < 2:
        return 0
    return int(np.sum(d[1:] != d[:-1]))


_SERIES = ("series_at_zero", "auto")
# (baseline, (q, a), r, methods)
_MOMENT_CASES = [
    (Exponential(1.0), (1, [1.0]), 1.0, _SERIES),
    (Exponential(1.0), (1, [2.0]), 0.5, _SERIES),
    (Exponential(1.0), (2, [1.5, 0.5]), 2.0, _SERIES),
    (Weibull(2.0, 2.0), (2, [1.5, 0.5]), 1.0, _SERIES),
    (LogLogistic(), (2, [1.5, 0.5]), 0.5, _SERIES),
    (LogLogistic(), (3, [2.0, 0.6, 0.7]), -0.5, _SERIES),
    (GeneralizedWeibull(1.0, 1.0, 3.0), (3, [2.0, 0.6, 0.7]), 2.0, ("closed_form", "auto")),
]


def _check_moments(spec: DistributionSpec | None, budget: int, seed: int) -> CheckResult:
    # The fixed cases check the series at zero as well as auto, which
    # integrates most single orders itself, and the generalized Weibull's
    # binomial transform, which auto never takes; the spec's case checks auto
    # alone, since the series need not apply to it.
    worst = 0.0
    cases = list(_MOMENT_CASES)
    if spec is not None:
        cases.append((spec.baseline, (spec.pv.q, list(spec.pv.a)), 0.5, ("auto",)))
    for baseline, (q, a), r, methods in cases:
        pv = validate_params(q, a)
        if not pv.pmf_ok:
            continue
        ed = ExtendedDistribution(baseline, pv)
        quad = integrate_semiinfinite(lambda x: x**r * ed.pdf(x), tol=1e-10)
        for method in methods:
            analytic = moment(baseline, pv, r, method=method)
            rel = abs(analytic.value - quad.value) / max(abs(quad.value), 1e-300)
            allowed = max(1e-6, analytic.error_estimate / max(abs(quad.value), 1e-300))
            if rel > allowed:
                return CheckResult(
                    "moment-quadrature", False,
                    f"{baseline.name} q={q} a={a} r={r} {method}: rel gap {rel:.2e} > {allowed:.2e}",
                )
            worst = max(worst, rel)
    return CheckResult("moment-quadrature", True, f"worst relative gap {worst:.2e}")


def _default_distribution(spec: DistributionSpec | None) -> ExtendedDistribution:
    if spec is not None:
        return ExtendedDistribution(spec.baseline, spec.pv)
    return ExtendedDistribution(Exponential(1.0), validate_params(2, [1.5, 0.5]))


def _check_sampler_ks(spec: DistributionSpec | None, budget: int, seed: int) -> CheckResult:
    ed = _default_distribution(spec)
    if not ed.pv.pmf_ok:
        return CheckResult("sampler-ks", True, "skipped: spec outside the pmf regime")
    n = budget
    sources = RandomSource(seed).spawn(3)
    batches = [
        sample_accept_reject(ed, sources[0], n),
        sample_random_maxima(ed, sources[1], n),
        sample_inverse_cdf(ed, sources[2], n),
    ]
    thr1 = ks_threshold_one_sample(n)
    worst = 0.0
    for b in batches:
        stat = ks_one_sample(b.values, ed.cdf)
        worst = max(worst, stat)
        if stat > thr1:
            return CheckResult("sampler-ks", False, f"{b.sampler}: one-sample KS {stat:.4g} > {thr1:.4g}")
    thr2 = ks_threshold_two_sample(n, n)
    for i in range(3):
        for j in range(i + 1, 3):
            stat = ks_two_sample(batches[i].values, batches[j].values)
            if stat > thr2:
                return CheckResult(
                    "sampler-ks", False,
                    f"{batches[i].sampler} vs {batches[j].sampler}: KS {stat:.4g} > {thr2:.4g}",
                )
    return CheckResult("sampler-ks", True, f"worst one-sample KS {worst:.4g} (threshold {thr1:.4g})")


def _check_acceptance_rate(spec: DistributionSpec | None, budget: int, seed: int) -> CheckResult:
    ed = _default_distribution(spec)
    m_const = envelope_constant(ed.pv)
    batch = sample_accept_reject(ed, RandomSource(seed), budget)
    rate = batch.acceptance_rate
    expected = 1.0 / m_const
    se = math.sqrt(expected * (1.0 - expected) / batch.n_proposed) if expected < 1.0 else 0.0
    ok = abs(rate - expected) <= 3.0 * se + 1e-12
    return CheckResult(
        "acceptance-rate", ok,
        f"observed {rate:.5f} vs expected {expected:.5f} (3 SE = {3 * se:.5f})",
    )


def _check_logistic_convolution(spec: DistributionSpec | None, budget: int, seed: int) -> CheckResult:
    def logistic_cdf(v):
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    n = budget
    thr = ks_threshold_one_sample(n)
    worst = 0.0
    for idx, (a1, a2) in enumerate([(1.5, 0.5), (0.5, 1.5)]):
        pv = validate_params(2, [a1, a2])
        ed = ExtendedDistribution(LogLogistic(), pv)
        src = RandomSource(seed + idx)
        batch = sample_inverse_cdf(ed, src, n)
        transformed = logistic_transform(batch, a1, a2, LogLogistic(), RandomSource(seed + 100 + idx))
        stat = ks_one_sample(transformed, logistic_cdf)
        worst = max(worst, stat)
        if stat > thr:
            return CheckResult(
                "logistic-convolution", False,
                f"ordering a1={a1}, a2={a2}: KS {stat:.4g} > {thr:.4g}",
            )
    return CheckResult("logistic-convolution", True, f"worst KS {worst:.4g} (threshold {thr:.4g})")


_BOUND_CASES = [
    (Exponential(1.0), (1, [1.0]), 1.0),
    (Exponential(1.0), (2, [1.5, 0.5]), 1.0),
    (LogLogistic(), (3, [2.0, 0.6, 0.7]), 0.5),
    (Weibull(2.0, 2.0), (2, [2.0, 0.25]), 2.0),
]


def _bound_sides(pv: ParameterVector, baseline, r: float) -> tuple[float, float]:
    """(E X^r of the extension by the moment quadrature, a_1 E X0^r of the
    baseline by the x-space oracle); in the pmf regime the first never
    exceeds the second (ConditionViolated elsewhere)."""
    _require_pmf(pv, "moment domination bound")
    rhs = pv.a[0] * integrate_semiinfinite(lambda x: x**r * baseline.pdf(x), lo=0.0, tol=1e-10).value
    return moment(baseline, pv, r, method="quadrature").value, rhs


def _check_expectation_bound(spec: DistributionSpec | None, budget: int, seed: int) -> CheckResult:
    worst = -math.inf
    for baseline, (q, a), r in _BOUND_CASES:
        pv = validate_params(q, a)
        lhs, rhs = _bound_sides(pv, baseline, r)
        worst = max(worst, lhs - rhs)
        if lhs > rhs + 1e-9:
            return CheckResult(
                "expectation-bound", False,
                f"{baseline.name} a={a} r={r}: {lhs:.12g} > {rhs:.12g}",
            )
    return CheckResult("expectation-bound", True, f"worst lhs - rhs = {worst:.3e}")


def _check_hazard_extrema(spec: DistributionSpec | None, budget: int, seed: int) -> CheckResult:
    xs = 0.01 + 0.01 * np.arange(600)
    base = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(1, [1.0]))
    rich = ExtendedDistribution(Weibull(2.0, 2.0), validate_params(2, [1e-6, 0.15]))
    n_base = count_interior_extrema(base.hazard(xs))
    n_rich = count_interior_extrema(rich.hazard(xs))
    ok = n_base == 0 and n_rich >= 2
    return CheckResult(
        "hazard-extrema", ok,
        f"baseline extrema {n_base} (want 0), extension extrema {n_rich} (want >= 2)",
    )


def _check_envelope(spec: DistributionSpec | None, budget: int, seed: int) -> CheckResult:
    gen = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 10_001)
    # T' on the grid in two halves, each with its complement formed once, so
    # that glibc reuses the temporaries of one call.  With the whole grid,
    # some process layouts trimmed about 600 KB off the heap and faulted it
    # back in for every vector, which doubled the time of this check.
    halves = [(grid[:5001], 1.0 - grid[:5001]), (grid[5000:], 1.0 - grid[5000:])]
    worst = -math.inf
    for pv in random_parameter_vectors(gen, 1000):
        top = max(float(np.max(_deriv(pv, u, s))) for u, s in halves)
        m_const = envelope_constant(pv)
        worst = max(worst, top - m_const)
        if top > m_const + 1e-12:
            return CheckResult(
                "envelope", False,
                f"a = {pv.a}: grid max {top:.6g} exceeds constant {m_const:.6g}",
            )
    return CheckResult("envelope", True, f"worst (grid max - constant) = {worst:.3e}")


def _check_envelope_canary(spec: DistributionSpec | None, budget: int, seed: int) -> CheckResult:
    ed = _default_distribution(spec)
    m_const = envelope_constant(ed.pv)
    try:
        sample_accept_reject(ed, RandomSource(seed), min(budget, 10_000), envelope=m_const / 2.0)
    except EnvelopeViolation as exc:
        return CheckResult("envelope-canary", True, f"halved constant was detected: {exc}")
    return CheckResult("envelope-canary", False, "halved constant went undetected")


CHECKS: dict[str, Callable[[DistributionSpec | None, int, int], CheckResult]] = {
    "moment-quadrature": _check_moments,
    "sampler-ks": _check_sampler_ks,
    "acceptance-rate": _check_acceptance_rate,
    "logistic-convolution": _check_logistic_convolution,
    "expectation-bound": _check_expectation_bound,
    "hazard-extrema": _check_hazard_extrema,
    "envelope": _check_envelope,
    "envelope-canary": _check_envelope_canary,
}


def run_checks(
    names: Iterable[str] | None = None,
    spec: DistributionSpec | None = None,
    budget: int = 50_000,
    seed: int = 20260810,
) -> list[CheckResult]:
    selected = list(CHECKS) if names is None else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise KeyError(unknown[0])
    return [CHECKS[name](spec, budget, seed) for name in selected]
