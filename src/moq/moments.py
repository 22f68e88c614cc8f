"""Fractional and integer moments of the extended distributions.

Three kinds of evaluation paths, deliberately redundant so that they can
be played against each other:

* power series in the distortion weights (both expansions),
* closed forms and scaling relations per baseline family,
* adaptive quadrature of x^r times the density (:mod:`moq.oracle`).

The series for the exponential baseline contains an inner alternating
binomial sum that loses digits catastrophically once indices reach the
several dozens; its conditioning is tracked term by term, and the
computation abandons the branch (or raises, if the caller pinned it)
rather than returning quietly wrong numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import Baseline, Exponential, GeneralizedWeibull, LogLogistic, Weibull
from .errors import ConditionViolated, DomainError, Nonconvergence
from .extended import ExtendedDistribution
from .family import ParameterVector, _geometric_walk, _SeriesStream
from .oracle import beta_fn, integrate_semiinfinite, log_gamma

__all__ = [
    "MomentResult",
    "moment_exponential",
    "moment_loglogistic",
    "moment_q2_loglogistic_closed",
    "moment_weibull_scaled",
    "moment_generalized_weibull",
    "moment_bound_check",
    "moment",
]

_EPS = 2.220446049250313e-16
_CANCEL_LIMIT = 1e12
_DEFAULT_MAX_TERMS = 200_000
# moment_exponential and moment_loglogistic take the first four
_METHODS = ("auto", "series_at_zero", "series_at_one", "quadrature", "closed_form", "scaling")


@dataclass(frozen=True)
class MomentResult:
    """A moment value with provenance and an error estimate."""

    value: float
    method_used: str
    terms_used: int
    error_estimate: float


def _require_pmf(pv: ParameterVector, what: str):
    if not pv.pmf_ok:
        raise ConditionViolated(
            f"{what} requires sum(a) >= q and a_i <= 1 for i >= 2; got a = {pv.a}"
        )


def _alternating_binomial_inner(m: int, r: float) -> tuple[float, float]:
    """sum_{j=0}^{m-1} C(m-1, j) (-1)^j (j+1)^(-r-1), compensated.

    Returns (value, sum of absolute terms).  The second output is the
    cancellation mass: value / eps over it bounds the attainable relative
    accuracy.
    """
    total = comp = abssum = 0.0
    binom, power, sign = 1.0, -r - 1.0, 1.0
    for j in range(m):
        jp1 = j + 1.0
        term = binom * jp1**power  # >= 0
        abssum += term
        y = sign * term - comp
        sign = -sign
        t = total + y
        comp = (t - total) - y
        total = t
        binom *= (m - 1 - j) / jp1
    return total, abssum


def _series_at_zero(pv: ParameterVector, term, tol: float, max_terms: int) -> MomentResult:
    """Sum term(m, w_m) over the weights about u = 0, m = 1, 2, ...

    ``term`` maps arrays of m and w_m to the terms, a bound on the rounding
    of each, and None or the Nonconvergence of its last index, past which
    it stops, raised unless the series stops first.  The weight-envelope
    ratio and the (m+1)/m growth of the m factor bound the rest, from the
    largest of the last q + 1 terms; each family's other factors shrink
    with m.  The reported error is that bound plus the summed roundings.
    """

    def block_term(m, w, env):
        t, rounding, failure = term(m, w)
        return np.abs(t), (t, rounding), failure

    walked = _geometric_walk(_SeriesStream(pv, "at_zero"), block_term, tol, max_terms, 1, pv.q + 1, growth=True)
    if walked is None:
        raise Nonconvergence(f"moment series (at zero) exceeded {max_terms} terms")
    (t, rounding), tail = walked
    return MomentResult(float(t.cumsum()[-1]), "series_at_zero", t.size, tail + float(rounding.cumsum()[-1]))


def _series_at_one(pv: ParameterVector, term, tol: float, max_terms: int) -> MomentResult:
    """Alternating sum of term(m, w_m) over the weights about u = 1.

    ``term`` maps arrays of m and w_m to the terms.  Stops at the first
    term beyond index q + 2 that is no larger than its predecessor and
    below ``tol``; its magnitude is the error estimate.
    """
    stream = _SeriesStream(pv, "at_one")
    q, parts, prev = pv.q, [], math.inf
    m0, m1 = 1, stream.next_end(q + 3, q + 3, 1.0, tol, stream.envelope_ratio(q + 2), max_terms)
    while m0 < m1:
        m = np.arange(m0, m1, dtype=float)
        t = term(m, stream.block(m0, m1)[0])
        mag = np.abs(t)
        parts.append(np.where(m % 2 == 0, -t, t))
        stop = (m > q + 2) & (mag <= np.append(prev, mag[:-1])) & (mag < tol)
        i = int(stop.argmax())
        if stop[i]:
            total = np.concatenate(parts)[: m0 + i].cumsum()[-1]
            return MomentResult(float(total), "series_at_one", m0 + i, float(mag[i]))
        prev = mag[-1]
        rho = stream.envelope_ratio(m1 - 1) if m1 > q + 1 else math.inf
        m0, m1 = m1, stream.next_end(m0, m1, prev, tol, rho, max_terms)
    raise Nonconvergence(f"moment series (at one) exceeded {max_terms} terms")


def _check_query(method: str, tol: float, methods: tuple[str, ...]) -> None:
    if method not in methods:
        raise DomainError(f"unknown method {method!r} (choose from {', '.join(methods)})")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def moment_exponential(
    pv: ParameterVector,
    r: float,
    tol: float = 1e-10,
    method: str = "auto",
    max_terms: int = _DEFAULT_MAX_TERMS,
) -> MomentResult:
    """E(X^r) for the extended unit exponential, r > 0.

    ``method`` is one of ``auto``, ``series_at_zero``, ``series_at_one``,
    ``quadrature``.  ``auto`` starts from the series with the smaller
    geometric ratio (always the one at zero) and falls back, first to the
    alternating series at one and then to quadrature, if the inner sums
    become too ill-conditioned to trust.
    """
    _check_query(method, tol, _METHODS[:4])
    _require_pmf(pv, "exponential-baseline moment series")
    if r == 0.0:
        return MomentResult(1.0, "closed_form", 1, 0.0)
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"moment order must satisfy r > 0, got {r!r}")
    pref = math.exp(math.log(r) + log_gamma(r))  # r * Gamma(r)

    def at_zero(m: np.ndarray, w: np.ndarray):
        sums, failure = [], None
        for mi, wi in zip(map(int, m.tolist()), w.tolist()):
            inner, abssum = _alternating_binomial_inner(mi, r)
            sums.append((inner, abssum))
            if abs(inner) > 0 and abssum / abs(inner) > _CANCEL_LIMIT and abs(pref * mi * wi * inner) > tol * 1e-3:
                failure = Nonconvergence(
                    f"inner alternating sum ill-conditioned at index {mi} "
                    f"(cancellation ratio {abssum / abs(inner):.2e})"
                )
                break
        inner, abssum = np.array(sums).T
        m, w = m[: inner.size], w[: inner.size]
        return pref * m * w * inner, pref * m * np.abs(w) * abssum * _EPS, failure

    if method in ("auto", "series_at_zero"):
        try:
            return _series_at_zero(pv, at_zero, tol, max_terms)
        except Nonconvergence:
            if method != "auto":
                raise
    if method == "series_at_one" or (method == "auto" and pv.series_at_one_ok):
        try:
            return _series_at_one(pv, lambda m, w: pref * w * m ** (-r), tol, max_terms)
        except Nonconvergence:
            if method != "auto":
                raise
    return _moment_quadrature(Exponential(1.0), pv, r, tol)


def moment_loglogistic(
    pv: ParameterVector,
    r: float,
    tol: float = 1e-10,
    method: str = "auto",
    max_terms: int = _DEFAULT_MAX_TERMS,
) -> MomentResult:
    """E(X^r) for the extended standard log-logistic, |r| < 1.

    The series at zero has non-negative terms in the pmf regime, so unlike
    the exponential case it never cancels; the one at one alternates with
    an immediate next-term error bound.  ``auto`` sums the series at zero
    and integrates if it does not converge within ``max_terms``.
    """
    _check_query(method, tol, _METHODS[:4])
    _require_pmf(pv, "log-logistic-baseline moment series")
    if not (math.isfinite(r) and abs(r) < 1.0):
        raise DomainError(f"log-logistic moment series requires |r| < 1, got r = {r!r}")
    if r == 0.0:
        return MomentResult(1.0, "closed_form", 1, 0.0)
    if method == "quadrature":
        return _moment_quadrature(LogLogistic(), pv, r, tol)
    if method == "series_at_one":
        return _series_at_one(pv, lambda m, w: m * w * beta_fn(m - r, 1.0 + r), tol, max_terms)
    # auto: the series at zero has the smaller ratio and non-negative terms
    try:
        return _series_at_zero(
            pv, lambda m, w: (m * w * beta_fn(1.0 - r, m + r), np.zeros(m.size), None), tol, max_terms
        )
    except Nonconvergence:
        if method != "auto":
            raise
    return _moment_quadrature(LogLogistic(), pv, r, tol)


def moment_q2_loglogistic_closed(a1: float, a2: float, b1: float, b2: float, r: float) -> float:
    """Closed-form E(X^r) for the two-parameter extension of LogLogistic(b1, b2).

    Valid for any strictly positive (a1, a2) and |r| < b2; at r = 0 the
    analytic limit is 1.
    """
    for name, v in (("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2)):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"{name} must be strictly positive, got {v!r}")
    if not (math.isfinite(r) and abs(r) < b2):
        raise DomainError(f"closed form requires |r| < b2 = {b2}, got r = {r!r}")
    if r == 0.0:
        return 1.0
    s = r / b2
    return (
        b1**r
        * ((a1 + a2) / 2.0) ** s
        * (r * math.pi / (b2 * math.sin(math.pi * s)))
        * (s * (a1 - a2) / (a1 + a2) + 1.0)
    )


def moment_weibull_scaled(
    pv: ParameterVector,
    scale: float,
    shape: float,
    r: float,
    tol: float = 1e-10,
    method: str = "auto",
) -> MomentResult:
    """E(X^r) for the extended Weibull(scale, shape), via the power-scaling
    relation to the extended unit exponential at order r/shape."""
    if not (math.isfinite(scale) and scale > 0 and math.isfinite(shape) and shape > 0):
        raise DomainError("scale and shape must be strictly positive")
    inner = moment_exponential(pv, r / shape, tol=tol / max(scale**r, 1.0), method=method)
    return _scaled(inner, scale**r)


def _scaled(inner: MomentResult, factor: float) -> MomentResult:
    """Carry a moment of the unit-scale variable over to scale**r times it."""
    value, err = factor * inner.value, factor * inner.error_estimate
    return MomentResult(value, f"scaling({inner.method_used})", inner.terms_used, err)


def moment_generalized_weibull(
    pv: ParameterVector,
    scale: float,
    shape: float,
    shape2: float,
    m: int,
    tol: float = 1e-10,
) -> MomentResult:
    """Integer moment E(X^m) for the extended GeneralizedWeibull(scale, shape, shape2).

    Needs 1/shape and shape2 to be positive integers; the variable is then
    a polynomial transform of the extended unit exponential and the moment
    reduces to a double binomial combination of its integer moments.  The
    inner exponent is the plain binomial-expansion index, and the result is
    only trusted against quadrature (see the test suite).
    """
    _require_pmf(pv, "generalized-Weibull moment formula")
    if not (isinstance(m, (int,)) and m >= 1):
        raise DomainError(f"moment order must be a positive integer, got {m!r}")
    inv_shape = 1.0 / shape
    if abs(inv_shape - round(inv_shape)) > 1e-9 or round(inv_shape) < 1:
        raise DomainError(f"1/shape must be a positive integer, got 1/{shape}")
    if abs(shape2 - round(shape2)) > 1e-9 or round(shape2) < 1:
        raise DomainError(f"shape2 must be a positive integer, got {shape2!r}")
    m2 = int(round(inv_shape))
    b3 = int(round(shape2))

    # moment_exponential returns exactly 1 at order 0
    exp_moments = [moment_exponential(pv, float(j), tol=tol * 1e-3) for j in range(b3 * m * m2 + 1)]
    total = 0.0
    err = 0.0
    terms = 0
    for k in range(m * m2 + 1):
        sign = -1.0 if (m * m2 - k) % 2 else 1.0
        outer = math.comb(m * m2, k)
        for j in range(b3 * k + 1):
            c = sign * outer * math.comb(b3 * k, j)
            mom = exp_moments[j]
            total += c * mom.value
            err += abs(c) * (mom.error_estimate + _EPS * abs(mom.value))
            terms = max(terms, mom.terms_used)
    factor = scale**m
    return MomentResult(factor * total, "binomial_transform", terms, factor * err)


def _moment_quadrature(baseline: Baseline, pv: ParameterVector, r: float, tol: float) -> MomentResult:
    ed = ExtendedDistribution(baseline, pv)
    res = integrate_semiinfinite(lambda x: x**r * ed.pdf(x), lo=0.0, tol=tol)
    return MomentResult(res.value, "quadrature", res.evaluations, res.error_estimate)


def moment_bound_check(
    pv: ParameterVector,
    baseline: Baseline,
    r: float,
    n_mc: int = 0,
    tol: float = 1e-10,
    seed: int = 0,
) -> tuple[float, float]:
    """Return (E|X|^r for the extension, a_1 * E|X0|^r for the baseline).

    In the pmf regime the first never exceeds the second.  With
    ``n_mc == 0`` both sides come from quadrature; with ``n_mc > 0`` the
    left side is a Monte-Carlo estimate from ``n_mc`` inverse-CDF draws.
    """
    _require_pmf(pv, "moment domination bound")
    rhs = pv.a[0] * integrate_semiinfinite(lambda x: x**r * baseline.pdf(x), lo=0.0, tol=tol).value
    if n_mc > 0:
        from .sampling import RandomSource, sample_inverse_cdf

        batch = sample_inverse_cdf(ExtendedDistribution(baseline, pv), RandomSource(seed), n_mc)
        lhs = float((batch.values**r).mean())
    else:
        lhs = _moment_quadrature(baseline, pv, r, tol).value
    return lhs, rhs


def moment(
    baseline: Baseline,
    pv: ParameterVector,
    r: float,
    method: str = "auto",
    tol: float = 1e-10,
) -> MomentResult:
    """Front door used by the CLI: route a moment query to the right path.

    ``method`` is one of ``auto``, ``closed_form``, ``series_at_zero``,
    ``series_at_one``, ``scaling``, ``quadrature``; anything else, and a
    ``tol`` that is not positive and finite, raise :class:`DomainError`.
    The family's domain checks run before any path: log-logistic moments
    need |r| < shape.

    ``auto`` takes the closed form where one exists (the two-parameter
    log-logistic, and the binomial transform for generalized Weibull at
    integer r), then, in the pmf regime, the series through the family's
    scaling relation, and otherwise quadrature.  ``scaling`` is the series
    route without the closed form; ``series_at_*`` pin the expansion.
    """
    _check_query(method, tol, _METHODS)
    quadrature = method == "quadrature" or (method == "auto" and not pv.pmf_ok)
    series_method = method if method in ("series_at_zero", "series_at_one") else "auto"
    if isinstance(baseline, LogLogistic):
        closed_ok = pv.q == 2 and abs(r) < baseline.shape
        if method == "closed_form" or (method == "auto" and closed_ok):
            if not closed_ok:
                raise ConditionViolated(
                    f"closed form needs q = 2 and |r| < shape = {baseline.shape}; "
                    f"got q = {pv.q}, r = {r}"
                )
            val = moment_q2_loglogistic_closed(pv.a[0], pv.a[1], baseline.scale, baseline.shape, r)
            return MomentResult(val, "closed_form", 1, 4.0 * _EPS * abs(val))
        if not abs(r) < baseline.shape:
            raise DomainError(f"log-logistic moments need |r| < shape = {baseline.shape}")
        if not quadrature:
            inner = moment_loglogistic(pv, r / baseline.shape, tol=tol, method=series_method)
            return _scaled(inner, baseline.scale**r)
    elif isinstance(baseline, (Exponential, Weibull)):
        if method == "closed_form":
            raise DomainError(f"no closed form for {baseline.name} moments")
        if not quadrature:
            shape = baseline.shape if isinstance(baseline, Weibull) else 1.0
            return moment_weibull_scaled(pv, baseline.scale, shape, r, tol=tol, method=series_method)
    elif isinstance(baseline, GeneralizedWeibull):
        r_int = round(r) if math.isfinite(r) else 0
        integer = abs(r - r_int) < 1e-12 and r_int >= 1
        if method not in ("auto", "quadrature") and not (method == "closed_form" and integer):
            raise DomainError(f"method {method!r} unavailable for {baseline.name} at r = {r}")
        if integer and not quadrature:
            try:
                return moment_generalized_weibull(
                    pv, baseline.scale, baseline.shape, baseline.shape2, r_int, tol=tol
                )
            except DomainError:
                if method == "closed_form":
                    raise
    elif method != "quadrature":
        raise DomainError(f"unsupported baseline {baseline!r}")
    return _moment_quadrature(baseline, pv, r, tol)
