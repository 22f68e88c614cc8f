"""Fractional and integer moments of the extended distributions.

Three kinds of evaluation paths, deliberately redundant so that they can
be played against each other:

* power series in the distortion weights (both expansions),
* closed forms and scaling relations per baseline family,
* tanh-sinh quadrature of Q0(u)^r T'(u) over u in [0, 1], Q0 the
  baseline quantile.

The series for the exponential baseline contains an inner alternating
binomial sum that loses digits catastrophically once indices reach the
several dozens; its conditioning is tracked term by term, and the
computation abandons the branch (or raises, if the caller pinned it)
rather than returning quietly wrong numbers.  The x-space GK15 rule of
:mod:`moq.oracle` stays outside these paths, as the check they are
verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .baselines import Baseline, Exponential, GeneralizedWeibull, LogLogistic, Weibull
from .errors import ConditionViolated, DomainError, Nonconvergence, ToleranceNotMet
from .extended import ExtendedDistribution
from .family import ParameterVector, _deriv, _geometric_walk, _SeriesStream
from .oracle import integrate_semiinfinite, log_gamma

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
# auto sums a series at zero only where its weights promise to reach tol
# within this many terms: the exponential's inner alternating sums lose
# every series past an index of about 50 to cancellation, and quadrature
# beats a longer series anyway.
_SHORT_SERIES = 50
# The tanh-sinh rule's nodes lie on |t| <= _DE_SPAN, where u and 1 - u stay
# above 1e-275; its step starts at 1/2 and halves _DE_MIN_LEVEL to
# _DE_MAX_LEVEL times.
_DE_SPAN = 6
_DE_MIN_LEVEL, _DE_MAX_LEVEL = 3, 8
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


def _moment_series(pv: ParameterVector, kind: str, term, tol: float, max_terms: int) -> MomentResult:
    """Sum the moment series over the weights about u = 0 (``kind``
    "at_zero") or u = 1 ("at_one"), m = 1, 2, ...

    ``term`` maps arrays of m and w_m to factors f_m, bounds on their
    rounding per unit of weight envelope, and None or the Nonconvergence of
    the last index, past which it stops, raised unless the series stops
    first.  The series is sum f_m w_m about zero and sum (-1)^(m-1) f_m w_m
    about one.  The weight-envelope ratio and the (m+1)/m growth of the m
    factor bound the rest, from the largest |f_m| times the envelope of the
    last q + 1 indices; each family's other factors shrink with m.  The
    reported error is that bound plus the summed roundings of the terms,
    the weights' own (see _SeriesStream.rounding) included.
    """
    stream = _SeriesStream(pv, kind)

    def block_term(m, w, env):
        f, rounding, failure = term(m, w)
        n = f.size
        t = f * w[:n]
        if kind == "at_one":
            t[m[:n] % 2 == 0] *= -1.0
        mag = np.abs(f) * env[:n]
        return mag, (t, mag, rounding * env[:n]), failure

    walked = _geometric_walk(stream, block_term, tol, max_terms, 1, pv.q + 1, growth=True)
    if walked is None:
        raise Nonconvergence(f"moment series ({kind.replace('_', ' ')}) exceeded {max_terms} terms")
    (t, mag, rounding), tail = walked
    rounding = rounding.sum() + (mag * stream.rounding(np.arange(1.0, t.size + 1))).sum()
    return MomentResult(float(t.cumsum()[-1]), f"series_{kind}", t.size, tail + float(rounding))


def _short_series(pv: ParameterVector, tol: float) -> bool:
    """Whether the series at zero promises to stop within _SHORT_SERIES
    terms: whether the tail of its envelope past index m, about
    C(m+q-1, q-1) ratio^m (m+1) / (1 - ratio) with ratio = (S - q) / S,
    is below ``tol`` at m = _SHORT_SERIES - q; the window of q + 1
    magnitudes that the stop tests adds the other q.  The log of that tail
    is concave in m, so if it is below tol anywhere on 1..m, it is at m:
    at m = 1 it can be only for ratios so small that it keeps falling."""
    q, ratio = pv.q, (pv.sum_a - pv.q) / pv.sum_a
    if ratio <= 0.0:
        return True
    m = _SHORT_SERIES - q
    return m > 0 and math.comb(m + q - 1, q - 1) * ratio**m * (m + 1) / (1.0 - ratio) <= tol


def _m_beta(m: np.ndarray, p, q):
    """m * Beta(p, q) elementwise, the log-logistic series factors, with a
    bound on its rounding and no failure; see _moment_series.  The exponent
    sums three log-gammas, each within a few ulps of itself."""
    lp, lq, lpq = log_gamma(p), log_gamma(q), log_gamma(p + q)
    f = m * np.exp(lp + lq - lpq)
    return f, _EPS * (4.0 * (np.abs(lp) + np.abs(lq) + np.abs(lpq)) + 5.0) * f, None


def _check_query(method: str, tol: float, methods: tuple[str, ...]) -> None:
    if method not in methods:
        raise DomainError(f"unknown method {method!r} (choose from {', '.join(methods)})")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def _series_or_quadrature(baseline, pv, r, tol, method, max_terms, at_zero, at_one) -> MomentResult:
    """Route a unit-baseline moment to a pinned path, or for ``auto`` to the
    series at zero where it is short (_short_series) and else to quadrature;
    ``at_zero`` and ``at_one`` are the series' term functions."""
    if method == "quadrature" or (method == "auto" and not _short_series(pv, tol)):
        return _moment_quadrature(baseline, pv, r, tol)
    if method == "series_at_one":
        return _moment_series(pv, "at_one", at_one, tol, max_terms)
    try:
        return _moment_series(pv, "at_zero", at_zero, tol, max_terms)
    except Nonconvergence:
        if method != "auto":
            raise
    return _moment_quadrature(baseline, pv, r, tol)


def moment_exponential(
    pv: ParameterVector,
    r: float,
    tol: float = 1e-10,
    method: str = "auto",
    max_terms: int = _DEFAULT_MAX_TERMS,
) -> MomentResult:
    """E(X^r) for the extended unit exponential, r > 0.

    ``method`` is one of ``auto``, ``series_at_zero``, ``series_at_one``,
    ``quadrature``.  ``auto`` sums the series at zero where its weights
    promise to reach ``tol`` within 50 terms, and integrates everywhere
    else, and where the series' inner alternating sums become too
    ill-conditioned to trust: past an index of about 50 they always do.
    A series' error estimate bounds its tail and rounding against ``tol``;
    the quadrature's covers the discretization, the truncated ends and
    the rounding, and meets ``tol`` relative to the value or raises.
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
        m = m[: inner.size]
        return pref * m * inner, pref * m * abssum * _EPS, failure

    def at_one(m: np.ndarray, w: np.ndarray):
        f = pref * m ** (-r)
        return f, 4.0 * _EPS * f, None

    return _series_or_quadrature(Exponential(1.0), pv, r, tol, method, max_terms, at_zero, at_one)


def moment_loglogistic(
    pv: ParameterVector,
    r: float,
    tol: float = 1e-10,
    method: str = "auto",
    max_terms: int = _DEFAULT_MAX_TERMS,
) -> MomentResult:
    """E(X^r) for the extended standard log-logistic, |r| < 1.

    The series at zero has non-negative terms in the pmf regime, so unlike
    the exponential case it never cancels; the one at one alternates.
    ``auto`` sums the series at zero where its weights promise to reach
    ``tol`` within 50 terms, and integrates everywhere else, or where the
    series still runs past ``max_terms``.  Error estimates as for
    :func:`moment_exponential`.
    """
    _check_query(method, tol, _METHODS[:4])
    _require_pmf(pv, "log-logistic-baseline moment series")
    if not (math.isfinite(r) and abs(r) < 1.0):
        raise DomainError(f"log-logistic moment series requires |r| < 1, got r = {r!r}")
    if r == 0.0:
        return MomentResult(1.0, "closed_form", 1, 0.0)

    return _series_or_quadrature(
        LogLogistic(), pv, r, tol, method, max_terms,
        lambda m, w: _m_beta(m, 1.0 - r, m + r), lambda m, w: _m_beta(m, m - r, 1.0 + r),
    )


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
    inner_tol = tol / max(scale**r, 1.0)  # a series stops on absolute error, the quadrature on relative
    if method == "auto" and _short_series(pv, inner_tol):
        try:
            return _scaled(moment_exponential(pv, r / shape, tol=inner_tol, method="series_at_zero"), scale**r)
        except Nonconvergence:
            pass
    if method in ("auto", "quadrature"):
        method, inner_tol = "quadrature", tol
    return _scaled(moment_exponential(pv, r / shape, tol=inner_tol, method=method), scale**r)


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


@lru_cache(maxsize=None)
def _de_level(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The nodes that level ``level`` of the tanh-sinh rule adds, step
    2^-(level + 1): all of |t| <= _DE_SPAN at level 0, the odd multiples
    after that.  Returns u = 1 / (1 + exp(-pi sinh t)) and s = 1 - u, each
    from its own formula so that the smaller one keeps its digits, the
    weights du/dt = pi cosh(t) u s, and the number of nodes with t <= 0.
    """
    h = 0.5 ** (level + 1)
    n = round(_DE_SPAN / h)
    t = h * (np.arange(-n, n + 1.0) if level == 0 else np.arange(1.0 - n, n, 2))
    x = np.pi * np.sinh(t)
    u, s = 1.0 / (1.0 + np.exp(-x)), 1.0 / (1.0 + np.exp(x))
    out = u, s, np.pi * np.cosh(t) * u * s
    for arr in out:
        arr.flags.writeable = False
    return (*out, int(np.count_nonzero(t <= 0.0)))


def _de_terms(baseline: Baseline, pv: ParameterVector, r: float, level: int):
    """Q0(u)^r T'(u) du/dt at the new nodes of ``level`` (see _de_level),
    and where they are known: not where the power of the abscissa
    overflows, which happens only on an outer run of nodes on either side.
    The abscissa is the baseline quantile of u where u <= 1/2 and its isf
    of s above that.  Unknown terms are 0.
    """
    u, s, weight, k = _de_level(level)
    power = np.concatenate((baseline.quantile(u[:k]), baseline.isf(s[k:]))) ** r
    known = ~np.isinf(power)
    return np.where(known, power * weight * _deriv(pv, u, s), 0.0), known


def _interleave(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The values of the nodes old[0], new[0], old[1], ..., old[-1]."""
    out = np.empty(old.size + new.size, dtype=old.dtype)
    out[0::2], out[1::2] = old, new
    return out


def _edge_tail(g: np.ndarray, known: np.ndarray, h: float) -> float:
    """The rule's terms beyond its outermost known node on each side,
    extended geometrically from the ratio of that term to its neighbour's:
    the terms there shrink double-exponentially, so the ratio only falls."""
    idx = np.flatnonzero(known)
    if idx.size < 2:
        return math.inf
    tail = 0.0
    for outer, inner in ((g[idx[0]], g[idx[0] + 1]), (g[idx[-1]], g[idx[-1] - 1])):
        ratio = abs(outer / inner) if outer else 0.0
        tail += h * abs(outer) * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return tail


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _moment_quadrature(baseline: Baseline, pv: ParameterVector, r: float, tol: float) -> MomentResult:
    """E(X^r) = int_0^1 Q0(u)^r T'(u) du by the tanh-sinh rule (Takahasi &
    Mori, 1974), Q0 the baseline quantile; see _de_terms for the nodes.

    The step starts at 1/2 on |t| <= _DE_SPAN and halves, one numpy call
    per level over its new nodes, at least _DE_MIN_LEVEL times, until the
    error estimate is at most ``tol`` times the value (a relative stop).
    The estimate is the difference between the two levels before the last,
    which the rule's quadratic convergence makes far larger than the last
    level's error, plus the terms beyond the outermost known nodes
    (_edge_tail), plus 16 (q + |r| + 4) eps times the sum for rounding.
    Where it stays above, as where a moment barely exists, the rule raises
    ToleranceNotMet, at once where the last two parts alone exceed it:
    they do not shrink with the step.  ``terms_used`` is the number of
    nodes evaluated.
    """
    h = 0.5
    g, known = _de_terms(baseline, pv, r, 0)
    sums = [h * g.sum()]
    for level in range(1, _DE_MAX_LEVEL + 1):
        h /= 2
        new, new_known = _de_terms(baseline, pv, r, level)
        g, known = _interleave(g, new), _interleave(known, new_known)
        sums.append(sums[-1] / 2 + h * new.sum())
        if level >= _DE_MIN_LEVEL:
            value = sums[-1]
            floor = _edge_tail(g, known, h) + 16 * (pv.q + abs(r) + 4) * _EPS * h * np.abs(g).sum()
            estimate = abs(sums[-2] - sums[-3]) + floor
            if estimate <= tol * abs(value):
                return MomentResult(float(value), "quadrature", g.size, float(estimate))
            if not floor <= tol * abs(value):
                break
    raise ToleranceNotMet(
        f"quadrature error estimate {estimate:.3e} above tol {tol:.3e} times the value {value:.6e} "
        f"after {g.size} evaluations"
    )


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


_FAMILIES = (Exponential, Weibull, GeneralizedWeibull, LogLogistic)


def _check_exists(baseline: Baseline, r: float) -> None:
    """Raise DomainError where E(X^r) of the baseline, so of its extension, is infinite."""
    shape = getattr(baseline, "shape", 1.0)
    two_sided = isinstance(baseline, LogLogistic)
    if not (math.isfinite(r) and -shape < r and (r < shape or not two_sided)):
        need = f"|r| < shape = {shape}" if two_sided else f"r > -shape = {-shape}"
        raise DomainError(f"{baseline.name} moments need {need}, got r = {r!r}")


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
    Existence is checked before any path: T' is bounded and positive on
    [0, 1], so E(X^r) is finite exactly where the baseline's moment is,
    r > -shape for the exponential (shape 1), Weibull and generalized
    Weibull, |r| < shape for the log-logistic; elsewhere DomainError.

    ``auto`` takes the closed form where one exists (the two-parameter
    log-logistic, and the binomial transform for generalized Weibull at
    integer r).  Otherwise, in the pmf regime, it sums the series at zero
    through the family's scaling relation where that series is short (see
    moment_exponential), and everywhere else it integrates: tanh-sinh
    quadrature in u, whose error estimate covers the discretization, the
    truncated ends and the rounding, and meets ``tol`` relative to the
    value or raises ToleranceNotMet.  ``scaling`` is ``auto`` without the
    closed form; ``series_at_*`` pin the expansion.
    """
    _check_query(method, tol, _METHODS)
    if isinstance(baseline, _FAMILIES):
        _check_exists(baseline, r)
    quadrature = method == "quadrature" or (method == "auto" and not pv.pmf_ok)
    series_method = method if method in ("series_at_zero", "series_at_one") else "auto"
    if isinstance(baseline, LogLogistic):
        if method == "closed_form" or (method == "auto" and pv.q == 2):
            if pv.q != 2:
                raise ConditionViolated(f"closed form needs q = 2, got q = {pv.q}")
            val = moment_q2_loglogistic_closed(pv.a[0], pv.a[1], baseline.scale, baseline.shape, r)
            return MomentResult(val, "closed_form", 1, 4.0 * _EPS * abs(val))
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
        r_int = round(r)
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
