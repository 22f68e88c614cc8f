"""Fractional and integer moments of the extended distributions.

Three kinds of evaluation paths, deliberately redundant so that they can
be played against each other:

* power series in the distortion weights (both expansions),
* closed forms and scaling relations per baseline family,
* tanh-sinh quadrature of Q0(u)^r T'(u) over u in [0, 1], Q0 the
  baseline quantile.

The exponential, Weibull and log-logistic always take the power-scaling
relation X = scale X1^(1/shape), X1 the unit baseline; the quadrature of
the baseline itself serves only the others.  The generalized Weibull's
binomial transform answers only a pinned ``closed_form``; ``auto``
integrates that baseline.  Each series sums one order.

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
from .family import ParameterVector, _deriv, _geometric_walk, _series_stream
from .oracle import integrate_semiinfinite

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
_ETA = 2.0**-1074  # the spacing of the subnormals: a rounding below the normal range errs by at most this
_CANCEL_LIMIT = 1e12
_DEFAULT_MAX_TERMS = 200_000
# the inner alternating sums of a block are formed at most this many terms at a time
_INNER_CELLS = 1 << 16
# auto sums a series at zero only where its weights promise to reach tol
# within this many terms: the exponential's inner alternating sums lose
# every series past an index of about 50 to cancellation.  It is taken only
# where the quadrature misses tol.
_SHORT_SERIES = 50
# The tanh-sinh rule's nodes lie on |t| <= _DE_SPAN, where u and 1 - u stay
# above 1e-275; its step starts at 1/2 and halves _DE_MIN_LEVEL to
# _DE_MAX_LEVEL times.
_DE_SPAN = 6
_DE_MIN_LEVEL, _DE_MAX_LEVEL = 3, 8
# moment_exponential and moment_loglogistic take the first four
_METHODS = ("auto", "series_at_zero", "series_at_one", "quadrature", "closed_form")


@dataclass(frozen=True)
class MomentResult:
    """A moment value with provenance and an error estimate."""

    value: float
    method_used: str
    terms_used: int
    error_estimate: float


_ORDER_ZERO = MomentResult(1.0, "closed_form", 1, 0.0)
_UNITS = {Exponential: Exponential(), LogLogistic: LogLogistic()}  # the unit baselines of the scaling relation


def _require_pmf(pv: ParameterVector, what: str):
    if not pv.pmf_ok:
        raise ConditionViolated(f"{what} requires sum(a) >= q and a_i <= 1 for i >= 2; got a = {pv.a}")


def _alternating_binomial_inner(m: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """sum_{j=0}^{m-1} C(m-1, j) (-1)^j (j+1)^(-r-1) for every index m at
    once, each sum compensated: math.fsum rounds it exactly.  Where the
    absolute terms add up to more than 1e300 the value is NaN.

    Returns (values, sums of absolute terms).  The second output is the
    cancellation mass: value / eps over it bounds the attainable relative
    accuracy.  Each float term errs by at most (j + 2) eps of itself:
    C(m-1, j) is a product of j rounded ratios, the power is within an ulp,
    and one product joins them.
    """
    j = np.arange(m[-1])
    ratios = m[:, None] - j
    ratios[:, 1:] /= j[1:]
    ratios[:, 0] = 1.0
    binom = ratios.cumprod(axis=1)  # C(m-1, j) = prod_{i=1}^{j} (m - i) / i, zero from j = m
    terms = binom * (j + 1.0) ** (-1.0 - r)
    abssum = terms.sum(axis=1)
    terms[:, 1::2] *= -1.0
    inner = [math.fsum(row) if mass <= 1e300 else math.nan for mass, row in zip(abssum.tolist(), terms.tolist())]
    return np.array(inner), abssum


def _failed(mag: np.ndarray, t: np.ndarray, cond: np.ndarray, tol: float) -> np.ndarray:
    """The series terms that fail their order: a magnitude ``mag`` that is
    not finite, or a term t above tol / 1000 whose factor has a
    cancellation ratio ``cond`` above _CANCEL_LIMIT, too large to carry its
    lost digits."""
    return ~np.isfinite(mag) | ((cond > _CANCEL_LIMIT) & (np.abs(t) > tol * 1e-3))


def _moment_series(pv: ParameterVector, kind: str, term, tol: float, max_terms: int) -> MomentResult:
    """Sum a moment series over the weights about u = 0 (``kind``
    "at_zero") or u = 1 ("at_one"), m = 1, 2, ...

    ``term`` maps arrays of m, w_m and their envelopes to factors f_m,
    bounds on their rounding per unit of weight envelope, and the
    cancellation ratio of each factor, 1 where nothing cancels; it is
    called once per block, in order.  The series is sum f_m w_m about zero
    and sum (-1)^(m-1) f_m w_m about one.  It ends where _geometric_walk
    closes it, and fails at its first term that is _failed, unless it ends
    before that term.  The weight-envelope ratio and the (m+1)/m growth of
    the m factor bound the rest of the series, from the largest |f_m| times
    the envelope of the last q + 1 indices; each family's other factors
    shrink with m.  The reported error is that bound plus the summed
    roundings of the terms, the weights' own (see _SeriesStream.rounding)
    included.  Raises Nonconvergence where the series fails, its reason
    read at the index where it ends.
    """
    stream = _series_stream(pv, kind)

    def block_term(m, w, env):
        f, rounding, cond = term(m, w, env)
        t = f * w
        if kind == "at_one":
            t[int(m[0]) % 2::2] *= -1.0  # the even m
        mag = np.abs(f) * env
        return mag, (t, mag, rounding * env, cond), _failed(mag, t, cond, tol)

    name = f"moment series ({kind.replace('_', ' ')})"
    walked = _geometric_walk(stream, block_term, tol, max_terms, 1, pv.q + 1, growth=True)
    if walked is None:
        raise Nonconvergence(f"{name} exceeded {max_terms} terms")
    (t, mag, rounding, cond), n, tail, failed = walked
    if failed and math.isfinite(mag[-1]):
        raise Nonconvergence(f"inner alternating sum ill-conditioned at index {n} (cancellation ratio {cond[-1]:.2e})")
    if failed:
        raise Nonconvergence(f"{name} term at index {n} is not finite")
    weights = mag * stream.rounding(np.arange(1.0, n + 1))  # the weights' own rounding
    # the sums in index order
    value, rounding, weights = np.cumsum((t, rounding, weights), axis=1)[:, -1].tolist()
    return MomentResult(value, f"series_{kind}", n, tail + rounding + weights)


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


def _m_beta(r: float, kind: str):
    """The log-logistic series factors of order r, m B(1 - r, m + r) about
    u = 0 and m B(m - r, 1 + r) about u = 1, as a term function for
    _moment_series that carries log B from the last index of one block to
    the first of the next.

    B at m = 1 is B(1 - r, 1 + r) for both series, the sum of two
    math.lgamma; from one index to the next B scales by (m + r) / (m + 1),
    or by (m - r) / (m + 1): log B is a running sum of log1p(x), x = c / m
    in (-1, 0) with c = r - 1 or -(1 + r), in index order, so that a
    factor does not depend on the block that holds it.  The rounding bound
    follows the error of that sum: each lgamma within 4 eps (|lgamma| + 1);
    each log1p(x) within eps |log1p(x)| <= eps |x| / (1 + x), plus
    2 eps |x| / (1 + x) for the rounding of x; each addition within eps of
    its partial sum.  exp and the factor m add 2 eps of f.
    """
    a, b = math.lgamma(1.0 - r), math.lgamma(1.0 + r)
    start, start_err = a + b, 4.0 * (abs(a) + abs(b) + 2.0) + abs(a + b)  # the error in eps
    c = r - 1.0 if kind == "at_zero" else -1.0 - r
    carry = [0.0, 0.0]  # log B and its error in eps at the index before the block

    def term(m: np.ndarray, w: np.ndarray, env: np.ndarray):
        x = c / m
        step = np.log1p(x)
        err = -3.0 * x / (1.0 + x)
        if m[0] == 1.0:
            step[0], err[0] = start, start_err
        step[0] += carry[0]
        log_b = step.cumsum()
        err += np.abs(log_b)
        err[0] += carry[1]
        err = err.cumsum()
        carry[:] = log_b[-1], err[-1]
        err = _EPS * err
        f = m * np.exp(log_b)
        return f, (err * (1.0 + err) + 2.0 * _EPS) * f, np.ones_like(f)

    return term


def _check_query(method: str, tol: float, methods: tuple[str, ...]) -> None:
    if method not in methods:
        raise DomainError(f"unknown method {method!r} (choose from {', '.join(methods)})")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def _gamma_factors(r: float, kind: str, tol: float):
    """The unit exponential's series factors of order r as a term function
    for _moment_series: Gamma(1 + r) m C_m about u = 0, C_m the inner
    alternating sum of index m (see _alternating_binomial_inner), and
    Gamma(1 + r) m^-r about u = 1, where nothing cancels.

    Gamma(1 + r) = exp(lgamma(1 + r)) is within 4 eps (|lgamma| + 1) and
    a rounding of itself; with the two products, a factor errs by at most
    eps (4 |lgamma| + 8) of itself plus m eps per unit of C_m's absolute
    terms.  About zero, the inner sums of a block are formed at most
    _INNER_CELLS terms at a time, and no further once a term is _failed at
    the absolute tolerance ``tol``.
    """
    lg = math.lgamma(1.0 + r)
    pref, pref_err = math.exp(lg), 4.0 * abs(lg) + 8.0  # Gamma(1 + r) (OverflowError past 171.6), its error in eps
    if kind == "at_one":
        rel_err = _EPS * pref_err

        def at_one(m: np.ndarray, w: np.ndarray, env: np.ndarray):
            f = pref * m**-r
            return f, rel_err * f, np.ones_like(f)

        return at_one

    def at_zero(m: np.ndarray, w: np.ndarray, env: np.ndarray):
        step, parts = max(1, _INNER_CELLS // int(m[-1])), []
        for i in range(0, m.size, step):
            cut = slice(i, i + step)
            mi = m[cut]
            inner, abssum = _alternating_binomial_inner(mi, r)
            f = pref * mi * inner
            parts.append((f, pref * mi * abssum * _EPS * (mi + pref_err), abssum / np.abs(inner)))
            if i + step < m.size and _failed(np.abs(f) * env[cut], f * w[cut], parts[-1][2], tol).any():
                parts.append([np.full(m.size - i - step, np.nan)] * 3)  # the rest of the block fails
                break
        return parts[0] if len(parts) == 1 else tuple(np.concatenate(p) for p in zip(*parts))

    return at_zero


def _unit_moment(family, pv: ParameterVector, r: float, rel_tol: float, abs_tol: float, method: str,
                 max_terms: int = _DEFAULT_MAX_TERMS) -> MomentResult:
    """E(X^r) for the extension of the unit exponential (``family``
    Exponential, r > -1) or the standard log-logistic (LogLogistic,
    |r| < 1).  Order 0 is exactly 1, unless ``method`` pins the quadrature.
    A pinned series needs the pmf regime and raises where it fails; other
    methods integrate, to ``rel_tol`` times the value.  Only under
    ``auto`` in the pmf regime, where that raises ToleranceNotMet and the
    series at zero is short (_short_series), that series is summed: it
    keeps its digits near r = -1, where the rule's outermost nodes miss
    real mass; if it fails too, the quadrature's error is raised.  A
    series stops on the absolute error ``abs_tol``."""
    pinned, missed = method in ("series_at_zero", "series_at_one"), None
    if pinned:
        _require_pmf(pv, f"the unit {family.__name__} moment series")
    if r == 0.0 and method != "quadrature":
        return _ORDER_ZERO
    if not pinned:
        try:
            return _moment_quadrature(_UNITS[family], pv, r, rel_tol)
        except ToleranceNotMet as exc:
            if method != "auto" or not (pv.pmf_ok and _short_series(pv, abs_tol)):
                raise
            missed = exc
    kind = "at_one" if method == "series_at_one" else "at_zero"
    factors = _m_beta(r, kind) if family is LogLogistic else _gamma_factors(r, kind, abs_tol)
    try:
        return _moment_series(pv, kind, factors, abs_tol, max_terms)
    except Nonconvergence:
        if missed is None:
            raise
    raise missed


def moment_exponential(
    pv: ParameterVector,
    r: float,
    tol: float = 1e-10,
    method: str = "auto",
    max_terms: int = _DEFAULT_MAX_TERMS,
) -> MomentResult:
    """E(X^r) for the extended unit exponential, r > 0, in the pmf regime
    (ConditionViolated elsewhere); :func:`moment` takes the same route for
    every r > -1 and in every regime (see _unit_moment).

    ``method`` is one of ``auto``, ``series_at_zero``, ``series_at_one``,
    ``quadrature``.  ``auto`` integrates, and where that misses ``tol``
    sums the series at zero if it promises to reach ``tol`` within 50
    terms; past an index of about 50 its inner alternating sums always
    cancel too far to trust.  A series' error estimate bounds its tail and
    rounding against ``tol``; the quadrature's meets ``tol`` relative to
    the value or raises ToleranceNotMet.
    """
    _check_query(method, tol, _METHODS[:4])
    if not (math.isfinite(r) and r >= 0):
        raise DomainError(f"moment order must satisfy r > 0, got {r!r}")
    _require_pmf(pv, "the unit Exponential moment series")
    return _unit_moment(Exponential, pv, float(r), tol, tol, method, max_terms)


def moment_loglogistic(
    pv: ParameterVector,
    r: float,
    tol: float = 1e-10,
    method: str = "auto",
    max_terms: int = _DEFAULT_MAX_TERMS,
) -> MomentResult:
    """E(X^r) for the extended standard log-logistic, |r| < 1, routed as
    :func:`moment_exponential` is.  The series at zero has non-negative
    terms in the pmf regime, so unlike the exponential's it never cancels;
    the one at one alternates.
    """
    _check_query(method, tol, _METHODS[:4])
    if not (math.isfinite(r) and abs(r) < 1.0):
        raise DomainError(f"log-logistic moment series requires |r| < 1, got r = {r!r}")
    _require_pmf(pv, "the unit LogLogistic moment series")
    return _unit_moment(LogLogistic, pv, float(r), tol, tol, method, max_terms)


def moment_q2_loglogistic_closed(a1: float, a2: float, b1: float, b2: float, r: float) -> float:
    """Closed-form E(X^r) for the two-parameter extension of LogLogistic(b1, b2).

    Valid for any strictly positive (a1, a2) and |r| < b2; at r = 0 the
    analytic limit is 1.
    """
    return _q2_loglogistic_closed(a1, a2, b1, b2, r)[0]


def _q2_loglogistic_closed(a1: float, a2: float, b1: float, b2: float, r: float) -> tuple[float, float]:
    """The closed form of moment_q2_loglogistic_closed and a bound on its
    rounding error: each rounding, in eps of the value, times the condition
    number of what it feeds.  The rounded s = r / b2 passes to m^s,
    m = (a1 + a2) / 2, with |s log m| and to sin(pi s) with
    |pi s cot(pi s)|, the rounded pi s (2.2 eps) to the sine with the
    latter; the last factor 1 + d, d = s (a1 - a2) / (a1 + a2), carries the
    5 eps of d times |d / (1 + d)|; m's rounding adds |s| and the other
    eleven operations at most 10.2 eps together.  The value is a product of
    four positive factors; where one of the two powers or a partial
    product falls below the normal range, its rounding errs by up to
    _ETA, times the factors that multiply it afterwards."""
    for name, v in (("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2)):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"{name} must be strictly positive, got {v!r}")
    if not (math.isfinite(r) and abs(r) < b2):
        raise DomainError(f"closed form requires |r| < b2 = {b2}, got r = {r!r}")
    if r == 0.0:
        return 1.0, 0.0
    s = r / b2
    m, x, d = (a1 + a2) / 2.0, math.pi * s, s * (a1 - a2) / (a1 + a2)
    p1, p2, p3, p4 = b1**r, m**s, r * math.pi / (b2 * math.sin(x)), d + 1.0
    val = p1 * p2 * p3 * p4
    cond = 12.0 + abs(s) * (1.0 + abs(math.log(m))) + 3.0 * abs(x / math.tan(x)) + 5.0 * abs(d / p4)
    return val, cond * _EPS * val + _ETA * (1.0 + p4 + p3 * p4 * (1.0 + p1 + p2))


def moment_weibull_scaled(
    pv: ParameterVector,
    scale: float,
    shape: float,
    r: float,
    tol: float = 1e-10,
    method: str = "auto",
) -> MomentResult:
    """E(X^r) for the extended Weibull(scale, shape): :func:`moment` of it,
    which takes the power-scaling relation to the extended unit
    exponential at order r/shape."""
    if not (math.isfinite(scale) and scale > 0 and math.isfinite(shape) and shape > 0):
        raise DomainError("scale and shape must be strictly positive")
    return moment(Weibull(scale, shape), pv, r, method=method, tol=tol)


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
    reduces to a double binomial combination of its integer moments, orders
    0 to shape2 * m / shape.  Order 0 is exactly 1; every other order takes
    the single-order route of :func:`moment` (see _unit_moment), so it
    meets tol / 1000 relative to its value or raises.  The estimate is
    absolute: the combination of those estimates and of the rounding of
    each moment, times scale^m.  :func:`moment` takes this route only
    under a pinned ``closed_form``.
    """
    _require_pmf(pv, "generalized-Weibull moment formula")
    if not (isinstance(m, (int,)) and m >= 1):
        raise DomainError(f"moment order must be a positive integer, got {m!r}")
    pair = (1.0 / shape, shape2)  # each a positive integer within 1e-9
    if not all(math.isfinite(x) and x >= 0.5 and abs(x - round(x)) <= 1e-9 for x in pair):
        raise DomainError(f"1/shape and shape2 must be positive integers, got 1/{shape} and {shape2!r}")
    m2, b3 = round(pair[0]), round(pair[1])

    tol *= 1e-3  # per exponential moment
    _check_query("auto", tol, _METHODS)
    exp_moments = [_unit_moment(Exponential, pv, float(j), tol, tol, "auto") for j in range(b3 * m * m2 + 1)]
    total, err = 0.0, 0.0
    for k in range(m * m2 + 1):
        sign = -1.0 if (m * m2 - k) % 2 else 1.0
        for j, mom in enumerate(exp_moments[: b3 * k + 1]):
            c = sign * math.comb(m * m2, k) * math.comb(b3 * k, j)
            total += c * mom.value
            err += abs(c) * (mom.error_estimate + _EPS * abs(mom.value))
    factor = math.pow(scale, m)
    return MomentResult(factor * total, "binomial_transform", max(mom.terms_used for mom in exp_moments), factor * err)


@lru_cache(maxsize=None)
def _de_level(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The nodes of level ``level`` of the tanh-sinh rule, step
    2^-(level + 1) on |t| <= _DE_SPAN: at _DE_MIN_LEVEL all of them, which
    are the nodes of levels 0 to _DE_MIN_LEVEL together (t = k / 16 is
    exact, so each is the node its own level would make), and above it the
    odd multiples of the step, the nodes that the level adds.  Returns
    u = 1 / (1 + exp(-pi sinh t)) and s = 1 - u, each from its own formula
    so that the smaller one keeps its digits, the weights
    du/dt = pi cosh(t) u s, and the number of nodes with t <= 0.
    """
    h = 0.5 ** (level + 1)
    n = round(_DE_SPAN / h)
    t = h * (np.arange(-n, n + 1.0) if level == _DE_MIN_LEVEL else np.arange(1.0 - n, n, 2))
    x = np.pi * np.sinh(t)
    u, s = 1.0 / (1.0 + np.exp(-x)), 1.0 / (1.0 + np.exp(x))
    out = u, s, np.pi * np.cosh(t) * u * s
    for arr in out:
        arr.flags.writeable = False
    return (*out, int(np.count_nonzero(t <= 0.0)))


@lru_cache(maxsize=64)
def _de_abscissae(baseline: Baseline, level: int) -> np.ndarray:
    """The abscissae Q0 of the nodes of ``level`` (see _de_level): the
    baseline quantile of u where u <= 1/2 and its isf of s above that.
    Read-only; see _de_terms for the cache."""
    u, s, _, k = _de_level(level)
    x = np.concatenate((baseline.quantile(u[:k]), baseline.isf(s[k:])))
    x.flags.writeable = False
    return x


@lru_cache(maxsize=256)
def _de_deriv(pv: ParameterVector, level: int) -> np.ndarray:
    """T' of ``pv`` at the nodes of ``level`` (see _de_level), read-only."""
    u, s, _, _ = _de_level(level)
    d = _deriv(pv, u, s)
    d.flags.writeable = False
    return d


def _de_terms(baseline: Baseline, pv: ParameterVector, r: float, level: int):
    """Q0(u)^r T'(u) du/dt at the nodes of ``level`` (see _de_level),
    and where they are known: not where the power of the abscissa
    overflows, which happens only on an outer run of nodes on either side.
    Unknown terms are 0.

    Neither the abscissae nor T' depend on r, so each is formed once and
    kept, read-only: the abscissae per (baseline, level) by _de_abscissae,
    for the four families only, as frozen dataclasses hash by value (any
    other baseline forms them on each call); T' per (vector, level) by
    _de_deriv.  An entry holds one float per node, at most 24 KiB (level
    _DE_MAX_LEVEL adds 3,072 nodes), so the 64 and 256 entries the two
    caches keep take at most 1.5 MiB and 6 MiB.  A kept array is the one
    a fresh call gives, bit for bit, so no value depends on the caches.
    """
    weight = _de_level(level)[2]
    abscissae = _de_abscissae if type(baseline) in _FAMILIES else _de_abscissae.__wrapped__
    power = abscissae(baseline, level) ** r
    known = ~np.isinf(power)
    return np.where(known, power * weight * _de_deriv(pv, level), 0.0), known


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

    The step starts at 1/2 on |t| <= _DE_SPAN and halves at least
    _DE_MIN_LEVEL times, until the error estimate is at most ``tol`` times
    the value (a relative stop).  One numpy call evaluates the nodes of
    levels 0 to _DE_MIN_LEVEL, of step 2^-(_DE_MIN_LEVEL + 1), and each
    level's sum is taken from its strided slice of them; each later level
    is one call over the nodes it adds.  The estimate is the difference
    between the two levels before the last, which the rule's quadratic
    convergence makes far larger than the last level's error, plus the
    terms beyond the outermost known nodes (_edge_tail), plus
    16 (q + |r| + 4) eps times the sum for rounding.  Where it stays above,
    as where a moment barely exists, the rule raises ToleranceNotMet, at
    once where the last two parts alone exceed it: they do not shrink with
    the step.  ``terms_used`` counts the rule's nodes, whether their
    abscissae and T' were formed afresh or taken from the caches of
    _de_terms, keyed per (baseline, level) and per (vector, level) and
    holding at most 1.5 MiB and 6 MiB.
    """
    stride = 1 << _DE_MIN_LEVEL  # level 0's nodes in the first call, stride apart
    g, known = _de_terms(baseline, pv, r, _DE_MIN_LEVEL)
    h = 0.5
    sums = [h * g[::stride].sum()]
    for level in range(1, _DE_MAX_LEVEL + 1):
        h /= 2
        if level <= _DE_MIN_LEVEL:
            new = g[stride >> level :: stride >> (level - 1)]
        else:
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
    ``n_mc == 0`` both sides come from quadrature, the left one from
    :func:`moment` with ``method="quadrature"``; with ``n_mc > 0`` the
    left side is a Monte-Carlo estimate from ``n_mc`` inverse-CDF draws.
    """
    _require_pmf(pv, "moment domination bound")
    rhs = pv.a[0] * integrate_semiinfinite(lambda x: x**r * baseline.pdf(x), lo=0.0, tol=tol).value
    if n_mc > 0:
        from .sampling import RandomSource, sample_inverse_cdf

        batch = sample_inverse_cdf(ExtendedDistribution(baseline, pv), RandomSource(seed), n_mc)
        lhs = float((batch.values**r).mean())
    else:
        lhs = moment(baseline, pv, r, method="quadrature", tol=tol).value
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
    """Front door used by the CLI, and the one place where a moment query
    is routed.

    ``method`` is one of ``auto``, ``series_at_zero``, ``series_at_one``,
    ``quadrature``, ``closed_form``; anything else, and a ``tol`` that is
    not positive and finite, raise :class:`DomainError`.  Existence is
    checked before any path: T' is bounded and positive on [0, 1], so
    E(X^r) is finite exactly where the baseline's moment is, r > -shape for
    the exponential (shape 1), Weibull and generalized Weibull, |r| < shape
    for the log-logistic; elsewhere DomainError.

    ``auto`` takes the closed form of the two-parameter log-logistic.  A
    pinned ``closed_form`` also serves the generalized Weibull at integer
    r, 1/shape and shape2, by the binomial transform of
    :func:`moment_generalized_weibull`, whose estimate is absolute.
    Otherwise the exponential, Weibull and log-logistic, in every regime
    and under every method, scale by scale^r the unit baseline's moment at
    order r/shape (see _unit_moment), a series with the absolute error
    tol / max(scale^r, 1); the estimate adds the rounding of the scaling.
    The generalized Weibull under ``auto`` at every order, and any other
    baseline under ``quadrature``, integrate the baseline itself.  The
    tanh-sinh quadrature in u covers its discretization, truncated ends and
    rounding, and meets ``tol`` relative to the value or raises
    ToleranceNotMet.  A moment, or a factor of it, beyond the float range
    raises DomainError: scale^r is formed before the quadrature too.
    """
    try:
        res = _route(baseline, pv, r, method, tol)
    except OverflowError as exc:  # Gamma(1 + r) or scale^r in float arithmetic
        raise DomainError(f"the moment of order r = {r!r} of {baseline!r} overflows: {exc}") from exc
    if not math.isfinite(res.value):
        raise DomainError(f"the moment of order r = {r!r} of {baseline!r} overflows: {res.value!r}")
    return res


def _route(baseline: Baseline, pv: ParameterVector, r: float, method: str, tol: float) -> MomentResult:
    """moment()'s routing, in the order its docstring gives."""
    _check_query(method, tol, _METHODS)
    if isinstance(baseline, _FAMILIES):
        _check_exists(baseline, r)
    elif method != "quadrature":
        raise DomainError(f"unsupported baseline {baseline!r}")
    pinned = method != "auto"
    if method in ("auto", "closed_form"):
        if isinstance(baseline, LogLogistic) and (pv.q == 2 or pinned):
            if pv.q != 2:
                raise ConditionViolated(f"closed form needs q = 2, got q = {pv.q}")
            val, err = _q2_loglogistic_closed(pv.a[0], pv.a[1], baseline.scale, baseline.shape, r)
            return MomentResult(val, "closed_form", 1, err)
        if pinned:
            m = round(r)
            if isinstance(baseline, GeneralizedWeibull) and m >= 1 and abs(r - m) < 1e-12:
                return moment_generalized_weibull(pv, baseline.scale, baseline.shape, baseline.shape2, m, tol=tol)
            raise DomainError(f"no closed form for {baseline.name} moments at r = {r!r}")
    if isinstance(baseline, (Exponential, Weibull, LogLogistic)):
        # X = scale X1^(1/shape), X1 the unit exponential or standard log-logistic
        unit = LogLogistic if isinstance(baseline, LogLogistic) else Exponential
        factor = baseline.scale**r
        inner = _unit_moment(unit, pv, r / getattr(baseline, "shape", 1.0), tol, tol / max(factor, 1.0), method)
        value = factor * inner.value
        # the roundings of scale^r and of the product, each within eps, or _ETA below the normal range
        error = factor * inner.error_estimate + 2.0 * _EPS * abs(value) + _ETA * (1.0 + abs(inner.value))
        return MomentResult(value, f"scaling({inner.method_used})", inner.terms_used, error)
    if method.startswith("series_at"):
        raise DomainError(f"method {method!r} unavailable for {baseline.name}")
    math.pow(baseline.scale, r)  # X = scale Z: E(X^r) overflows where scale^r does, as OverflowError
    return _moment_quadrature(baseline, pv, r, tol)
