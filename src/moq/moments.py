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
_CANCEL_LIMIT = 1e12
_DEFAULT_MAX_TERMS = 200_000
# the inner alternating sums of a block are formed at most this many terms at a time
_INNER_CELLS = 1 << 16
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
_METHODS = ("auto", "series_at_zero", "series_at_one", "quadrature", "closed_form")


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


def _alternating_binomial_inner(m: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_{j=0}^{m-1} C(m-1, j) (-1)^j (j+1)^(-r-1) for every order r
    (rows) and index m (columns) at once, each sum compensated: math.fsum
    rounds it exactly.  Where the absolute terms add up to more than 1e300
    the value is NaN.

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
    terms = binom * (j + 1.0) ** (-1.0 - r)[:, None, None]
    abssum = terms.sum(axis=2)
    terms[..., 1::2] *= -1.0
    rows = zip(abssum.ravel().tolist(), terms.reshape(-1, j.size).tolist())
    inner = [math.fsum(row) if mass <= 1e300 else math.nan for mass, row in rows]
    return np.reshape(inner, abssum.shape), abssum


def _failed(mag: np.ndarray, t: np.ndarray, cond: np.ndarray, tol: float) -> np.ndarray:
    """The series terms that fail their order: a magnitude ``mag`` that is
    not finite, or a term t above tol / 1000 whose factor has a
    cancellation ratio ``cond`` above _CANCEL_LIMIT, too large to carry its
    lost digits."""
    return ~np.isfinite(mag) | ((cond > _CANCEL_LIMIT) & (np.abs(t) > tol * 1e-3))


def _moment_series(pv: ParameterVector, kind: str, term, tol: float, max_terms: int) -> list:
    """Sum the moment series of every order at once over the weights about
    u = 0 (``kind`` "at_zero") or u = 1 ("at_one"), m = 1, 2, ...: one walk
    serves every order, and stops where the last order ends.

    ``term`` maps arrays of m, w_m and their envelopes to factors f_m, one
    row per order, bounds on their rounding per unit of weight envelope,
    and the cancellation ratio of each factor, 1 where nothing cancels;
    it is called once per block, in order.  The series is sum f_m w_m
    about zero and sum (-1)^(m-1) f_m w_m about one.  Each order ends where
    a walk of it alone would (see _geometric_walk), so its result does not
    depend on the other orders; it fails at its first term that is
    _failed, unless it ends before that term.  The weight-envelope ratio
    and the (m+1)/m growth of the m factor bound the rest of an order, from
    the largest |f_m| times the envelope of the last q + 1 indices; each
    family's other factors shrink with m.  The reported error is that bound
    plus the summed roundings of the terms, the weights' own (see
    _SeriesStream.rounding) included.  Returns one MomentResult per order,
    or the Nonconvergence of an order that failed, its reason read at the
    index where it ends.
    """
    stream = _series_stream(pv, kind)

    def block_term(m, w, env):
        f, rounding, cond = term(m, w, env)
        t = f * w
        if kind == "at_one":
            t[:, int(m[0]) % 2::2] *= -1.0  # the even m
        mag = np.abs(f) * env
        return mag, (t, mag, rounding * env, cond), _failed(mag, t, cond, tol)

    def why(n: int, mag: float, cond: float) -> str:
        if math.isfinite(mag):
            return f"inner alternating sum ill-conditioned at index {n} (cancellation ratio {cond:.2e})"
        return f"moment series ({kind.replace('_', ' ')}) term at index {n} is not finite"

    walked = _geometric_walk(stream, block_term, tol, max_terms, 1, pv.q + 1, growth=True)
    if walked is None:
        raise Nonconvergence(f"moment series ({kind.replace('_', ' ')}) exceeded {max_terms} terms")
    (t, mag, rounding, cond), ends, tails, failed = walked
    weights = mag * stream.rounding(np.arange(1.0, t.shape[1] + 1))  # the weights' own rounding
    # each order's sums, in index order, up to its own end
    value, rounding, weights = np.cumsum((t, rounding, weights), axis=2)[:, np.arange(t.shape[0]), ends - 1]
    results = zip(value.tolist(), (tails + rounding + weights).tolist(), failed.tolist(), ends.tolist())
    return [
        Nonconvergence(why(n, mag[o, n - 1], cond[o, n - 1])) if dead
        else MomentResult(value, f"series_{kind}", n, error)
        for o, (value, error, dead, n) in enumerate(results)
    ]


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


def _m_beta(orders: list[float], kind: str):
    """The log-logistic series factors of every order r, m B(1 - r, m + r)
    about u = 0 and m B(m - r, 1 + r) about u = 1, as a term function for
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
    starts = [(math.lgamma(1.0 - x), math.lgamma(1.0 + x)) for x in orders]
    start = np.array([a + b for a, b in starts])
    start_err = np.array([4.0 * (abs(a) + abs(b) + 2.0) + abs(a + b) for a, b in starts])  # in eps
    c = np.array([[x - 1.0 if kind == "at_zero" else -1.0 - x] for x in orders])
    carry = [0.0, 0.0]  # log B and its error in eps at the index before the block

    def term(m: np.ndarray, w: np.ndarray, env: np.ndarray):
        x = c / m
        step = np.log1p(x)
        err = -3.0 * x / (1.0 + x)
        if m[0] == 1.0:
            step[:, 0], err[:, 0] = start, start_err
        step[:, 0] += carry[0]
        log_b = step.cumsum(axis=1)
        err += np.abs(log_b)
        err[:, 0] += carry[1]
        err = err.cumsum(axis=1)
        carry[:] = log_b[:, -1], err[:, -1]
        err = _EPS * err
        f = m * np.exp(log_b)
        return f, (err * (1.0 + err) + 2.0 * _EPS) * f, np.ones_like(f)

    return term


def _check_query(method: str, tol: float, methods: tuple[str, ...]) -> None:
    if method not in methods:
        raise DomainError(f"unknown method {method!r} (choose from {', '.join(methods)})")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def _gamma_factors(orders: list[float], kind: str, tol: float):
    """The unit exponential's series factors of every order r as a term
    function for _moment_series: Gamma(1 + r) m C_m about u = 0, C_m the
    inner alternating sum of index m (see _alternating_binomial_inner),
    and Gamma(1 + r) m^-r about u = 1, where nothing cancels.

    Gamma(1 + r) = exp(lgamma(1 + r)) is within 4 eps (|lgamma| + 1) and
    a rounding of itself; with the two products, a factor errs by at most
    eps (4 |lgamma| + 8) of itself plus m eps per unit of C_m's absolute
    terms.  About zero, the inner sums of a block are formed at most
    _INNER_CELLS terms at a time, and no further once every order has a
    term that is _failed at the absolute tolerance ``tol``.
    """
    lg = [math.lgamma(1.0 + x) for x in orders]
    # per order: Gamma(1 + r) (OverflowError past 171.6), its error bound in eps, and -r
    cols = np.array([[math.exp(v), 4.0 * abs(v) + 8.0, -x] for v, x in zip(lg, orders)])
    pref, pref_err = cols[:, :1], cols[:, 1:2]
    if kind == "at_one":
        neg_r, rel_err = cols[:, 2:], _EPS * pref_err

        def at_one(m: np.ndarray, w: np.ndarray, env: np.ndarray):
            f = pref * m**neg_r
            return f, rel_err * f, np.ones_like(f)

        return at_one

    r = np.array(orders)

    def at_zero(m: np.ndarray, w: np.ndarray, env: np.ndarray):
        step, parts, dead = max(1, _INNER_CELLS // (r.size * int(m[-1]))), [], False
        for i in range(0, m.size, step):
            cut = slice(i, i + step)
            mi = m[cut]
            inner, abssum = _alternating_binomial_inner(mi, r)
            f = pref * mi * inner
            parts.append((f, pref * mi * abssum * _EPS * (mi + pref_err), abssum / np.abs(inner)))
            if i + step < m.size:
                dead |= _failed(np.abs(f) * env[cut], f * w[cut], parts[-1][2], tol).any(axis=1)
                if np.all(dead):  # the rest of the block is NaN, a failure
                    parts.append([np.full((r.size, m.size - i - step), np.nan)] * 3)
                    break
        return parts[0] if len(parts) == 1 else tuple(np.concatenate(p, axis=1) for p in zip(*parts))

    return at_zero


def _unit_moment(family, pv: ParameterVector, orders: list[float], rel_tol: float, abs_tol: float, method: str,
                 max_terms: int = _DEFAULT_MAX_TERMS) -> list[MomentResult]:
    """E(X^r) for every order r in ``orders`` for the extension of the unit
    exponential (``family`` Exponential, r > -1) or the standard
    log-logistic (LogLogistic, |r| < 1), in the pmf regime: a pinned
    series, or for ``auto`` the series at zero where it is short
    (_short_series) and converges, and quadrature everywhere else.  One
    series serves every order; under ``auto`` an order whose series fails
    is integrated alone, while a pinned series raises.  A series stops on
    the absolute error ``abs_tol``, the quadrature on ``rel_tol`` times the
    value."""
    _require_pmf(pv, f"the unit {family.__name__} moment series")
    todo = [x for x in orders if x != 0.0]
    series = [None] * len(todo)
    if todo and (method in ("series_at_zero", "series_at_one") or (method == "auto" and _short_series(pv, abs_tol))):
        kind = "at_one" if method == "series_at_one" else "at_zero"
        factors = _m_beta(todo, kind) if family is LogLogistic else _gamma_factors(todo, kind, abs_tol)
        try:
            series = _moment_series(pv, kind, factors, abs_tol, max_terms)
        except Nonconvergence:
            if method != "auto":
                raise
    out, series = [], iter(series)
    for x in orders:
        res = MomentResult(1.0, "closed_form", 1, 0.0) if x == 0.0 else next(series)
        if isinstance(res, Nonconvergence) and method != "auto":
            raise res
        out.append(res if isinstance(res, MomentResult) else _moment_quadrature(family(), pv, x, rel_tol))
    return out


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
    :func:`moment` takes the same series for -1 < r < 0.
    """
    _check_query(method, tol, _METHODS[:4])
    if not (math.isfinite(r) and r >= 0):
        raise DomainError(f"moment order must satisfy r > 0, got {r!r}")
    return _unit_moment(Exponential, pv, [float(r)], tol, tol, method, max_terms)[0]


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
    if not (math.isfinite(r) and abs(r) < 1.0):
        raise DomainError(f"log-logistic moment series requires |r| < 1, got r = {r!r}")
    return _unit_moment(LogLogistic, pv, [float(r)], tol, tol, method, max_terms)[0]


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
    """E(X^r) for the extended Weibull(scale, shape): :func:`moment` of it,
    which in the pmf regime takes the power-scaling relation to the
    extended unit exponential at order r/shape."""
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
    0 to shape2 * m / shape.  One walk of the series at zero serves all of
    them (see _unit_moment), at the absolute error tol / 1000; an order
    whose series fails is integrated alone.  The inner exponent is the
    plain binomial-expansion index, and the result is checked against
    quadrature and mpmath in the test suite.
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

    _check_query("auto", tol * 1e-3, _METHODS)
    # order 0 is exactly 1
    exp_moments = _unit_moment(Exponential, pv, [float(j) for j in range(b3 * m * m2 + 1)], tol * 1e-3, tol * 1e-3,
                               "auto")
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
    """Front door used by the CLI, and the one place where a moment query
    is routed.

    ``method`` is one of ``auto``, ``series_at_zero``, ``series_at_one``,
    ``quadrature``, ``closed_form``; anything else, and a ``tol`` that is
    not positive and finite, raise :class:`DomainError`.  Existence is
    checked before any path: T' is bounded and positive on [0, 1], so
    E(X^r) is finite exactly where the baseline's moment is, r > -shape for
    the exponential (shape 1), Weibull and generalized Weibull, |r| < shape
    for the log-logistic; elsewhere DomainError.

    ``auto`` takes the closed form where one exists: the two-parameter
    log-logistic, and in the pmf regime the binomial transform for
    generalized Weibull at integer r.  Otherwise, for the exponential,
    Weibull and log-logistic in the pmf regime, it scales by scale^r the
    moment of the unit baseline at order r/shape (-shape < r < 0 included):
    the series at zero where it is short (see moment_exponential), with
    the absolute error tol / max(scale^r, 1), else quadrature.  Everywhere
    else it integrates: tanh-sinh quadrature in u, whose error estimate
    covers the discretization, the truncated ends and the rounding, and
    meets ``tol`` relative to the value or raises ToleranceNotMet.  The
    other methods pin a path.  A moment, or a factor of it, beyond the
    float range raises DomainError.
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
            val = moment_q2_loglogistic_closed(pv.a[0], pv.a[1], baseline.scale, baseline.shape, r)
            return MomentResult(val, "closed_form", 1, 4.0 * _EPS * abs(val))
        m = round(r)
        if isinstance(baseline, GeneralizedWeibull) and (pv.pmf_ok or pinned) and m >= 1 and abs(r - m) < 1e-12:
            try:
                return moment_generalized_weibull(pv, baseline.scale, baseline.shape, baseline.shape2, m, tol=tol)
            except DomainError:
                if pinned:
                    raise
        if pinned:
            raise DomainError(f"no closed form for {baseline.name} moments at r = {r!r}")
    # X = scale X1^(1/shape), X1 the unit exponential or standard log-logistic
    unit = LogLogistic if isinstance(baseline, LogLogistic) else Exponential
    if not isinstance(baseline, (unit, Weibull)):  # generalized Weibull, or not a family
        if method.startswith("series_at"):
            raise DomainError(f"method {method!r} unavailable for {baseline.name}")
    elif method != "quadrature" and (pv.pmf_ok or pinned):
        factor, shape = baseline.scale**r, getattr(baseline, "shape", 1.0)
        inner = _unit_moment(unit, pv, [r / shape], tol, tol / max(factor, 1.0), method)[0]
        return MomentResult(factor * inner.value, f"scaling({inner.method_used})", inner.terms_used,
                            factor * inner.error_estimate)
    return _moment_quadrature(baseline, pv, r, tol)
