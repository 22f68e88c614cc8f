"""The multi-parameter distortion function and its power-series expansions.

Everything in this package is built on one monotone map of the unit
interval.  For ``q`` strictly positive parameters ``a = (a_1, ..., a_q)``
with ``S = a_1 + ... + a_q``, the distortion is

    T(u) = q^q * u * prod_{i=2}^{q} (a_i + u - a_i*u) / (S - (S - q)*u)^q

which fixes 0 and 1 and increases strictly on [0, 1].  Applied to a
baseline CDF it yields the extended distribution of :mod:`moq.extended`;
for equal parameters ``a_i = a`` it collapses to the classical
Marshall-Olkin map ``u / (a + (1 - a)*u)``.

This module exposes the distortion, its derivative, the complement
``1 - T(1 - s)`` in a cancellation-free form for accurate survival tails,
a safeguarded Newton inverse, and the two power-series expansions (about
``u = 0`` and ``u = 1``) whose coefficients drive the moment formulas and
the random-maxima sampler.

All operations are pure; :class:`ParameterVector` and
:class:`SeriesCoefficients` are immutable and safe to share across
threads.  Scalar inputs return floats, array inputs return arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .baselines import _check_prob, _ret
from .errors import (
    ConditionViolated,
    DomainError,
    LengthMismatch,
    Nonconvergence,
    NonPositiveParameter,
)

__all__ = [
    "ParameterVector",
    "SeriesCoefficients",
    "validate_params",
    "elementary_symmetric",
    "distortion",
    "distortion_deriv",
    "distortion_complement",
    "distortion_inverse",
    "composition_pair",
    "series_at_zero",
    "series_at_one",
]

# Inputs within this distance outside [0, 1] are clamped; CDF round-off only.
U_SLACK = 1e-12

_EPS = float(np.finfo(float).eps)

# Added to every reported series tail estimate, on top of the truncation tail
# and the rounding term: it absorbs the few-ulp slack of the tail formula
# itself, of the final ``+ 1`` in ``at_one`` reconstruction, and of comparing
# against a float evaluation of T.
_TAIL_FLOOR = 256 * _EPS

# Cells of the largest (modes x block) array a series block evaluates: a
# memory bound, which does not change where any series stops.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class ParameterVector:
    """Validated distortion parameters: q >= 1 and a_1..a_q all > 0.

    Use :func:`validate_params` to construct one; the raw constructor does
    not check anything.
    """

    q: int
    a: tuple[float, ...]
    sum_a: float

    @property
    def series_at_zero_ok(self) -> bool:
        """Whether the expansion about u = 0 converges on [-1, 1] (sum a_i > q/2)."""
        return self.sum_a > 0.5 * self.q

    @property
    def series_at_one_ok(self) -> bool:
        """Whether the expansion about u = 1 converges on [0, 2] (sum a_i < 2q)."""
        return self.sum_a < 2.0 * self.q

    @property
    def pmf_ok(self) -> bool:
        """Whether the series weights at zero form a probability mass function.

        Requires sum a_i >= q and a_i <= 1 for every i >= 2.  In this regime
        the distortion is convex, all series-at-zero weights are >= 0 and sum
        to one, and the extended density is dominated by a_1 times the
        baseline density.
        """
        return self.sum_a >= self.q and all(ai <= 1.0 for ai in self.a[1:])


def validate_params(q: int, a: Sequence[float]) -> ParameterVector:
    """Check and package distortion parameters.

    Raises
    ------
    LengthMismatch
        If ``len(a) != q`` or ``q < 1``.
    NonPositiveParameter
        If any entry is not a strictly positive finite real.
    """
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise LengthMismatch(f"q must be a positive integer, got {q!r}")
    vals = tuple(float(x) for x in a)
    if len(vals) != q:
        raise LengthMismatch(f"expected {q} parameters, got {len(vals)}")
    for i, x in enumerate(vals):
        if not math.isfinite(x) or x <= 0.0:
            raise NonPositiveParameter(f"a[{i}] = {x!r} is not strictly positive")
    return ParameterVector(q=int(q), a=vals, sum_a=math.fsum(vals))


def _as_unit_interval(u, *, slack: float = U_SLACK):
    """Coerce ``u`` to float array clamped to [0, 1]; reject anything further out."""
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(np.isfinite(arr)) or np.any(arr < -slack) or np.any(arr > 1.0 + slack):
        bad = arr if scalar else arr[~((arr >= -slack) & (arr <= 1.0 + slack))][:1]
        raise DomainError(f"u = {np.ravel(bad)[:1]} outside [0, 1] beyond tolerance {slack}")
    return np.clip(arr, 0.0, 1.0), scalar


def distortion(pv: ParameterVector, u):
    """Evaluate the distortion T(u) on [0, 1].

    The linear factors are evaluated as ``u + a_i*(1 - u)`` and the
    denominator base as ``q*u + S*(1 - u)`` so that the endpoint values
    T(0) = 0 and T(1) = 1 are exact in floating point.
    """
    uu, scalar = _as_unit_interval(u)
    # analytically in [0, 1]; rounding can poke a couple of ulp past 1
    return _ret(np.clip(_distortion(pv, uu, 1.0 - uu), 0.0, 1.0), scalar)


def _distortion(pv: ParameterVector, uu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """T(u) from u and s = 1 - u, each with its own digits; see distortion."""
    num = np.array(uu, copy=True)
    for ai in pv.a[1:]:
        num = num * (uu + ai * s)
    return (float(pv.q) ** pv.q) * num / (pv.q * uu + pv.sum_a * s) ** pv.q


def distortion_deriv(pv: ParameterVector, u):
    """Evaluate T'(u) >= 0 on [0, 1], with T'(1) = a_1 exact to rounding.

    Uses the regrouped form

        T'(u) = q^q * B(u) / (q*u + S*(1-u))^(q+1),
        B(u)  = P * (S*(1-u) + q*a_1*u)
                + u*(1-u) * sum_{i>=2} (1-a_i)*(S - q*a_i) * P / f_i,

    with ``f_i = u + a_i*(1-u)`` and ``P = prod f_i``.  This is the analytic
    derivative of :func:`distortion`; the grouping removes the endpoint
    cancellation that the naive three-term product rule suffers when a_1 is
    many orders of magnitude below the other parameters.
    """
    uu, scalar = _as_unit_interval(u)
    return _ret(_deriv(pv, uu, 1.0 - uu), scalar)


def _deriv(pv: ParameterVector, uu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """T'(u) from u and s = 1 - u, each with its own digits; see distortion_deriv."""
    q, big_s, a1 = pv.q, pv.sum_a, pv.a[0]
    factors = [uu + ai * s for ai in pv.a[1:]]
    prod = np.ones_like(uu)
    for f in factors:
        prod = prod * f
    bracket = prod * (big_s * s + q * a1 * uu)
    if q >= 2:
        corr = np.zeros_like(uu)
        for ai, f in zip(pv.a[1:], factors):
            corr += (1.0 - ai) * (big_s - q * ai) * (prod / f)
        bracket = bracket + uu * s * corr
    denom = (q * uu + big_s * s) ** (q + 1)
    return (float(q) ** q) * bracket / denom


@lru_cache(maxsize=256)
def _complement_weights(pv: ParameterVector) -> tuple[float, ...]:
    """g_0..g_q with 1 - T(1 - s) = sum_k g_k w^(q-k) r^k; see distortion_complement.

    g_k = C(q, k) - e_k(q a_2/S, ..., q a_q/S) is never negative, and g_1
    = q a_1 / S, which the difference would lose to cancellation.
    """
    q = pv.q
    e = elementary_symmetric([q * ai / pv.sum_a for ai in pv.a[1:]], q)
    g = [math.comb(q, k) - e[k] for k in range(q + 1)]
    g[1] = q * pv.a[0] / pv.sum_a
    return tuple(g)


def distortion_complement(pv: ParameterVector, s):
    """Evaluate 1 - T(1 - s) with relative accuracy on [0, 1].

    With r = S s / (q (1-s) + S s) and w = 1 - r, formed each as its own
    quotient, 1 - T(1 - s) is the polynomial sum_k g_k w^(q-k) r^k, whose
    weights are all >= 0 (:func:`_complement_weights`): no term cancels
    another, near s = 0 (where it behaves like a_1 s) or anywhere else,
    and no weight overflows however large the parameters.
    """
    ss, scalar = _as_unit_interval(s)
    return _ret(_complement(pv, 1.0 - ss, ss), scalar)


def _complement(pv: ParameterVector, uu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """1 - T(u) from u and s = 1 - u, each with its own digits; see distortion_complement."""
    g = _complement_weights(pv)
    v = (pv.q / pv.sum_a) * uu
    r, w = s / (s + v), v / (s + v)
    acc, wk = np.full_like(s, g[-1]), w
    for gk in g[-2:0:-1]:
        acc = acc * r + gk * wk
        wk = wk * w
    return acc * r


def distortion_inverse(pv: ParameterVector, p, *, tol: float = 1e-12, max_iter: int = 200):
    """Solve T(u) = p for u in [0, 1] by safeguarded Newton iteration.

    The root is solved for as the smaller of u and s = 1 - u, against the
    smaller of p and 1 - p, which is exact: T(u) = p where p <= 1/2 and the
    root u <= 1/2; C(s) = 1 - T(1 - s) = 1 - p where both lie on the other
    side; across, 1 - T(u) = 1 - p or T(1 - s) = p, each evaluated from
    both u and s.  Each element starts from a linear interpolant of a
    cached log-log table of its map on (0, 1/2] and takes Newton steps
    inside the bracket of the nodes around it (rtsafe, Press et al.,
    *Numerical Recipes*, §9.4), bisecting where a step would leave the
    bracket or not halve the last one.  It stops, and leaves the active
    set, once the Newton correction is below ``tol`` times the iterate, or
    below sqrt(tol) / 100 times it for a step inside the bracket, which
    leaves an error of the order of its square: a relative rule, whatever
    the scale of p.

    Raises
    ------
    DomainError
        If ``p`` is outside (0, 1).
    Nonconvergence
        If ``max_iter`` passes leave a relative residual above 1e-9.
    """
    pp, scalar = _check_prob(p)
    x, upper = _small_roots(pv, np.atleast_1d(pp), False, tol, max_iter, public=False)
    u = np.where(upper, 1.0 - x, x)
    return _ret(u[0] if scalar else u, scalar)


def _small_roots(pv: ParameterVector, level: np.ndarray, survival: bool, tol=1e-12, max_iter=200, public=True):
    """(x, upper): the root of T(u) = p as x = u, or where ``upper`` as x = s = 1 - u.

    ``level`` holds cdf levels p, or with ``survival`` the survival levels
    1 - p, which keep digits that p has lost.  Either way x <= 1/2 carries
    the root to full relative precision, where 1 - x might not.  With
    ``public`` the commonest roots, small level and root both on T, go
    through :func:`distortion_inverse`, which returns them as they are, so
    that wrappers installed on the public inverse see them; it passes
    ``public=False`` itself.
    """
    # the root lies on the complement side where C(s) <= C(1/2), that is
    # T(u) >= T(1/2); judged on the given level, exact where the other is not
    if survival:
        upper = level <= math.exp(_start_table(pv, True, False)[2][-1])
        small_t = level > 0.5
    else:
        upper = level > math.exp(_start_table(pv, False, False)[2][-1])
        small_t = level <= 0.5
    small = np.fmin(level, 1.0 - level)  # exact: 1 - level is, where level >= 1/2
    group = 2 * upper + (small_t == upper)  # root side, and whether the level lies across
    x = np.empty_like(level)
    for g in range(4):
        sel = np.flatnonzero(group == g)
        if not sel.size:
            continue
        if public and g == 0:
            x[sel] = distortion_inverse(pv, small[sel], tol=tol, max_iter=max_iter)
        else:
            x[sel] = _invert(pv, small[sel], g >= 2, g % 2 == 1, tol, max_iter)
    return x, upper


def _maps(complement: bool, mixed: bool):
    """The increasing map of x <= 1/2 to invert, and its derivative: T(u) or,
    with ``complement``, C(s); ``mixed`` swaps in minus the other side's map.

    The public maps are looked up at call time, so that wrappers installed
    on this module see their evaluations; the private two-argument forms
    keep the digits of x that 1 - x drops below eps.
    """
    if complement:
        return (_minus_t_of_one_minus if mixed else distortion_complement), _complement_deriv
    return (_minus_complement_of if mixed else distortion), distortion_deriv


def _complement_deriv(pv, s):
    return _deriv(pv, 1.0 - s, s)


def _minus_t_of_one_minus(pv, s):
    return -_distortion(pv, 1.0 - s, s)


def _minus_complement_of(pv, u):
    return -_complement(pv, u, 1.0 - u)


# Nodes uniform in logit(x) from 8.5e-17 to 1/2, dense towards zero; below
# the first the maps are linear to rounding unless some a_i is extreme.
_NODES = 1.0 / (1.0 + np.exp(-np.linspace(-37.0, 0.0, 257)))


@lru_cache(maxsize=256)
@np.errstate(all="ignore")
def _start_table(pv: ParameterVector, complement: bool, mixed: bool):
    """(x, log x, ±log f) at the nodes, the sign making the last increasing in x."""
    logf = np.log(np.abs(_maps(complement, mixed)[0](pv, _NODES)))
    return _NODES, np.log(_NODES), -logf if mixed else logf


@np.errstate(all="ignore")
def _invert(pv, level: np.ndarray, complement: bool, mixed: bool, tol: float = 1e-12, max_iter: int = 200):
    """x in (0, 1/2] where the map of :func:`_maps` meets the level, negated
    if ``mixed``, for levels with such a root; see distortion_inverse."""
    out = np.empty_like(level)
    if level.size == 0:
        return out
    sign = -1.0 if mixed else 1.0
    f, df = _maps(complement, mixed)
    x, t, y = _start_table(pv, complement, mixed)
    ly = sign * np.log(level)
    # linear in log-log; below the table along its first segment, with a
    # bracket that reaches down to the smallest positive double
    k = np.clip(np.searchsorted(y, ly, side="right") - 1, 0, y.size - 2)
    guess = np.exp(t[k] + (ly - y[k]) * (t[k + 1] - t[k]) / (y[k + 1] - y[k]))
    lo, hi = np.where(ly < y[0], 5e-324, x[k]), x[k + 1]
    x = np.fmin(np.fmax(guess, lo), hi)  # a NaN guess starts at lo
    idx, step, resid = np.arange(level.size), hi - lo, np.full_like(level, np.inf)
    for _ in range(max_iter):
        resid = np.asarray(f(pv, x)) - sign * level
        slope = np.asarray(df(pv, x))
        lo = np.where(resid < 0.0, x, lo)
        hi = np.where(resid > 0.0, x, hi)
        newton = x - resid / slope
        fast = (newton > lo) & (newton < hi) & (np.abs(newton - x) <= 0.5 * np.abs(step))
        # a Newton step leaves an error of the order of its square, so one
        # below sqrt(tol) / 100 of the iterate is the last
        done = np.abs(newton - x) <= np.where(fast, 0.01 * math.sqrt(tol), tol) * x
        # geometric bisection: the bracket may span hundreds of decades
        nxt = np.where(done | fast, newton, np.sqrt(lo) * np.sqrt(hi))
        step = nxt - x
        out[idx[done]] = nxt[done]
        if done.all():
            return out
        if done.any():
            keep = ~done
            idx, level, lo, hi, step, resid, nxt = (a[keep] for a in (idx, level, lo, hi, step, resid, nxt))
        x = nxt
    if (worst := float(np.max(np.abs(resid) / level))) > 1e-9:
        raise Nonconvergence(f"distortion inverse stalled at relative residual {worst:.3e}")
    out[idx] = x
    return out


def composition_pair(pv: ParameterVector, b: float, u):
    """Return (T_a(T_{b,..,b}(u)), T_{b*a}(u)); the two agree analytically.

    Composing with the equal-parameter map rescales every parameter by
    ``b``, which is what makes the random-maxima construction closed over
    the equal-parameter subfamily.  Callers assert equality of the pair.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError(f"scale b must be strictly positive, got {b!r}")
    inner_pv = validate_params(pv.q, (float(b),) * pv.q)
    scaled_pv = validate_params(pv.q, tuple(b * ai for ai in pv.a))
    left = distortion(pv, distortion(inner_pv, u))
    right = distortion(scaled_pv, u)
    return left, right


def elementary_symmetric(weights: Iterable[float], upto: int) -> list[float]:
    """Elementary symmetric polynomials e_0..e_upto of the given weights.

    e_0 = 1; e_i = 0 for i beyond the number of weights.  Built by
    incrementally multiplying the linear factors (1 + w*x), which is stable
    for mixed-sign weights, unlike subset enumeration.
    """
    if upto < 0:
        raise DomainError("upto must be >= 0")
    sig = [0.0] * (upto + 1)
    sig[0] = 1.0
    for count, w in enumerate(weights, start=1):
        for j in range(min(count, upto), 0, -1):
            sig[j] += w * sig[j - 1]
    return sig


@dataclass(frozen=True)
class SeriesCoefficients:
    """Truncated power-series weights of the distortion.

    ``kind`` is ``"at_zero"`` (T(u) = sum_m values[m-1] * u^m) or
    ``"at_one"`` (T(u) = 1 + sum_m values[m-1] * (u-1)^m).  ``values[i]``
    is the weight of index m = i + 1.

    ``tail_estimate`` bounds ``|reconstruct(u) - T(u)|`` at every point of
    the series' convergence interval, where T is the exact distortion of
    the given parameters, and, for ``at_zero``, the distance of the exact
    sum of ``values`` from one.  It is the sum of three parts: the
    truncation tail, a rounding term, and a fixed floor of a few hundred
    ulp.  The truncation tail is the absolute weight beyond
    ``truncation_index``, taken as the closed-form total of the envelopes
    (each weight's mode terms with their signs dropped) less the envelopes
    summed so far; the inputs of that total are raised by their rounding
    bounds, so it also covers the weight error that the rounding of the
    parameters makes.  The rounding term covers the float evaluation of the
    log-space weights and the Horner evaluation in :meth:`reconstruct`.
    The stopping test keeps the truncation itself below the requested
    ``tol``; the parts due to rounding are not held to it.  For mixed-sign
    weights they grow with the envelopes, whose sum can be far above
    ``sum |values|``, and near the edge of the convergence region they can
    exceed ``tol`` by orders of magnitude.
    """

    kind: str
    values: tuple[float, ...]
    truncation_index: int
    tail_estimate: float

    def reconstruct(self, u):
        """Evaluate the truncated series at ``u`` (array-friendly)."""
        uu = np.asarray(u, dtype=float)
        scalar = uu.ndim == 0
        base = uu if self.kind == "at_zero" else uu - 1.0
        acc = np.zeros_like(uu, dtype=float)
        for c in reversed(self.values):
            acc = acc * base + c
        acc = acc * base
        if self.kind == "at_one":
            acc = acc + 1.0
        return _ret(acc, scalar)


class _SeriesStream:
    """Block evaluator for the series weights, shared by the truncated
    builders, the moment series, and the lazily extended sampling tables.

    Each weight of index m is a finite sum over shifts j of

        pref * coeff[j] * C(k+q-1, q-1) * srat^k,    k = m - j,

    evaluated in log space so that the binomial growth and the geometric
    decay never overflow on the way to a representable product.
    :meth:`block` evaluates a range of indices in a few numpy calls.
    Callers walk blocks sized by :meth:`next_end` and take partial sums
    with np.cumsum, the running total added to each block's first term:
    that keeps the left-to-right order of a term-by-term loop, so where a
    series stops does not depend on the block sizes.
    """

    def __init__(self, pv: ParameterVector, kind: str):
        q, big_s = pv.q, pv.sum_a
        self.q, self.kind = q, kind
        if kind == "at_zero":
            if not pv.series_at_zero_ok:
                raise ConditionViolated(
                    f"expansion about u = 0 requires sum(a) > q/2; got sum(a) = {big_s}, q = {q}"
                )
            w = [(1.0 - ai) / ai for ai in pv.a[1:]]
            self.srat = (big_s - q) / big_s
            self.log_pref = q * math.log(q) + math.fsum(math.log(ai) for ai in pv.a[1:]) - q * math.log(big_s)
            # the magnitudes behind log_pref, plus q for the rounding of S
            pref_mag = q * (math.log(q) + abs(math.log(big_s)) + 1) + math.fsum(abs(math.log(ai)) for ai in pv.a[1:])
        elif kind == "at_one":
            if not pv.series_at_one_ok:
                raise ConditionViolated(
                    f"expansion about u = 1 requires sum(a) < 2q; got sum(a) = {big_s}, q = {q}"
                )
            w = [1.0 - ai for ai in pv.a[1:]]
            self.srat = (big_s - q) / q
            self.log_pref = 0.0
            pref_mag = 0.0
        else:  # pragma: no cover - internal misuse
            raise ValueError(kind)
        self.coeff = _mode_coefficients(kind, elementary_symmetric(w, q))
        modes = {j: cj for j, cj in self.coeff.items() if cj != 0.0}
        log_coeff = [math.log(abs(cj)) for cj in modes.values()]
        self._first, self._last = min(modes), max(modes)
        self._row_start = np.array([self._last - j for j in modes])  # see block
        self._log_coeff = np.array(log_coeff)
        self._mode_sign = np.array(
            [math.copysign(1.0, cj) * (-1.0 if j % 2 and self.srat < 0.0 else 1.0) for j, cj in modes.items()]
        )
        self._binom_i = np.arange(1.0, q)
        self.ratio = abs(self.srat)
        self._log_ratio = math.log(self.ratio) if self.ratio > 0.0 else -math.inf
        self._w, self._pref_mag = w, pref_mag  # for envelope_total
        self._log_mag = max(map(abs, log_coeff)) + abs(self.log_pref) + 1

    def block(self, m0: int, m1: int) -> tuple[np.ndarray, np.ndarray]:
        """The weights of the indices m0 <= m < m1 (m0 < m1) and their envelopes.

        The envelope is the same mode sum with every sign dropped.  Unlike
        the weight itself it cannot dip through cancellation, so it is the
        quantity the tail bounds have to be built from when the modes carry
        mixed signs.
        """
        q1, k0 = self.q - 1, m0 - self._last
        # log C(k+q-1, q-1) + k log|srat| for k = m0 - last .. m1 - 1 - first,
        # -inf where k < 0 (or k > 0 with srat = 0); the binomial is the
        # float product of the (k+i)/i, within 2(q-1) eps, or the exact
        # integer where that product overflows
        kr = np.arange(max(k0, 0), m1 - self._first, dtype=float)
        with np.errstate(over="ignore"):
            binom = np.multiply.reduce((kr[:, None] + self._binom_i) / self._binom_i, axis=1)
        log_binom = np.log(binom)
        if kr.size and math.isinf(binom[-1]):
            for n in np.flatnonzero(np.isinf(binom)):
                log_binom[n] = math.log(math.comb(int(kr[n]) + q1, q1))
        if self.ratio > 0.0:
            row = log_binom + kr * self._log_ratio
        else:
            row = np.where(kr == 0.0, 0.0, -math.inf)
        row = np.concatenate((np.full(max(-k0, 0), -math.inf), row))
        # one row per m, mode j at k = m - j; a row no mode reaches is 0.
        # Each reduction runs along a row, the same way for every m, so a
        # weight does not depend on the block that holds it.
        lg = row[np.arange(m1 - m0)[:, None] + self._row_start] + self._log_coeff
        top = np.maximum.reduce(lg, axis=1, initial=-1e300)
        terms = np.exp(lg - top[:, None])
        scale = np.exp(top + self.log_pref)
        value = np.add.reduce(terms * self._mode_sign, axis=1) * scale
        if self.srat < 0.0:  # sign (-1)^(m-j): (-1)^j in _mode_sign, (-1)^m here
            value[(m0 + 1) % 2::2] *= -1.0
        return value, np.add.reduce(terms, axis=1) * scale

    def value_and_envelope(self, m: int) -> tuple[float, float]:
        """The weight of index m together with its envelope; see :meth:`block`."""
        value, env = self.block(m, m + 1)
        return float(value[0]), float(env[0])

    def rounding(self, m):
        """Relative bound on the float error of :meth:`block` at m.

        Weight and envelope are both within this fraction of the envelope
        of their values for the float inputs (coeff, srat, log_pref).  The
        parts of every exponent, log_pref included, sum to at most ``mag - 1``
        in magnitude, since C(k+q-1, q-1) <= (1 + k)^(q-1).  With libm log
        and exp within 1 ulp, the error of the exponents and the roundings
        around them stay below 4 eps * mag; the factor 5 leaves room for the
        second-order terms; the 3 eps q covers the float binomial, 2(q-1)
        eps, and the sum over at most q + 1 modes.  Array-friendly in m.
        """
        mag = (self.q - 1) * np.log1p(m) + self._log_mag
        if self.ratio > 0.0:
            mag = mag - m * self._log_ratio
        return _EPS * (5 * mag + 3 * self.q)

    def envelope_total(self) -> float:
        """Upper bound on the envelopes of all m >= 0 summed, for the exact a.

        As sum_k C(k+q-1, q-1) x^k = (1 - x)^-q, the envelopes add up to
        pref * sum_j |coeff[j]| / (1 - ratio)^q.  Each input is raised by its
        rounding bound, so the sum also covers the error that the rounding
        of the inputs leaves in the weights.
        """
        ratio = self.ratio + 3 * _EPS
        if ratio >= 1.0:
            return math.inf
        # Each coefficient is within 2(q+1) eps of the same coefficient built
        # from |w| (the recurrence of elementary_symmetric and the rounding of
        # w; Higham 2002, §3.1), srat within 2 eps of its value for the exact
        # S, and log_pref within 3 eps * pref_mag; the 3 eps (q + 2) on top
        # covers the few roundings here.
        q = self.q
        abs_coeff = _mode_coefficients(self.kind, elementary_symmetric(map(abs, self._w), q))
        coeff = math.fsum(map(abs, self.coeff.values())) + 2 * (q + 1) * _EPS * math.fsum(abs_coeff.values())
        pref_err = 3 * _EPS * (self._pref_mag + q + 2)
        return math.exp(self.log_pref + pref_err) * coeff / (1.0 - ratio) ** q

    def envelope_ratio(self, m):
        """Bound on envelope(m+1) / envelope(m) for m >= q + 1, array-friendly.

        Mode j scales by ratio * (m-j+q)/(m-j+1) per index, which is
        largest for the youngest mode j = q; the bound is decreasing in m,
        so once it drops below one the envelope tail is geometric.
        """
        return self.ratio * m / (m - self.q + 1)

    def next_end(self, m0: int, m1: int, tail: float, tol: float, rho: float, max_terms: int, lag: int = 0) -> int:
        """End of the block after [m0, m1), at whose last index the series
        has the tail estimate ``tail`` and the ratio bound ``rho``: the
        log(tol/tail) / log(decay) terms, plus ``lag``, that take the tail
        below ``tol``, with decay = sqrt(rho * ratio) as rho falls towards
        ratio; twice the last size while rho >= 1; at least q + 2 terms.
        m0 = m1 = q + 3 gives the first block, which adds to the burn-in.
        """
        size = m1 - m0
        if 0.0 < rho < 1.0 and 0.0 < tail < math.inf:
            n = lag + math.ceil(math.log(tol / tail) / math.log(math.sqrt(rho * self.ratio)))
        else:
            n = 2 * size
        n = min(max(n, self.q + 2 if size else 0), _BLOCK_CELLS // self._row_start.size)
        return min(m1 + n, max_terms + 1)


def _mode_coefficients(kind: str, sig: Sequence[float]) -> dict[int, float]:
    """coeff[j] of each shift j, from the elementary symmetric sums of w."""
    q = len(sig) - 1
    if kind == "at_zero":
        return {j: sig[j - 1] for j in range(1, q + 1)}
    return {0: 1.0, **{j: sig[j] + sig[j - 1] for j in range(1, q + 1)}}


@np.errstate(invalid="ignore", divide="ignore")
def _geometric_walk(stream: _SeriesStream, term, tol: float, max_terms: int, m0: int, window: int = 1, growth=False):
    """(outputs up to the stop, tail there) of ``term`` on blocks from m0,
    or None if the tail is still above ``tol`` after ``max_terms``.

    term(m, w, env) gives magnitudes, a tuple of output arrays, and None or
    the error of its last index (past which it stops), raised unless the
    walk stops first.  The tail from m = q + 2 on is the largest of the
    last ``window`` magnitudes times rho / (1 - rho), rho the envelope
    ratio, times (m+1)/m with ``growth``.
    """
    q, lag, parts = stream.q, window - 1, []
    recent = np.zeros(lag)
    rho = stream.envelope_ratio(q + 2) * ((q + 3) / (q + 2) if growth else 1.0)
    # the burn-in, and what a unit magnitude at its end would take to stop
    m1 = stream.next_end(q + 3, q + 3, rho / (1.0 - rho) if rho < 1.0 else math.inf, tol, rho, max_terms, lag)
    while m0 < m1:
        m = np.arange(m0, m1, dtype=float)
        mag, out, failure = term(m, *stream.block(m0, m1))
        m, mag = m[: mag.size], np.concatenate((recent, mag))
        largest = np.maximum.reduce(mag[np.arange(window)[:, None] + np.arange(m.size)], axis=0)
        rho = stream.envelope_ratio(m) * ((m + 1) / m if growth else 1.0)
        tail = largest * rho / (1.0 - rho)
        stop = (m >= q + 2) & (rho < 1.0) & (tail < tol)
        i = int(stop.argmax())
        if stop[i] and (failure is None or i < m.size - 1):
            parts.append([o[: i + 1] for o in out])
            return [np.concatenate(o) for o in zip(*parts)], float(tail[i])
        if failure is not None:
            raise failure
        parts.append(out)
        recent = mag[m.size:]
        m0, m1 = m1, stream.next_end(m0, m1, mag[-1] * rho[-1] / (1.0 - rho[-1]), tol, rho[-1], max_terms, lag)
    return None


def _truncated_series(pv: ParameterVector, kind: str, tol: float, max_terms: int) -> SeriesCoefficients:
    stream = _SeriesStream(pv, kind)
    # from m = 0, which is the leading 1 at_one
    walked = _geometric_walk(stream, lambda m, w, env: (env, (w, env), None), tol, max_terms, 0)
    if walked is None:
        raise Nonconvergence(
            f"series {kind} for q={pv.q}, a={pv.a} still above tol={tol} after {max_terms} terms"
        )
    (values, env), _ = walked
    values = values[1:]
    m = values.size
    drift = math.fsum((stream.rounding(np.arange(1, m + 1)) * env[1:]).tolist())
    # The float envelopes sum to within drift of the exact ones for the
    # float inputs, so total - seen + drift bounds the truncation tail plus
    # the weight error that the rounding of the inputs makes.  The float
    # weights add another drift, and the two roundings of total - seen add
    # eps * total.  Horner in reconstruct() errs by gamma_(2m) * sum |values|
    # (Higham 2002, §5.1), plus m half-ulps of it for the rounding of u - 1;
    # both fit in (2m + 1) eps * sum |values| on the convergence interval,
    # where |base| <= 1.
    total, seen = stream.envelope_total(), math.fsum(env.tolist())
    truncation = total - seen
    rounding = 2 * drift + _EPS * total + (2 * m + 1) * _EPS * math.fsum(np.abs(values).tolist())
    return SeriesCoefficients(
        kind=kind,
        values=tuple(values.tolist()),
        truncation_index=m,
        tail_estimate=truncation + rounding + _TAIL_FLOOR,
    )


def series_at_zero(pv: ParameterVector, tol: float = 1e-12, max_terms: int = 10**6) -> SeriesCoefficients:
    """Weights of T(u) = sum_{m>=1} w_m u^m, valid on [-1, 1].

    Requires ``pv.series_at_zero_ok``.  When ``pv.pmf_ok`` holds the
    weights are all non-negative and sum to one: they are the distribution
    of the random sample size in the maxima construction.
    """
    return _truncated_series(pv, "at_zero", tol, max_terms)


def series_at_one(pv: ParameterVector, tol: float = 1e-12, max_terms: int = 10**6) -> SeriesCoefficients:
    """Weights of T(u) = 1 + sum_{m>=1} w_m (u-1)^m, valid on [0, 2].

    Requires ``pv.series_at_one_ok``.
    """
    return _truncated_series(pv, "at_one", tol, max_terms)
