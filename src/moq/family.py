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

    def describe_conditions(self) -> str:
        return (
            f"series_at_zero_ok={self.series_at_zero_ok} "
            f"series_at_one_ok={self.series_at_one_ok} pmf_ok={self.pmf_ok}"
        )


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
    sigma: tuple[float, ...]

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
    """Streaming evaluator for the series weights, shared by the truncated
    builders, the moment series, and the lazily extended sampling tables.

    Each weight of index m is a finite sum over shifts j of

        pref * coeff[j] * C(k+q-1, q-1) * srat^k,    k = m - j,

    evaluated in log space so that the binomial growth and the geometric
    decay never overflow on the way to a representable product.
    """

    def __init__(self, pv: ParameterVector, kind: str):
        q, big_s = pv.q, pv.sum_a
        self.q = q
        self.kind = kind
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
        sig = elementary_symmetric(w, q)
        self.sigma = tuple(sig[:q])
        self.coeff = _mode_coefficients(kind, sig)
        self._log_coeff = {j: math.log(abs(cj)) for j, cj in self.coeff.items() if cj != 0.0}
        self.ratio = abs(self.srat)
        self._log_ratio = math.log(self.ratio) if self.ratio > 0.0 else -math.inf
        # Rounding scales for the error bounds below.  Each coefficient is
        # within 2(q+1) eps of the same coefficient built from |w| (the
        # recurrence of elementary_symmetric and the rounding of w; Higham
        # 2002, §3.1), srat within 2 eps of its value for the exact S, and
        # log_pref within 3 eps * pref_mag; the 3 eps (q + 2) on top covers
        # the few roundings inside envelope_total.
        abs_coeff = _mode_coefficients(kind, elementary_symmetric(map(abs, w), q))
        self._coeff_err = 2 * (q + 1) * _EPS * math.fsum(abs_coeff.values())
        self._pref_err = 3 * _EPS * (pref_mag + q + 2)
        self._log_mag = max(map(abs, self._log_coeff.values()), default=0.0) + abs(self.log_pref) + 1

    def value_and_envelope(self, m: int) -> tuple[float, float]:
        """The weight of index m together with its absolute-value envelope.

        The envelope is the same mode sum with every sign dropped.  Unlike
        the weight itself it cannot dip through cancellation, so it is the
        quantity the tail bounds have to be built from when the modes carry
        mixed signs.
        """
        logs: list[float] = []
        signs: list[float] = []
        q1 = self.q - 1
        for j, log_c in self._log_coeff.items():
            k = m - j
            if k < 0:
                continue
            if k > 0 and self.ratio == 0.0:
                continue
            # log of the exact integer binomial: lgamma(k+q) - lgamma(k+1)
            # would leave a few ulp of lgamma(k+q), about eps * k * log k
            lg = math.log(math.comb(k + q1, q1)) + log_c
            lg += k * self._log_ratio if k > 0 else 0.0
            logs.append(lg)
            signs.append(math.copysign(1.0, self.coeff[j]) * (1.0 if (k % 2 == 0 or self.srat >= 0.0) else -1.0))
        if not logs:
            return 0.0, 0.0
        top = max(logs)
        if top + self.log_pref == -math.inf:
            return 0.0, 0.0
        scale = math.exp(top + self.log_pref)
        acc = math.fsum(s * math.exp(lg - top) for s, lg in zip(signs, logs))
        env = math.fsum(math.exp(lg - top) for lg in logs)
        return acc * scale, env * scale

    def value(self, m: int) -> float:
        return self.value_and_envelope(m)[0]

    def rounding(self, m: int) -> float:
        """Relative bound on the float error of :meth:`value_and_envelope` at m.

        Weight and envelope are both within this fraction of the envelope
        of their values for the float inputs (coeff, srat, log_pref).  The
        parts of every exponent, log_pref included, sum to at most ``mag - 1``
        in magnitude, since C(k+q-1, q-1) <= (1 + k)^(q-1).  With libm log
        and exp within 1 ulp, the error of the exponents and the roundings
        around them stay below 4 eps * mag; the factor 5 leaves room for the
        second-order terms.
        """
        mag = (self.q - 1) * math.log1p(m) + self._log_mag
        if self.ratio > 0.0:
            mag -= m * self._log_ratio
        return 5 * _EPS * mag

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
        coeff = math.fsum(map(abs, self.coeff.values())) + self._coeff_err
        return math.exp(self.log_pref + self._pref_err) * coeff / (1.0 - ratio) ** self.q

    def envelope_ratio(self, m: int) -> float:
        """Bound on envelope(m+1) / envelope(m), valid for m >= q + 1.

        Mode j scales by ratio * (m-j+q)/(m-j+1) per index, which is
        largest for the youngest mode j = q; the bound is decreasing in m,
        so once it drops below one the envelope tail is geometric.
        """
        if m <= self.q:
            return math.inf
        return self.ratio * m / (m - self.q + 1)


def _mode_coefficients(kind: str, sig: Sequence[float]) -> dict[int, float]:
    """coeff[j] of each shift j, from the elementary symmetric sums of w."""
    q = len(sig) - 1
    if kind == "at_zero":
        return {j: sig[j - 1] for j in range(1, q + 1)}
    return {0: 1.0, **{j: sig[j] + sig[j - 1] for j in range(1, q + 1)}}


def _truncated_series(pv: ParameterVector, kind: str, tol: float, max_terms: int) -> SeriesCoefficients:
    stream = _SeriesStream(pv, kind)
    q = pv.q
    values: list[float] = []
    envelopes = [stream.value_and_envelope(0)[1]]  # at_one: the leading 1
    drift = 0.0
    burn_in = q + 2
    m = 0
    while m < max_terms:
        m += 1
        val, env = stream.value_and_envelope(m)
        values.append(val)
        envelopes.append(env)
        drift += stream.rounding(m) * env
        if m < burn_in:
            continue
        rho = stream.envelope_ratio(m)
        if rho >= 1.0:
            continue
        if env * rho / (1.0 - rho) < tol:
            break
    else:
        raise Nonconvergence(
            f"series {kind} for q={q}, a={pv.a} still above tol={tol} after {max_terms} terms"
        )
    # The float envelopes sum to within drift of the exact ones for the
    # float inputs, so total - seen + drift bounds the truncation tail plus
    # the weight error that the rounding of the inputs makes.  The float
    # weights add another drift, and the two roundings of total - seen add
    # eps * total.  Horner in reconstruct() errs by gamma_(2m) * sum |values|
    # (Higham 2002, §5.1), plus m half-ulps of it for the rounding of u - 1;
    # both fit in (2m + 1) eps * sum |values| on the convergence interval,
    # where |base| <= 1.
    total, seen = stream.envelope_total(), math.fsum(envelopes)
    truncation = total - seen
    rounding = 2 * drift + _EPS * total + (2 * m + 1) * _EPS * math.fsum(abs(v) for v in values)
    return SeriesCoefficients(
        kind=kind,
        values=tuple(values),
        truncation_index=m,
        tail_estimate=truncation + rounding + _TAIL_FLOOR,
        sigma=stream.sigma,
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
