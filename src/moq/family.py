"""The multi-parameter distortion function and its power-series expansions.

Everything in this package is built on one monotone map of the unit
interval.  For ``q`` strictly positive parameters ``a = (a_1, ..., a_q)``
with ``S = a_1 + ... + a_q``, c_i = q a_i / S and the ratios
w = q u / (q u + S (1-u)) and r = 1 - w, the distortion is

    T(u) = w * prod_{i=2}^{q} (w + c_i * r),

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
from functools import cached_property, lru_cache
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

# Indices of a series stream kept once formed (see _SeriesStream).
_PREFIX_CAP = 8192

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


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
    lo, hi = np.minimum.reduce(arr, axis=None, initial=0.0), np.maximum.reduce(arr, axis=None, initial=1.0)
    if not (lo >= -slack and hi <= 1.0 + slack):
        bad = arr if scalar else arr[~((arr >= -slack) & (arr <= 1.0 + slack))][:1]
        raise DomainError(f"u = {np.ravel(bad)[:1]} outside [0, 1] beyond tolerance {slack}")
    return (np.clip(arr, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else arr), scalar


def distortion(pv: ParameterVector, u):
    """Evaluate the distortion T(u) on [0, 1].

    T = w prod_{i>=2} (w + c_i r) in the ratios w = q u / D and
    r = S (1-u) / D, D = q u + S (1-u), c_i = q a_i / S.  Each factor lies
    between min(1, c_i) and max(1, c_i), so no q overflows, and T(0) = 0
    and T(1) = 1 are exact in floating point.
    """
    uu, scalar = _as_unit_interval(u)
    t = _distortion(pv, uu, 1.0 - uu)  # in [0, 1] analytically; rounding can poke an ulp or two past 1
    return _ret(np.minimum(t, 1.0, out=t), scalar)


def _ratios(pv: ParameterVector, uu: np.ndarray, s: np.ndarray):
    """(w, r) = (q u, S s) / (q u + S s), each its own quotient, arrays even for 0-d u."""
    v = np.multiply(uu, pv.q / pv.sum_a, out=np.empty(np.shape(uu)))
    den = np.add(s, v, out=np.empty_like(v))
    return np.divide(v, den, out=v), np.divide(s, den, out=den)


def _distortion(pv: ParameterVector, uu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """T(u) from u and s = 1 - u, each with its own digits; see distortion."""
    w, r = _ratios(pv, uu, s)
    t, f = w.copy(), np.empty_like(w)
    for ci in _weights(pv)[0]:
        t *= np.add(w, np.multiply(r, ci, out=f), out=f)
    return t


def distortion_deriv(pv: ParameterVector, u):
    """Evaluate T'(u) >= 0 on [0, 1], with T'(1) = a_1 exactly.

    In the ratios of :func:`distortion`, T' = (w + (q/S) r) B with
    B = P (r + a_1 w) + w r sum_{i>=2} (1 - a_i)(1 - c_i) P / (w + c_i r)
    and P = prod_{i>=2} (w + c_i r).  a_1 stays a factor of its own, so
    nothing cancels near u = 1 when a_1 is far below the other parameters;
    at u = 1, w = 1 and r = 0, and T'(1) = a_1 bit for bit.
    """
    uu, scalar = _as_unit_interval(u)
    return _ret(_deriv(pv, uu, 1.0 - uu), scalar)


def _deriv(pv: ParameterVector, uu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """T'(u) from u and s = 1 - u, each with its own digits; see distortion_deriv."""
    w, r = _ratios(pv, uu, s)
    bracket = _bracket(pv, w, r)
    return np.multiply(bracket, np.add(w, np.multiply(r, pv.q / pv.sum_a, out=r), out=r), out=bracket)


def _bracket(pv: ParameterVector, w: np.ndarray, r: np.ndarray):
    """B of distortion_deriv at the ratios (w, r).  In place: at 1e5
    elements a fresh array costs about four in-place passes."""
    c, k, _ = _weights(pv)
    bracket = np.multiply(w, pv.a[0], out=np.empty_like(w))
    bracket += r
    if not c:  # q = 1: P = 1 and the sum is empty
        return bracket
    prod, corr = np.multiply(r, c[0], out=np.empty_like(w)), np.full_like(w, k[0])
    prod += w  # P opens with the first factor and the sum with k_2, not with 1 and 0
    f, term = np.empty_like(w), np.empty_like(w)
    for ci, ki in zip(c[1:], k[1:]):
        np.add(w, np.multiply(r, ci, out=f), out=f)
        corr *= f
        corr += np.multiply(prod, ki, out=term)
        prod *= f
    bracket *= prod
    corr *= w
    corr *= r
    return np.add(bracket, corr, out=bracket)


@lru_cache(maxsize=256)
def _weights(pv: ParameterVector) -> tuple[tuple[float, ...], ...]:
    """c_i = q a_i / S and k_i = (1 - a_i)(1 - c_i) for i >= 2, and the weights
    g_k = C(q, k) - e_k(c_2, ..., c_q) >= 0 of 1 - T = sum_k g_k w^(q-k) r^k,
    with g_1 = q a_1 / S, which the difference would lose to cancellation."""
    q = pv.q
    c = [q * (ai / pv.sum_a) for ai in pv.a[1:]]
    e = elementary_symmetric(c, q)
    g = [math.comb(q, k) - e[k] for k in range(q + 1)]
    g[1] = q * pv.a[0] / pv.sum_a
    return tuple(c), tuple((1.0 - ai) * (1.0 - ci) for ai, ci in zip(pv.a[1:], c)), tuple(g)


def distortion_complement(pv: ParameterVector, s):
    """Evaluate 1 - T(1 - s) with relative accuracy on [0, 1].

    In the ratios of :func:`distortion` it is sum_k g_k w^(q-k) r^k with
    all g_k >= 0 (:func:`_weights`): no term cancels another, near s = 0
    (where it behaves like a_1 s) or anywhere else, and no weight
    overflows however large the parameters.
    """
    ss, scalar = _as_unit_interval(s)
    return _ret(_complement(pv, 1.0 - ss, ss), scalar)


def _complement(pv: ParameterVector, uu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """1 - T(u) from u and s = 1 - u, each with its own digits; see
    distortion_complement."""
    w, r = _ratios(pv, uu, s)
    acc = _complement_sum(pv, w, r)
    return np.multiply(acc, r, out=acc)


def _complement_sum(pv: ParameterVector, w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(1 - T) / r = sum_{k>=1} g_k w^(q-k) r^(k-1) at the ratios (w, r), by Horner in r."""
    g = _weights(pv)[2]
    acc, wk, term = np.full_like(r, g[-1]), w.copy(), np.empty_like(w)
    for gk in g[-2:0:-1]:
        acc *= r
        acc += np.multiply(wk, gk, out=term)
        wk *= w
    return acc


_INVERSE_TOL, _INVERSE_MAX_ITER = 1e-12, 200  # distortion_inverse's step tolerance and pass cap


def distortion_inverse(pv: ParameterVector, p, *, survival: bool = False, split: bool = False):
    """Solve T(u) = p, or with ``survival`` 1 - T(u) = p, for u in [0, 1].

    ``split`` returns (x, upper), arrays even for a scalar p: x = u, or where
    ``upper`` 1 - u, the smaller of the two with its own digits.  As T(u) =
    T_c(w) for c = q a / S and w = q u / (q u + S (1-u)) (see
    :func:`composition_pair`), the unknown is the smaller of w and 1 - w at
    the root, as T_c(1/2) = 2^-q prod (1 + c_i) decides, and the residual is
    T_c - p where p <= 1/2, else (1 - T_c) - (1 - p), from :func:`distortion`
    and :func:`distortion_complement` of c.  All levels form one active set,
    started from a cached cubic table on log levels (:func:`_start_table`);
    Newton steps stay inside each bracket (rtsafe, Press et al., *Numerical
    Recipes*, §9.4), else bisect, until the step is below tol = 1e-12 times
    the iterate, or sqrt(tol) / 100 times it for a step inside the bracket,
    which leaves an error of the order of its square.  The start errs by a
    few 1e-9 at most in the logit of the root, so the first step is below
    that bound and one pass ends nearly every level.  Until a pass leaves a
    level open, the bracket is [0, 1] and the last step 1 for every level,
    as scalars; levels that end drop out, and each root is the one its
    level alone would get.

    Raises
    ------
    DomainError
        If ``p`` is outside (0, 1).
    Nonconvergence
        If 200 passes leave a relative residual above 1e-9.
    """
    pp, scalar = _check_prob(p)
    x, upper = _newton(pv, pp, survival)
    if split:
        return x, upper
    u = np.where(upper, 1.0 - x, x)
    return _ret(u, scalar)


# Cells of the start table per level side.  The cubic errs as the fourth
# power of the cell: at 4096 cells by at most 1.5e-9 in the logit on the
# benchmark's sampling specs and 4.8e-9 on 100 random vectors (q <= 6, a
# log-uniform in [1e-3, 1e3]), below the 1e-8 of the one-pass stop; 2048
# left 1.02 passes per level on the two-wave spec.
# Beyond the first node, w or r = 4.2e-18 (logit 40), T and 1 - T are linear
# to rounding unless some a_i is extreme.
_START_CELLS = 4096


def _log_distortion(pc: ParameterVector, w: np.ndarray, r: np.ndarray):
    """log T_c and its derivative in the logit t of w at the ratios (w, r), for
    c of S = q: a sum of logs, and w r T' / T = r B / P (see distortion_deriv)
    as a sum of terms >= 0, so neither cancels nor underflows for large q."""
    c, k, _ = _weights(pc)
    log_t, acc, f = np.log(w), np.zeros_like(w), np.empty_like(w)
    for ci, ki in zip(c, k):
        np.add(w, np.multiply(r, ci, out=f), out=f)
        acc += ki / f
        log_t += np.log(f)
    return log_t, r * (r + pc.a[0] * w + w * r * acc)


@lru_cache(maxsize=64)
@np.errstate(all="ignore")
def _start_table(pv: ParameterVector):
    """c of distortion_inverse, its sum set to q so that w takes no rounding; T_c and
    1 - T_c at w = 1/2; per level side the logit t of w at the root on log levels y
    in equal cells up to log(1/2), as a cubic in the fraction of a cell:
    (least, cells per unit, coefficients of shape (4, cells), constant term first).
    Each node's t takes two Newton steps in t from a linear interpolation on a
    grid of t, which leave it to rounding.  A cell's cubic is the Hermite one
    of its end nodes' t and dt/dy, from :func:`_log_distortion`: 1 / (d log
    T_c / dt), or on the 1 - T_c side -(1 - T_c) / (T_c d log T_c / dt).  A
    table holds 262 kB, so the cache keeps 64.  The coefficients are gathered
    row by row: as one (levels, 4) block, 1e5 levels would take 3.2 MB that
    malloc maps afresh, page faults included, on every call."""
    pc = ParameterVector(pv.q, tuple(pv.q * (ai / pv.sum_a) for ai in pv.a), float(pv.q))
    half = np.full(1, 0.5)
    sides = _distortion(pc, half, half)[0], _complement(pc, half, half)[0]
    t = np.linspace(-40.0, 40.0, 4097)  # interpolated on it, a node's t starts within about 3e-5
    w, r = 1.0 / (1.0 + np.exp(-t)), 1.0 / (1.0 + np.exp(t))
    ends, nodes, roots = [], [], []
    for y, logit in ((_log_distortion(pc, w, r)[0], t), (np.log(_complement(pc, w, r))[::-1], t[::-1])):
        y, logit = y[np.isfinite(y)], logit[np.isfinite(y)]
        cell = (math.log(0.5) - y[0]) / _START_CELLS
        ends.append((y[0], cell))
        nodes.append(y[0] + cell * np.arange(_START_CELLS + 1))
        roots.append(np.interp(nodes[-1], y, logit))
    n, nodes, t = _START_CELLS + 1, np.concatenate(nodes), np.concatenate(roots)
    for _ in range(2):  # on both sides at once, the 1 - T_c side from t[n] on
        w, r = 1.0 / (1.0 + np.exp(-t)), 1.0 / (1.0 + np.exp(t))
        y, slope = _log_distortion(pc, w, r)
        comp = _complement(pc, w[n:], r[n:])
        slope[n:] *= -np.exp(y[n:]) / comp  # d log(1 - T) / dt = -T / (1 - T) d log T / dt
        y[n:] = np.log(comp)
        t -= (y - nodes) / slope
    # dt per cell at each node, from before the last step, which moves t by a few 1e-10 at most
    dt = np.repeat([cell for _, cell in ends], n) / slope
    rise = np.diff(t)
    coef = np.stack((t[:-1], dt[:-1], 3.0 * rise - 2.0 * dt[:-1] - dt[1:], dt[:-1] + dt[1:] - 2.0 * rise))
    tables = [(least, 1.0 / cell, part) for (least, cell), part in zip(ends, (coef[:, : n - 1], coef[:, n:]))]
    return pc, sides, tables


@np.errstate(all="ignore")
def _newton(pv: ParameterVector, level: np.ndarray, survival: bool):
    """(x, upper) of distortion_inverse with ``split``; ``level`` holds p, or with ``survival`` 1 - p."""
    tol, max_iter = _INVERSE_TOL, _INVERSE_MAX_ITER
    pc, (t_half, c_half), tables = _start_table(pv)
    small = np.fmin(level, 1.0 - level)  # exact: 1 - level is, where level >= 1/2
    on_c = level <= 0.5 if survival else level > 0.5  # the smaller level is 1 - T
    # w > 1/2 at the root where the smaller level lies beyond its value at w = 1/2
    up = (on_c & (small < c_half)) | (~on_c & (small > t_half))
    # sorted T-lower, T-upper, C-upper, C-lower: each level side is a slice, as are the roots in r
    key = 2 * on_c.astype(np.uint8) + (on_c != up)
    idx = np.argsort(key, kind="stable")
    b1, b2, b3 = (np.count_nonzero(key <= j) for j in range(3))
    lam = small[idx]
    # the start: logit t of w from the level side's table, x = w = 1 / (1 + e^-t) or r = 1 - w;
    # below the first node only the linear term counts, as T and 1 - T are linear there
    x = np.empty_like(level)
    for part, (least, per_cell, coef) in zip((slice(0, b2), slice(b2, None)), tables):
        pos = (np.log(lam[part]) - least) * per_cell
        k = np.fmin(np.fmax(pos, 0.0), _START_CELLS - 1).astype(np.intp)
        frac = pos - k
        cubic = np.fmax(frac, 0.0)
        start = coef[3][k]
        start *= cubic
        start += coef[2][k]
        start *= cubic
        start += coef[1][k]
        start *= frac
        x[part] = np.add(start, coef[0][k], out=start)
    x[b1:b3] *= -1.0
    np.fmin(np.fmax(1.0 / (1.0 + np.exp(-x)), 5e-324), 0.5, out=x)
    del small, on_c, up, key, pos, k, frac, cubic, start

    def ratios(x, b1, b3):  # (w, r) from the smaller of the two, r = x between b1 and b3
        return (np.concatenate((x[:b1], 1.0 - x[b1:b3], x[b3:])),
                np.concatenate((1.0 - x[:b1], x[b1:b3], 1.0 - x[b3:])))

    # bracket [0, 1] in every group, as a root at 1/2 may round past it; the bracket
    # and the last step are scalars until the first pass makes them columns
    lo, hi, step, edges, open_at = 5e-324, 1.0, 1.0, (b1, b3), None
    for it in range(max_iter):
        w, r = ratios(x, b1, b3)
        resid = np.empty_like(x)  # one public evaluation of T_c per pass, and of 1 - T_c if needed
        resid[:b2] = distortion(pc, w[:b2])
        if b2 < x.size:
            resid[b2:] = distortion_complement(pc, r[b2:])
        resid -= lam
        resid[b1:b2] *= -1.0  # T falls in r, and 1 - T in w
        resid[b3:] *= -1.0
        # x - resid / slope, with the slope dT_c/dw = B (as S = q) in every group
        newton = _bracket(pc, w, r)
        np.subtract(x, np.divide(resid, newton, out=newton), out=newton)
        del w, r
        # lo <= x <= hi: x * (resid < 0) moves lo up to x, x / (resid > 0) hi down
        lo, hi = np.fmax(lo, x * (resid < 0.0)), np.fmin(hi, x / (resid > 0.0))
        move = np.abs(newton - x)
        fast = (newton > lo) & (newton < hi) & (move <= 0.5 * np.abs(step))
        # a Newton step leaves an error of the order of its square, so one
        # below sqrt(tol) / 100 of the iterate is the last
        done = move <= (tol + (0.01 * math.sqrt(tol) - tol) * fast) * x
        # geometric bisection: the bracket may span hundreds of decades
        if (bisect := np.flatnonzero(~(done | fast))).size:
            newton[bisect] = np.sqrt(lo[bisect]) * np.sqrt(hi[bisect])
        x, step = newton, np.subtract(newton, x, out=x)
        del move, fast, newton
        if it == max_iter - 1 and (worst := float(np.max(np.abs(resid[~done]) / lam[~done], initial=0))) > 1e-9:
            raise Nonconvergence(f"distortion inverse stalled at relative residual {worst:.3e}")
        if it == max_iter - 1 or done.all():
            break
        if (stop := np.flatnonzero(done)).size:
            if open_at is None:  # the first levels to end: the open ones are tracked from here
                root, open_at = np.empty_like(x), np.arange(x.size)
            root[open_at[stop]] = x[stop]
            keep = np.flatnonzero(~done)
            b1, b2, b3 = np.searchsorted(keep, (b1, b2, b3)).tolist()
            x, lo, hi, step, lam, open_at = x[keep], lo[keep], hi[keep], step[keep], lam[keep], open_at[keep]
            del keep
    else:  # no passes at all
        raise Nonconvergence(f"distortion inverse stalled at relative residual {math.inf:.3e}")
    if open_at is None:
        root = x
    else:
        root[open_at] = x
    del x, lo, hi, step, lam, resid, done
    # back through the equal-parameter map, in sorted order: the smaller of
    # u = S w / (S w + q r) and s = q r / (S w + q r)
    sw, qr = ratios(root, *edges)
    sw *= pv.sum_a
    qr *= pv.q
    x, upper = np.empty_like(root), np.empty(root.shape, dtype=bool)
    x[idx], upper[idx] = np.fmin(sw, qr) / (sw + qr), qr < sw
    return x, upper


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
    builders (the samplers' count CDF among them) and the moment series.

    Each weight of index m is a finite sum over shifts j of

        pref * coeff[j] * C(k+q-1, q-1) * srat^k,    k = m - j,

    evaluated in log space so that the binomial growth and the geometric
    decay never overflow on the way to a representable product.
    :meth:`block` evaluates a range of indices in a few numpy calls.
    Callers walk blocks sized by :meth:`next_end` and take partial sums
    with np.cumsum, the running total added to each block's first term:
    that keeps the left-to-right order of a term-by-term loop, so where a
    series stops does not depend on the block sizes.

    The weights and envelopes of the indices below ``_PREFIX_CAP`` (8,192)
    are formed once per stream and kept, as one read-only prefix: at most
    128 KiB per stream, 32 MiB over the 256 that ``_series_stream``
    caches.  A block that ends past the cap takes its kept indices from
    the prefix and evaluates the rest afresh each time.
    As no weight depends on the block that holds it, the kept values are
    the ones a fresh evaluation gives, bit for bit.
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
        # (weights, envelopes) of the indices formed so far, one attribute so
        # that a reader never pairs arrays of two different fills
        self._prefix = (np.empty(0), np.empty(0))

    def block(self, m0: int, m1: int) -> tuple[np.ndarray, np.ndarray]:
        """The weights of the indices m0 <= m < m1 (m0 < m1) and their envelopes,
        read-only where m1 <= _PREFIX_CAP.

        The envelope is the same mode sum with every sign dropped.  Unlike
        the weight itself it cannot dip through cancellation, so it is the
        quantity the tail bounds have to be built from when the modes carry
        mixed signs.
        """
        prefix = self._prefix
        if m1 > _PREFIX_CAP:  # the kept indices from the prefix, the rest afresh
            n = max(m0, prefix[0].size)
            return tuple(np.concatenate((p[m0:n], f)) for p, f in zip(prefix, self._evaluate(n, m1)))
        if m1 > prefix[0].size:
            prefix = tuple(np.concatenate(p) for p in zip(prefix, self._evaluate(prefix[0].size, m1)))
            for p in prefix:
                p.flags.writeable = False
            self._prefix = prefix
        return prefix[0][m0:m1], prefix[1][m0:m1]

    def _evaluate(self, m0: int, m1: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`block` of m0 <= m < m1, evaluated afresh."""
        k0 = m0 - self._last
        # log C(k+q-1, q-1) + k log|srat| for k = m0 - last .. m1 - 1 - first,
        # -inf where k < 0 (or k > 0 with srat = 0)
        kr = np.arange(max(k0, 0), m1 - self._first, dtype=float)
        log_binom = self._log_binomials(kr)
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

    def _log_binomials(self, kr: np.ndarray) -> np.ndarray:
        """log C(k+q-1, q-1) for the consecutive k of ``kr``.  The binomial is
        the float product of the (k+i)/i, within 2(q-1) eps, or, from the
        first k where that product overflows, the exact integer: one
        math.comb there, then C(k+q, q-1) = C(k+q-1, q-1) (k+q) / (k+1)."""
        with np.errstate(over="ignore"):
            binom = np.multiply.reduce((kr[:, None] + self._binom_i) / self._binom_i, axis=1)
        log_binom = np.log(binom)
        if kr.size and math.isinf(binom[-1]):
            n0 = int(np.argmax(np.isinf(binom)))
            k, q1 = int(kr[n0]), self.q - 1
            exact = math.comb(k + q1, q1)
            for n in range(n0, kr.size):
                log_binom[n] = math.log(exact)
                exact = exact * (k + self.q) // (k + 1)
                k += 1
        return log_binom

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
        of the inputs leaves in the weights.  The product is formed in log
        space, as pref and (1 - ratio)^q each underflow for large q while
        their quotient need not; a sum beyond the float range raises
        :class:`Nonconvergence`, as no tail can be bounded then.
        """
        ratio = self.ratio + 3 * _EPS
        if ratio >= 1.0:
            return math.inf
        # srat is within 2 eps of its value for the exact S, and log_pref
        # within 3 eps * pref_mag; the 3 eps (q + 2) on top covers the few
        # roundings here.
        q = self.q
        pref_err = 3 * _EPS * (self._pref_mag + q + 2)
        # log and log1p within an ulp, the product and the three sums each
        # within eps of their magnitudes, and exp within an ulp, on top
        log_coeff, log_power = math.log(self._coeff_total), -q * math.log1p(-ratio)
        log_err = 5 * _EPS * (abs(self.log_pref) + log_coeff + log_power + 1)
        log_total = self.log_pref + pref_err + log_coeff + log_power + log_err
        if not log_total < _LOG_FLOAT_MAX:
            raise Nonconvergence(
                f"series {self.kind} for q={q}: its envelopes sum to exp({log_total:.6g}), "
                "beyond the float range, so no tail can be bounded"
            )
        return math.exp(log_total)

    @cached_property
    def _coeff_total(self) -> float:
        """sum_j |coeff[j]|, raised by its rounding bound: each coefficient is
        within 2(q+1) eps of the same coefficient built from |w| (the
        recurrence of elementary_symmetric and the rounding of w; Higham
        2002, §3.1).  Formed on the first call of :meth:`envelope_total`, as
        the |w| coefficients cost O(q^2) and serve nothing else."""
        abs_coeff = _mode_coefficients(self.kind, elementary_symmetric(map(abs, self._w), self.q))
        return math.fsum(map(abs, self.coeff.values())) + 2 * (self.q + 1) * _EPS * math.fsum(abs_coeff.values())

    def envelope_ratio(self, m):
        """Bound on envelope(m+1) / envelope(m) for m >= q + 1, array-friendly.

        Mode j scales by ratio * (m-j+q)/(m-j+1) per index, which is
        largest for the youngest mode j = q; the bound is decreasing in m,
        so once it drops below one the envelope tail is geometric.
        """
        return self.ratio * m / (m - self.q + 1)

    def next_end(self, m0: int, m1: int, mag: float, tol: float, max_terms: int, lag: int = 0,
                 growth: bool = False) -> int:
        """End of the block after [m0, m1), whose last index m = m1 - 1 has
        the magnitude ``mag``: ``lag`` past the index where the tail of
        _geometric_walk, with or without its factor ``growth``, is predicted
        to fall below ``tol`` (see :meth:`_stop_offset`); twice the last
        size where ratio >= 1 or ratio = 0, or where ``mag`` is 0 or not
        finite; at least q + 2 terms.  m0 = m1 = q + 3 with a unit ``mag``
        gives the first block, which adds to the burn-in only where the
        ratio bound is below one at m.
        """
        size, m, ratio = m1 - m0, m1 - 1, self.ratio
        cap = _BLOCK_CELLS // self._row_start.size
        if 0.0 < ratio < 1.0 and 0.0 < mag < math.inf:
            g = 1.0 if growth else 0.0
            x0 = (self.q - 1 + g * ratio) / (1.0 - ratio)  # rho(x) < 1 exactly for x > x0
            n = lag + self._stop_offset(m, mag, tol, g, x0, cap) if size or m > x0 else 0
        else:
            n = 2 * size
        n = min(max(n, self.q + 2 if size else 0), cap)
        return min(m1 + n, max_terms + 1)

    def _stop_offset(self, m: int, mag: float, tol: float, g: float, x0: float, cap: int) -> int:
        """Indices from m, at most ``cap``, to the first k > x0 where ``mag``,
        the magnitude at m, scaled by the envelope growth C(k-j+q-1, q-1)
        ratio^(k-m) of the youngest mode j, which grows fastest, and by the
        factor growth ((k+1)/(m+1))^g, times rho(k) / (1 - rho(k)), is below
        ``tol``.  As rho(x) = ratio (x+g) / (x-q+1), that last factor is
        ratio (x+g) / ((1 - ratio)(x - x0)).  The predicted tail falls past
        x0, so Newton steps on its log, made continuous in k by lgamma, find
        the index, from the first k > x0 not below m; the slope of
        log C(x-j+q-1, q-1) is taken as log((x-j+q-1/2) / (x-j+1/2)).  A
        prediction, not a bound: the walk checks every index it forms.
        """
        q, j, log_ratio = self.q, self._last, self._log_ratio
        lo = max(m, math.floor(x0) + 1)
        if lo - m >= cap:
            return cap

        def grown(x):  # the log of the growth to x, up to a constant
            return math.lgamma(x - j + q) - math.lgamma(x - j + 1) + x * log_ratio + g * math.log(x + 1)

        excess = math.log(mag) - math.log(tol) + log_ratio - math.log1p(-self.ratio) - grown(m)
        x = lo
        for _ in range(32):  # a few steps converge; this bounds a stall
            h = excess + grown(x) + math.log((x + g) / (x - x0))
            slope = (math.log((x - j + q - 0.5) / (x - j + 0.5)) + log_ratio + g / (x + 1)
                     + 1.0 / (x + g) - 1.0 / (x - x0))
            if not (abs(h) > 1e-3 and slope < 0.0):
                break
            x, last = min(max(x - h / slope, lo), m + cap), x
            if x == last:
                break
        return math.ceil(x) - m


def _mode_coefficients(kind: str, sig: Sequence[float]) -> dict[int, float]:
    """coeff[j] of each shift j, from the elementary symmetric sums of w."""
    q = len(sig) - 1
    if kind == "at_zero":
        return {j: sig[j - 1] for j in range(1, q + 1)}
    return {0: 1.0, **{j: sig[j] + sig[j - 1] for j in range(1, q + 1)}}


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _geometric_walk(stream: _SeriesStream, term, tol: float, max_terms: int, m0: int, window: int = 1, growth=False):
    """(outputs up to the stop, the number of terms the series takes, its
    tail there and whether it failed) of ``term`` on blocks from m0, or
    None if the series is still open after ``max_terms``.

    term(m, w, env) gives magnitudes, a tuple of output arrays along m, and
    a mask of the terms that failed, shaped like the magnitudes or a
    constant; float warnings are off, as a term that overflows is to be
    marked failed.  The tail from m = q + 2 on is the largest of the last
    ``window`` magnitudes times rho / (1 - rho), rho the envelope ratio,
    times (m+1)/m with ``growth``.  The series closes at its first index
    where that tail is below ``tol``, or at its first failed term, and
    fails there; nothing after that counts.  Each block ends where
    :meth:`_SeriesStream.next_end` predicts that stop, from the magnitude
    at the last index formed and the envelope's growth past it; as no
    output depends on where the blocks are cut, a wrong prediction costs
    time only.
    """
    q, lag, first, parts, recent = stream.q, window - 1, m0, [], np.zeros(window - 1)
    # the burn-in, and what a unit magnitude at its end would take to stop
    m1 = stream.next_end(q + 3, q + 3, 1.0, tol, max_terms, lag, growth)
    while m0 < m1:
        m = np.arange(m0, m1, dtype=float)
        mag, out, failed = term(m, *stream.block(m0, m1))
        mag = np.concatenate((recent, mag))
        largest = np.maximum.reduce(mag[np.arange(window)[:, None] + np.arange(m.size)], axis=0)
        rho = stream.envelope_ratio(m) * ((m + 1) / m if growth else 1.0)
        tail = largest * rho / (1.0 - rho)
        closes = (m >= q + 2) & (rho < 1.0) & (tail < tol) | failed
        parts.append(out)
        if closes.any():
            end = int(closes.argmax())
            n = m0 - first + end + 1
            return [np.concatenate(c)[:n] for c in zip(*parts)], n, float(tail[end]), bool((closes & failed)[end])
        recent = mag[m.size:]
        m0, m1 = m1, stream.next_end(m0, m1, float(mag[-1]), tol, max_terms, lag, growth)
    return None


@lru_cache(maxsize=256)
def _series_stream(pv: ParameterVector, kind: str) -> _SeriesStream:
    """The one _SeriesStream of a vector and an expansion, cached per vector."""
    return _SeriesStream(pv, kind)


def _truncated_series(pv: ParameterVector, kind: str, tol: float, max_terms: int) -> SeriesCoefficients:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    stream = _series_stream(pv, kind)

    def walk(limit):  # from m = 0, which is the leading 1 at_one
        return _geometric_walk(stream, lambda m, w, env: (env, (w, env), False), tol, limit, 0)

    walked = walk(min(max_terms, _PREFIX_CAP - 1))
    if walked is None and max_terms >= _PREFIX_CAP:
        # A walk past the kept prefix goes on only if it may close by
        # M = max_terms.  Where the ratio bound rho is below one the
        # envelopes fall, so no index up to M has a tail below env(M) *
        # ratio / (1 - ratio), as rho >= ratio; elsewhere none closes.  The
        # float envelopes err by at most rounding(M) each, as rounding grows
        # with m; a third rounding(M) covers the few roundings of the product.
        last = stream.block(max_terms, max_terms + 1)[1][0]
        if last * (1.0 - 3.0 * stream.rounding(max_terms)) * stream.ratio / (1.0 - stream.ratio) < tol:
            walked = walk(max_terms)
    if walked is None:
        raise Nonconvergence(
            f"series {kind} for q={pv.q}, a={pv.a} still above tol={tol} after {max_terms} terms"
        )
    (values, env), *_ = walked
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
