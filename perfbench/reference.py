"""Independent references for the benchmark's correctness checks.

Nothing here imports ``moq``.  Both sets of formulas come straight from
the definition of the distortion,

    T(u) = q^q * u * prod_{i>=2} f_i / D^q,  f_i = a_i + (1 - a_i) u,
    D = S - (S - q) u.

The float64 cdf for the KS tests is taken in log space from the baseline
survival.  The mpmath values are evaluated at a working precision that
grows with the depth of the tail, so ``1 - T(u)`` needs no
cancellation-free rewriting.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 30


# --- float64 (numpy) ------------------------------------------------------


def base_log_sf(family: str, params: dict, x: np.ndarray) -> np.ndarray:
    """Baseline log survival at x > 0."""
    z = x / params.get("scale", 1.0)
    if family == "exponential":
        return -z
    if family == "weibull":
        return -(z ** params["shape"])
    if family == "generalized_weibull":
        return 1.0 - (1.0 + z ** params["shape"]) ** (1.0 / params["shape2"])
    if family == "loglogistic":
        return -np.log1p(z ** params.get("shape", 1.0))
    raise ValueError(family)


def log_distortion(a, s: np.ndarray) -> np.ndarray:
    """log T(1 - s) for baseline survival s in (0, 1], every factor through log1p."""
    q, big_s = len(a), math.fsum(a)
    log_t = np.log1p(-s) - q * np.log1p((big_s - q) * s / q)
    for ai in a[1:]:
        log_t = log_t + np.log1p(-(1.0 - ai) * s)
    return log_t


def extended_cdf(family: str, params: dict, a, x: np.ndarray) -> np.ndarray:
    """T(F0(x)) in float64, for the KS tests."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(log_distortion(a, np.exp(base_log_sf(family, params, x[pos]))))
    return out


def dkw_threshold(n: int, alpha: float = 1e-12) -> float:
    """Sup-distance a correct sampler exceeds with probability below alpha.

    Dvoretzky-Kiefer-Wolfowitz with Massart's constant:
    P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2) for every n.
    """
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ks_distance(values: np.ndarray, cdf_values_sorted: np.ndarray) -> float:
    n = values.size
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - cdf_values_sorted), np.max(cdf_values_sorted - (steps - 1.0 / n))))


# --- mpmath ---------------------------------------------------------------


def _mp_base(family: str, params: dict, x):
    """Baseline (sf, pdf) at mpf x > 0, both to working precision."""
    sc = mp.mpf(params.get("scale", 1.0))
    z = x / sc
    if family == "exponential":
        return mp.exp(-z), mp.exp(-z) / sc
    if family == "weibull":
        k = mp.mpf(params["shape"])
        s0 = mp.exp(-(z**k))
        return s0, k / sc * z ** (k - 1) * s0
    if family == "generalized_weibull":
        k, s2 = mp.mpf(params["shape"]), mp.mpf(params["shape2"])
        w = (1 + z**k) ** (1 / s2)
        s0 = mp.exp(1 - w)
        return s0, s0 * w / (1 + z**k) / s2 * k / sc * z ** (k - 1)
    if family == "loglogistic":
        k = mp.mpf(params.get("shape", 1.0))
        return 1 / (1 + z**k), k / sc * z ** (k - 1) / (1 + z**k) ** 2
    raise ValueError(family)


def _mp_t(a, u):
    q = len(a)
    big_s = mp.fsum(a)
    return mp.mpf(q) ** q * u * mp.fprod(ai + (1 - ai) * u for ai in a[1:]) / (big_s - (big_s - q) * u) ** q


def _mp_t_deriv(a, u):
    q = len(a)
    big_s = mp.fsum(a)
    d = big_s - (big_s - q) * u
    head = mp.mpf(q) ** q * mp.fprod(ai + (1 - ai) * u for ai in a[1:]) / d**q
    slope = mp.fsum((1 - ai) / (ai + (1 - ai) * u) for ai in a[1:]) + q * (big_s - q) / d
    return head * (1 + u * slope)


def _tail_dps(x: float, family: str, params: dict) -> int:
    """Digits needed so that 1 - T(1 - s) keeps DPS digits at survival s."""
    with mp.workdps(20):
        s0, _ = _mp_base(family, params, mp.mpf(x))
    return DPS + 10 + max(0, int(-mp.log10(s0)) if s0 > 0 else 0)


def mp_quantity(quantity: str, family: str, params: dict, a, x: float) -> float:
    """Extended cdf, sf, pdf or hazard at x > 0, to DPS digits."""
    with mp.workdps(_tail_dps(x, family, params)):
        am = [mp.mpf(v) for v in a]
        s0, f0 = _mp_base(family, params, mp.mpf(x))
        u = 1 - s0
        if quantity == "cdf":
            val = _mp_t(am, u)
        elif quantity == "sf":
            val = 1 - _mp_t(am, u)
        elif quantity == "pdf":
            val = _mp_t_deriv(am, u) * f0
        elif quantity == "hazard":
            val = _mp_t_deriv(am, u) * f0 / (1 - _mp_t(am, u))
        else:
            raise ValueError(quantity)
        return float(val)


def mp_moment(family: str, params: dict, a, r: float) -> float:
    """E[X^r] by mpmath quadrature over geometric breakpoints to 4^12."""
    with mp.workdps(DPS):
        am = [mp.mpf(v) for v in a]
        rr = mp.mpf(r)

        def integrand(x):
            if x <= 0:
                return mp.mpf(0)
            s0, f0 = _mp_base(family, params, x)
            return x**rr * _mp_t_deriv(am, 1 - s0) * f0

        points = [0] + [mp.mpf(4) ** k / 4 for k in range(13)] + [mp.inf]
        return float(mp.quad(integrand, points))
