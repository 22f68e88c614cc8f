"""Independent numerical machinery used to cross-check the analytic paths.

Adaptive Gauss-Kronrod quadrature on semi-infinite domains, log-gamma and
Beta, and Kolmogorov-Smirnov statistics.  Nothing in this module touches
the series machinery it is used to validate: the whole point is that a
series value and a quadrature value reaching agreement is evidence, not
tautology.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ToleranceNotMet

__all__ = [
    "QuadratureResult",
    "integrate_semiinfinite",
    "log_gamma",
    "beta_fn",
    "ks_one_sample",
    "ks_two_sample",
    "ks_threshold_one_sample",
    "ks_threshold_two_sample",
]

# 15-point Kronrod extension of 7-point Gauss (positive abscissae and
# weights, classic QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_KW = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GW = np.zeros(15)
_GW[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: (value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    resk = half * float(_KW @ fx)
    resg = half * float(_GW @ fx)
    resabs = abs(half) * float(_KW @ np.abs(fx))
    mean = resk / (b - a)
    resasc = abs(half) * float(_KW @ np.abs(fx - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return resk, err


def _adaptive(f: Callable, a: float, b: float, tol: float, max_panels: int) -> tuple[float, float, int]:
    """Adaptive bisection of [a, b] until the summed panel errors drop below tol.

    The worst panel is split first; panels near machine width are frozen,
    which makes termination unconditional.  Integrable endpoint
    singularities are handled by the refinement piling panels toward the
    offending end (the open 15-point rule never evaluates an endpoint).
    """
    val, err = _gk15(f, a, b)
    evals = 15
    counter = 0
    active = [(-err, counter, a, b, val, err)]
    frozen: list[tuple[float, float]] = []
    err_sum = err

    while active and err_sum > tol and evals < 15 * max_panels:
        _, _, pa, pb, pval, perr = heapq.heappop(active)
        pm = 0.5 * (pa + pb)
        if not (pa < pm < pb):
            frozen.append((pval, perr))
            continue
        v1, e1 = _gk15(f, pa, pm)
        v2, e2 = _gk15(f, pm, pb)
        evals += 30
        err_sum += e1 + e2 - perr
        counter += 1
        heapq.heappush(active, (-e1, counter, pa, pm, v1, e1))
        counter += 1
        heapq.heappush(active, (-e2, counter, pm, pb, v2, e2))

    value = math.fsum(v for v, _ in frozen) + math.fsum(item[4] for item in active)
    err = math.fsum(e for _, e in frozen) + math.fsum(item[5] for item in active)
    # a NaN estimate (from a non-finite integrand) compares false with tol
    if not err <= tol:
        raise ToleranceNotMet(
            f"quadrature error estimate {err:.3e} above tol {tol:.3e} after {evals} evaluations"
        )
    return value, err, evals


def integrate_semiinfinite(
    f: Callable,
    lo: float = 0.0,
    tol: float = 1e-10,
    max_panels: int = 4096,
) -> QuadratureResult:
    """Integrate a vectorized integrand over [lo, inf).

    The head [lo, lo+1] is mapped through x = lo + y^2, which turns
    power-law blow-ups at the left end (densities with shape < 1, negative
    moment orders) into smooth integrands.  The tail [lo+1, inf) is folded
    onto a unit interval through x = lo + 1/u; algebraically decaying tails
    become endpoint singularities at u = 0, where subdivision has the full
    density of floats available to it.

    Raises ToleranceNotMet if the refinement budget is exhausted first, or
    if the error estimate is not a number (a non-finite integrand).

    The integrand must be integrable on [lo, inf): nothing here detects a
    divergent one.  x / (1 + x)^2, whose integral grows like log x, comes
    back as a finite value (about 353.89) with an error estimate near
    5e-11.
    """
    if not math.isfinite(lo):
        raise DomainError("lower limit must be finite")

    def head(y):
        return 2.0 * y * np.asarray(f(lo + y * y), dtype=float)

    def tail(u):
        return np.asarray(f(lo + 1.0 / u), dtype=float) / (u * u)

    v1, e1, n1 = _adaptive(head, 0.0, 1.0, 0.5 * tol, max_panels)
    v2, e2, n2 = _adaptive(tail, 0.0, 1.0, 0.5 * tol, max_panels)
    return QuadratureResult(value=v1 + v2, error_estimate=e1 + e2, evaluations=n1 + n2)


def log_gamma(x):
    """Natural log of the gamma function for x > 0, elementwise over arrays."""
    if isinstance(x, np.ndarray):
        if not np.all(np.isfinite(x) & (x > 0)):
            raise DomainError("log_gamma requires x > 0 at every element")
        return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def beta_fn(p, q):
    """Beta(p, q) for p, q > 0, via log-gamma, elementwise over arrays."""
    return np.exp(log_gamma(p) + log_gamma(q) - log_gamma(p + q))


def ks_one_sample(values: Sequence[float], cdf: Callable) -> float:
    """Sup distance between the empirical CDF of ``values`` and ``cdf``."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise DomainError("need at least one observation")
    fx = np.asarray(cdf(x), dtype=float)
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - fx))
    d_minus = float(np.max(fx - (steps - 1.0 / n)))
    return max(d_plus, d_minus)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    """Sup distance between the empirical CDFs of two samples."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.size == 0 or xb.size == 0:
        raise DomainError("both samples must be non-empty")
    grid = np.concatenate([xa, xb])
    ca = np.searchsorted(xa, grid, side="right") / xa.size
    cb = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.max(np.abs(ca - cb)))


def ks_threshold_one_sample(n: int) -> float:
    """Rejection threshold 1.95/sqrt(n), significance about 0.001."""
    return 1.95 / math.sqrt(n)


def ks_threshold_two_sample(n: int, m: int) -> float:
    """Two-sample analogue of the 0.001-level threshold."""
    return 1.95 * math.sqrt((n + m) / (n * m))
