"""Baseline distributions on [0, inf), each fixed by its cumulative hazard.

A family gives H(z) = -log sf, log H'(z) and H^-1(y) at z = x / scale;
:class:`Baseline` derives cdf = -expm1(-H), sf = exp(-H), pdf =
exp(log H' - H) / scale, hazard = exp(log H') / scale, quantile =
scale H^-1(-log1p(-p)) and isf = scale H^-1(-log s) from them, once.  The
hazard so stays finite past where sf underflows; a log1p(z^k) in log H' is
logaddexp(0, k log z), finite where z^k overflows.  A density that blows
up at the origin (shape < 1) is 0 at exactly x = 0."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, NonPositiveParameter

__all__ = ["Baseline", "Exponential", "Weibull", "GeneralizedWeibull", "LogLogistic", "BASELINE_FAMILIES"]


def _ret(arr, scalar: bool):
    return float(arr) if scalar else arr


def _as_float(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _check_prob(p):
    arr = np.asarray(p, dtype=float)
    scalar = arr.ndim == 0
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails both
        raise DomainError("probability level must lie strictly inside (0, 1)")
    return arr, scalar


def _log_power(z, e: float):
    """e log z, as 0 for e = 0, where z = 0 would give 0 * -inf."""
    return e * np.log(z) if e else 0.0


class Baseline(ABC):
    """A distribution on [0, inf) with cumulative hazard H(x / scale)."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # perfbench/tracing.py wraps each family's own cdf, sf, pdf and
        # quantile (cls.__dict__[name]), so every family holds them itself
        for name in ("cdf", "sf", "pdf", "quantile"):
            setattr(cls, name, getattr(cls, name))

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise NonPositiveParameter(f"{type(self).__name__}.{f.name} must be > 0, got {v!r}")

    @property
    def name(self) -> str:
        return _FAMILY_NAMES[type(self)]

    @abstractmethod
    def _H(self, z):
        """Cumulative hazard at z = x / scale >= 0; 0 at z = 0."""

    @abstractmethod
    def _log_dH(self, z):
        """log H'(z); +inf at z = 0 where the density blows up there."""

    @abstractmethod
    def _H_inv(self, y):
        """The z >= 0 with H(z) = y."""

    def _cum(self, x):
        xx, scalar = _as_float(x)
        with np.errstate(over="ignore"):  # NaN and x <= 0 read as z = 0
            return self._H(np.fmax(xx, 0.0) / self.scale), scalar

    def cdf(self, x):
        """P(X <= x); 0 at and below the support's lower end."""
        h, scalar = self._cum(x)
        return _ret(-np.expm1(-h), scalar)

    def sf(self, x):
        """P(X > x) = exp(-H), evaluated directly rather than as 1 - cdf."""
        h, scalar = self._cum(x)
        return _ret(np.exp(-h), scalar)

    def pdf(self, x):
        """Density on the interior of the support, 0 outside."""
        return self._rate(x, True)

    def hazard(self, x):
        """pdf / sf from log H' alone: finite where sf underflows."""
        return self._rate(x, False)

    def _rate(self, x, density: bool):
        xx, scalar = _as_float(x)
        z = np.fmax(xx, 0.0) / self.scale
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_rate = self._log_dH(z)
            val = np.exp(log_rate - self._H(z) if density else log_rate) / self.scale
        # a blow-up at the origin is pinned to 0 there
        return _ret(np.where((xx > 0.0) | ((xx == 0.0) & (log_rate < np.inf)), val, 0.0), scalar)

    def quantile(self, p):
        """Unique x with cdf(x) = p, for p strictly inside (0, 1)."""
        pp, scalar = _check_prob(p)
        return _ret(self.scale * self._H_inv(-np.log1p(-pp)), scalar)

    def isf(self, s):
        """Unique x with sf(x) = s, for s strictly inside (0, 1)."""
        ss, scalar = _check_prob(s)
        return _ret(self.scale * self._H_inv(-np.log(ss)), scalar)


@dataclass(frozen=True)
class Exponential(Baseline):
    """Exponential distribution with mean ``scale``: H(z) = z."""

    scale: float = 1.0

    def _H(self, z):
        return z

    def _log_dH(self, z):
        return 0.0

    def _H_inv(self, y):
        return y


@dataclass(frozen=True)
class Weibull(Baseline):
    """Weibull distribution: H(z) = z^shape."""

    scale: float
    shape: float

    def _H(self, z):
        return z**self.shape

    def _log_dH(self, z):
        return math.log(self.shape) + _log_power(z, self.shape - 1.0)

    def _H_inv(self, y):
        return y ** (1.0 / self.shape)


@dataclass(frozen=True)
class GeneralizedWeibull(Baseline):
    """Three-parameter family: H(z) = (1 + z^shape)^(1/shape2) - 1, formed as
    expm1(log1p(z^shape) / shape2) to keep its digits where z^shape is below
    eps.  Reduces to the exponential with the same scale at shape = shape2 = 1."""

    scale: float
    shape: float
    shape2: float

    def _H(self, z):
        return np.expm1(np.log1p(z**self.shape) / self.shape2)

    def _log_dH(self, z):
        k, b = self.shape, self.shape2
        return math.log(k / b) + _log_power(z, k - 1.0) + (1.0 / b - 1.0) * np.logaddexp(0.0, k * np.log(z))

    def _H_inv(self, y):
        # (1 + y)^shape2 - 1 without cancellation as y -> 0
        return np.expm1(self.shape2 * np.log1p(y)) ** (1.0 / self.shape)


@dataclass(frozen=True)
class LogLogistic(Baseline):
    """Log-logistic distribution: H(z) = log1p(z^shape), cdf = z^shape / (1 + z^shape).

    cdf, sf, quantile and isf keep the odds forms: exp(-log1p(z^shape))
    would lose about H eps in sf.  The defaults give x / (1 + x).
    """

    scale: float = 1.0
    shape: float = 1.0

    def _H(self, z):
        return np.log1p(z**self.shape)

    def _log_dH(self, z):
        k = self.shape
        return math.log(k) + _log_power(z, k - 1.0) - np.logaddexp(0.0, k * np.log(z))

    def _H_inv(self, y):
        return np.expm1(y) ** (1.0 / self.shape)

    def _odds(self, x, sign: float):
        xx, scalar = _as_float(x)
        with np.errstate(over="ignore", divide="ignore"):  # NaN and x <= 0 read as z = 0
            return _ret(1.0 / (1.0 + (np.fmax(xx, 0.0) / self.scale) ** (sign * self.shape)), scalar)

    def cdf(self, x):
        return self._odds(x, -1.0)

    def sf(self, x):
        return self._odds(x, 1.0)

    def quantile(self, p):
        pp, scalar = _check_prob(p)
        return _ret(self.scale * (pp / (1.0 - pp)) ** (1.0 / self.shape), scalar)

    def isf(self, s):
        ss, scalar = _check_prob(s)
        return _ret(self.scale * ((1.0 - ss) / ss) ** (1.0 / self.shape), scalar)


BASELINE_FAMILIES: dict[str, type[Baseline]] = {
    "exponential": Exponential,
    "weibull": Weibull,
    "generalized_weibull": GeneralizedWeibull,
    "loglogistic": LogLogistic,
}

_FAMILY_NAMES = {cls: name for name, cls in BASELINE_FAMILIES.items()}
