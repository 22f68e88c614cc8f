"""Baseline distributions on [0, inf) with closed-form cdf, sf, pdf, quantile and isf.

Four families: exponential, Weibull, a three-parameter generalized Weibull,
and log-logistic.  Tails are computed through ``expm1``/``log1p`` style
formulations so that survival values stay accurate deep into the tail,
where the extended hazard quotient would otherwise lose everything to
cancellation.  Densities with an integrable blow-up at the origin
(shape < 1) return 0 at exactly x = 0; the discrepancy is on a null set
and keeps every return value finite.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, NonPositiveParameter

__all__ = [
    "Baseline",
    "Exponential",
    "Weibull",
    "GeneralizedWeibull",
    "LogLogistic",
    "BASELINE_FAMILIES",
]


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


class Baseline(ABC):
    """A distribution with support interval [0, inf) and a smooth CDF on it."""

    support_lo: float = 0.0
    support_hi: float = math.inf

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise NonPositiveParameter(f"{type(self).__name__}.{f.name} must be > 0, got {v!r}")

    @property
    def name(self) -> str:
        return _FAMILY_NAMES[type(self)]

    @abstractmethod
    def cdf(self, x):
        """P(X <= x); 0 at and below the support's lower end."""

    @abstractmethod
    def sf(self, x):
        """P(X > x), evaluated directly rather than as 1 - cdf."""

    @abstractmethod
    def pdf(self, x):
        """Density on the interior of the support, 0 outside."""

    @abstractmethod
    def quantile(self, p):
        """Unique x with cdf(x) = p, for p strictly inside (0, 1)."""

    @abstractmethod
    def isf(self, s):
        """Unique x with sf(x) = s, for s strictly inside (0, 1)."""


@dataclass(frozen=True)
class Exponential(Baseline):
    """Exponential distribution with mean ``scale``."""

    scale: float = 1.0

    def cdf(self, x):
        xx, scalar = _as_float(x)
        val = np.where(xx > 0.0, -np.expm1(-np.maximum(xx, 0.0) / self.scale), 0.0)
        return _ret(val, scalar)

    def sf(self, x):
        xx, scalar = _as_float(x)
        val = np.where(xx > 0.0, np.exp(-np.maximum(xx, 0.0) / self.scale), 1.0)
        return _ret(val, scalar)

    def pdf(self, x):
        xx, scalar = _as_float(x)
        val = np.where(xx >= 0.0, np.exp(-np.maximum(xx, 0.0) / self.scale) / self.scale, 0.0)
        return _ret(val, scalar)

    def quantile(self, p):
        pp, scalar = _check_prob(p)
        return _ret(-self.scale * np.log1p(-pp), scalar)

    def isf(self, s):
        ss, scalar = _check_prob(s)
        return _ret(-self.scale * np.log(ss), scalar)


@dataclass(frozen=True)
class Weibull(Baseline):
    """Weibull distribution: cdf(x) = 1 - exp(-(x/scale)^shape)."""

    scale: float
    shape: float

    def cdf(self, x):
        xx, scalar = _as_float(x)
        z = np.maximum(xx, 0.0) / self.scale
        val = np.where(xx > 0.0, -np.expm1(-(z**self.shape)), 0.0)
        return _ret(val, scalar)

    def sf(self, x):
        xx, scalar = _as_float(x)
        z = np.maximum(xx, 0.0) / self.scale
        val = np.where(xx > 0.0, np.exp(-(z**self.shape)), 1.0)
        return _ret(val, scalar)

    def pdf(self, x):
        # log form: (x/b1)^(b2-1) can overflow long after the density is 0.
        xx, scalar = _as_float(x)
        pos = xx > 0.0
        z = np.where(pos, xx / self.scale, 1.0)
        with np.errstate(over="ignore"):
            logpdf = math.log(self.shape / self.scale) + (self.shape - 1.0) * np.log(z) - z**self.shape
        val = np.where(pos, np.exp(logpdf), 0.0)
        return _ret(val, scalar)

    def quantile(self, p):
        pp, scalar = _check_prob(p)
        return _ret(self.scale * (-np.log1p(-pp)) ** (1.0 / self.shape), scalar)

    def isf(self, s):
        ss, scalar = _check_prob(s)
        return _ret(self.scale * (-np.log(ss)) ** (1.0 / self.shape), scalar)


@dataclass(frozen=True)
class GeneralizedWeibull(Baseline):
    """Three-parameter family: cdf(x) = 1 - exp(1 - (1 + (x/scale)^shape)^(1/shape2)).

    Reduces to the exponential with the same scale when shape = shape2 = 1.
    """

    scale: float
    shape: float
    shape2: float

    def _log_sf(self, z):
        """1 - (1 + z^shape)^(1/shape2) as -expm1(log1p(z^shape) / shape2),
        which keeps its digits where z^shape is below eps."""
        with np.errstate(over="ignore"):
            return -np.expm1(np.log1p(z**self.shape) / self.shape2)

    def cdf(self, x):
        xx, scalar = _as_float(x)
        inner = self._log_sf(np.maximum(xx, 0.0) / self.scale)
        val = np.where(xx > 0.0, -np.expm1(inner), 0.0)
        return _ret(val, scalar)

    def sf(self, x):
        xx, scalar = _as_float(x)
        inner = self._log_sf(np.maximum(xx, 0.0) / self.scale)
        val = np.where(xx > 0.0, np.exp(inner), 1.0)
        return _ret(val, scalar)

    def pdf(self, x):
        xx, scalar = _as_float(x)
        pos = xx > 0.0
        z = np.where(pos, xx / self.scale, 1.0)
        with np.errstate(over="ignore"):
            logpdf = (
                self._log_sf(z)
                + (1.0 / self.shape2 - 1.0) * np.log1p(z**self.shape)
                + math.log(self.shape / (self.scale * self.shape2))
                + (self.shape - 1.0) * np.log(z)
            )
        val = np.where(pos, np.exp(logpdf), 0.0)
        return _ret(val, scalar)

    def quantile(self, p):
        pp, scalar = _check_prob(p)
        # (1 - log sf)^shape2 - 1 without cancellation as sf -> 1
        t = np.expm1(self.shape2 * np.log1p(-np.log1p(-pp)))
        return _ret(self.scale * t ** (1.0 / self.shape), scalar)

    def isf(self, s):
        ss, scalar = _check_prob(s)
        t = np.expm1(self.shape2 * np.log1p(-np.log(ss)))
        return _ret(self.scale * t ** (1.0 / self.shape), scalar)


@dataclass(frozen=True)
class LogLogistic(Baseline):
    """Log-logistic distribution: cdf(x) = x^shape / (scale^shape + x^shape).

    The defaults give the standard unit form x / (1 + x).
    """

    scale: float = 1.0
    shape: float = 1.0

    def cdf(self, x):
        xx, scalar = _as_float(x)
        pos = xx > 0.0
        z = np.where(pos, xx / self.scale, 1.0)
        with np.errstate(over="ignore"):
            val = np.where(pos, 1.0 / (1.0 + z**-self.shape), 0.0)
        return _ret(val, scalar)

    def sf(self, x):
        xx, scalar = _as_float(x)
        pos = xx > 0.0
        z = np.where(pos, xx / self.scale, 1.0)
        with np.errstate(over="ignore"):
            val = np.where(pos, 1.0 / (1.0 + z**self.shape), 1.0)
        return _ret(val, scalar)

    def pdf(self, x):
        xx, scalar = _as_float(x)
        pos = xx > 0.0
        z = np.where(pos, xx / self.scale, 1.0)
        with np.errstate(over="ignore"):
            logpdf = (
                math.log(self.shape / self.scale)
                + (self.shape - 1.0) * np.log(z)
                - 2.0 * np.log1p(z**self.shape)
            )
        val = np.where(pos, np.exp(logpdf), 0.0)
        return _ret(val, scalar)

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
