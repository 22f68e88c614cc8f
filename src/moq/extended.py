"""The extended distribution: a baseline CDF pushed through the distortion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import Baseline, _ret
from .errors import SurvivalUnderflow
from .family import (
    ParameterVector,
    distortion,
    distortion_complement,
    distortion_deriv,
    distortion_inverse,
)

__all__ = ["ExtendedDistribution"]

# Above this CDF level the survival switches to the complement polynomial,
# which reaches the far tail without subtracting two near-one quantities.
_TAIL_SWITCH = 1.0 - 1e-8

_SF_FLOOR = 1e-300


@dataclass(frozen=True)
class ExtendedDistribution:
    """Distribution with CDF x -> T(F0(x)) for baseline F0 and distortion T.

    Immutable and pure; shares the baseline's support interval.  For
    ``pv.a == (1, ..., 1)`` this is the baseline itself, and for equal
    parameters it is the classical Marshall-Olkin extension.
    """

    baseline: Baseline
    pv: ParameterVector

    def cdf(self, x):
        return distortion(self.pv, self.baseline.cdf(x))

    def sf(self, x):
        xx = np.asarray(x, dtype=float)
        scalar = xx.ndim == 0
        u = np.asarray(self.baseline.cdf(xx))
        s0 = np.asarray(self.baseline.sf(xx))
        plain = 1.0 - np.asarray(distortion(self.pv, u))
        tail = np.asarray(distortion_complement(self.pv, s0))
        return _ret(np.where(u > _TAIL_SWITCH, tail, plain), scalar)

    def pdf(self, x):
        xx = np.asarray(x, dtype=float)
        scalar = xx.ndim == 0
        f0 = np.asarray(self.baseline.pdf(xx))
        val = np.where(f0 > 0.0, distortion_deriv(self.pv, self.baseline.cdf(xx)) * f0, 0.0)
        return _ret(val, scalar)

    def hazard(self, x):
        xx = np.asarray(x, dtype=float)
        scalar = xx.ndim == 0
        s = np.asarray(self.sf(xx))
        inside = xx > self.baseline.support_lo
        if np.any(inside & (s < _SF_FLOOR)):
            bad = np.atleast_1d(xx)[np.atleast_1d(inside & (s < _SF_FLOOR))][0]
            raise SurvivalUnderflow(f"survival below {_SF_FLOOR:g} at x = {bad!r}")
        val = np.asarray(self.pdf(xx)) / s
        return _ret(val, scalar)

    def quantile(self, p):
        u = np.asarray(distortion_inverse(self.pv, p))
        # keep the level strictly inside (0, 1) for the baseline inverse
        tiny = np.finfo(float).tiny
        u = np.clip(u, tiny, 1.0 - np.finfo(float).epsneg)
        val = self.baseline.quantile(u)
        return float(val) if np.ndim(p) == 0 else val
