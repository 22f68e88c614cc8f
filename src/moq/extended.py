"""The extended distribution: a baseline CDF pushed through the distortion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import Baseline, _ret
from .errors import SurvivalUnderflow
from .family import (
    ParameterVector,
    _complement,
    _deriv,
    _distortion,
    _small_roots,
)

__all__ = ["ExtendedDistribution"]

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
        # T(u) and 1 - T(u) from the baseline's u and s = 1 - u, each with
        # its own digits, so that neither tail loses any to cancellation
        _, u, s, scalar = self._levels(x)
        # analytically in [0, 1]; rounding can poke a couple of ulp past 1
        return _ret(np.clip(_distortion(self.pv, u, s), 0.0, 1.0), scalar)

    def sf(self, x):
        _, u, s, scalar = self._levels(x)
        return _ret(_complement(self.pv, u, s), scalar)

    def _levels(self, x):
        xx = np.asarray(x, dtype=float)
        return xx, np.asarray(self.baseline.cdf(xx)), np.asarray(self.baseline.sf(xx)), xx.ndim == 0

    def pdf(self, x):
        # T'(u) from the baseline's u and s, as cdf and sf take T and 1 - T
        xx, u, s, scalar = self._levels(x)
        return _ret(self._density(xx, u, s), scalar)

    def _density(self, xx, u, s):
        f0 = np.asarray(self.baseline.pdf(xx))
        return np.where(f0 > 0.0, _deriv(self.pv, u, s) * f0, 0.0)

    def hazard(self, x):
        xx, u, s, scalar = self._levels(x)  # one read for the density and the survival
        sf = _complement(self.pv, u, s)
        inside = xx > self.baseline.support_lo
        if np.any(inside & (sf < _SF_FLOOR)):
            bad = np.atleast_1d(xx)[np.atleast_1d(inside & (sf < _SF_FLOOR))][0]
            raise SurvivalUnderflow(f"survival below {_SF_FLOOR:g} at x = {bad!r}")
        return _ret(self._density(xx, u, s) / sf, scalar)

    def quantile(self, p):
        return self._inverse(p, survival=False)

    def isf(self, s):
        """Unique x with sf(x) = s, for s strictly inside (0, 1)."""
        return self._inverse(s, survival=True)

    def _inverse(self, level, survival: bool):
        # a root u of T at most 1/2 maps through the baseline quantile, a
        # root s = 1 - u through the baseline isf
        scalar = np.ndim(level) == 0
        x, upper = _small_roots(self.pv, level, survival)  # checks the level
        x = np.fmax(x, np.finfo(float).tiny)  # roots that underflow (extreme a only)
        val = np.empty_like(x)
        if not upper.all():
            val[~upper] = self.baseline.quantile(x[~upper])
        if upper.any():
            val[upper] = self.baseline.isf(x[upper])
        return _ret(val[0] if scalar else val, scalar)
