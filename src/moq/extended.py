"""The extended distribution: a baseline CDF pushed through the distortion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import family
from .baselines import Baseline, _as_float, _ret
from .errors import DomainError
from .family import ParameterVector, _bracket, _complement, _complement_sum, _deriv, _distortion, _ratios

__all__ = ["ExtendedDistribution"]


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
        # T(u) and 1 - T(u) from the baseline's u and s = 1 - u, each with its own
        # digits; T is in [0, 1] analytically, but rounding can poke an ulp past 1
        _, u, s, scalar = self._levels(x)
        return _ret(np.clip(_distortion(self.pv, u, s), 0.0, 1.0), scalar)

    def sf(self, x):
        _, u, s, scalar = self._levels(x)
        return _ret(_complement(self.pv, u, s), scalar)

    def _levels(self, x):
        xx, scalar = _as_float(x)
        return xx, self.baseline.cdf(xx), self.baseline.sf(xx), scalar

    def pdf(self, x):
        # T'(u) from the baseline's u and s, as cdf and sf take T and 1 - T
        xx, u, s, scalar = self._levels(x)
        return _ret(_deriv(self.pv, u, s) * self.baseline.pdf(xx), scalar)

    def hazard(self, x):
        """f / (1 - T) = h0 (q/S) B / sum_{k>=1} g_k w^(q-k) r^(k-1), as T' = (w + (q/S) r) B
        and 1 - T = s (S/D) times that sum: the baseline survival s cancels, so the
        hazard stays finite where s underflows, and at w = 1, r = 0 it is h0 exactly.

        Raises DomainError where that sum is 0: at r = 0 it is g_1 = q a_1 / S,
        which underflows for extreme a (a = (1e-300, 1e300)), and the ratio is 0/0.
        """
        xx, u, s, scalar = self._levels(x)
        pv = self.pv
        w, r = _ratios(pv, u, s)
        den = _complement_sum(pv, w, r)
        if not den.all():
            raise DomainError(f"hazard at x = {float(np.extract(den == 0.0, xx)[0])!r} is 0/0: the extended "
                              "density and survival both underflow")
        ratio = _bracket(pv, w, r) * pv.q / pv.sum_a / den
        return _ret(ratio * self.baseline.hazard(xx), scalar)

    def quantile(self, p):
        return self._inverse(p, survival=False)

    def isf(self, s):
        """Unique x with sf(x) = s, for s strictly inside (0, 1)."""
        return self._inverse(s, survival=True)

    def _inverse(self, level, survival: bool):
        # a root u of T at most 1/2 maps through the baseline quantile, a
        # root s = 1 - u through the baseline isf
        scalar = np.ndim(level) == 0
        # through the module, so that wrappers installed on it see the call; it checks the level
        x, upper = family.distortion_inverse(self.pv, level, survival=survival, split=True)
        x = np.fmax(x, np.finfo(float).tiny)  # roots that underflow (extreme a only)
        # both maps on every root, which costs less than gathering each side's; a
        # root that a map does not take goes in as 1/2, so that it cannot overflow
        # there (isf(1e-200) at shape 1/2) and warn of a value that is not returned
        return _ret(np.where(upper, self.baseline.isf(np.where(upper, x, 0.5)),
                             self.baseline.quantile(np.where(upper, 0.5, x))), scalar)
