"""Samplers for the extended distributions.

Three routes to the same law, kept deliberately independent so the test
suite can play them against each other:

* accept-reject against the baseline with the density-domination constant,
* maximum of a random number of baseline draws, the count distributed by
  the series-at-zero weights (pmf regime only),
* inverse-CDF through the extended quantile, which inverts each tail
  through its own map.

All randomness flows through :class:`RandomSource`, a thin wrapper over a
seeded PCG64 generator: a fixed seed reproduces every batch bit for bit.
Samplers own their generator for the duration of a call; distribution
objects stay immutable, so distinct calls with distinct seeds may run
concurrently.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConditionViolated, DomainError, EnvelopeViolation, Nonconvergence
from .extended import ExtendedDistribution
from .family import ParameterVector, _SeriesStream, distortion_deriv
from .baselines import Baseline

__all__ = [
    "RandomSource",
    "SampleBatch",
    "envelope_constant",
    "sample_accept_reject",
    "sample_random_maxima",
    "sample_count",
    "sample_inverse_cdf",
    "logistic_transform",
]

_RATIO_SLACK = 1e-12


@dataclass(frozen=True)
class RandomSource:
    """A named, reproducible stream of randomness (PCG64 under the hood)."""

    seed: int
    algorithm: str = "pcg64"

    def generator(self) -> np.random.Generator:
        if self.algorithm != "pcg64":
            raise DomainError(f"unknown generator algorithm {self.algorithm!r}")
        return np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, n: int) -> list["RandomSource"]:
        """Derive ``n`` independent child sources deterministically."""
        states = np.random.SeedSequence(self.seed).generate_state(n, dtype=np.uint64)
        return [RandomSource(int(s), self.algorithm) for s in states]


@dataclass(frozen=True)
class SampleBatch:
    """Draws plus provenance: which sampler, which seed, proposal count."""

    values: np.ndarray
    sampler: str
    seed: int
    n_proposed: int | None = None

    @property
    def acceptance_rate(self) -> float | None:
        if self.n_proposed is None or self.n_proposed == 0:
            return None
        return self.values.size / self.n_proposed


def envelope_constant(pv: ParameterVector) -> float:
    """A constant M with extended density <= M * baseline density everywhere.

    In the pmf regime the distortion is convex and the tight constant is
    a_1 (the derivative's value at one).  Otherwise the returned value is
    the explicit three-term bound on the derivative, built from the range
    of each linear factor over [0, 1]; it is loose but always dominates.
    """
    if pv.pmf_ok:
        return pv.a[0]
    q, big_s = pv.q, pv.sum_a
    rest = pv.a[1:]
    denom = min(1.0, big_s / q)
    prod_max = math.prod(max(1.0, ai) for ai in rest)
    term1 = prod_max / denom**q
    term2 = abs(big_s - q) * prod_max / denom ** (q + 1)
    term3 = 0.0
    for i, ai in enumerate(rest):
        others = math.prod(max(1.0, aj) for j, aj in enumerate(rest) if j != i)
        term3 += abs(1.0 - ai) * others
    term3 /= denom**q
    return term1 + term2 + term3


def sample_accept_reject(
    ed: ExtendedDistribution,
    rng: RandomSource,
    n: int,
    envelope: float | None = None,
) -> SampleBatch:
    """Draw ``n`` values by thinning baseline proposals.

    A proposal at CDF level u is kept with probability T'(u)/M.  The
    expected acceptance rate is exactly 1/M.  ``envelope`` overrides the
    computed constant for fault-injection diagnostics only; a ratio above
    one raises :class:`EnvelopeViolation`, which always indicates a wrong
    constant rather than bad luck.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    m_const = envelope_constant(ed.pv) if envelope is None else float(envelope)
    gen = rng.generator()
    out: list[np.ndarray] = []
    got = 0
    proposed = 0
    rate = 1.0 / m_const if m_const > 1.0 else 1.0
    while got < n:
        chunk = int((n - got) / max(rate, 1e-3) * 1.2) + 16
        u_prop = gen.random(chunk)
        u_acc = gen.random(chunk)
        ratio = np.asarray(distortion_deriv(ed.pv, u_prop)) / m_const
        if np.any(ratio > 1.0 + _RATIO_SLACK):
            raise EnvelopeViolation(
                f"density ratio {float(ratio.max()):.6g} exceeds 1 with constant {m_const:.6g}"
            )
        hits = np.flatnonzero(u_acc < ratio)
        if got + hits.size >= n:
            # stop at the proposal that produced the n-th acceptance, so
            # n_proposed is the exact number of proposals consumed
            hits = hits[: n - got]
            proposed += int(hits[-1]) + 1
        else:
            proposed += chunk
        # F0(quantile(u)) = u, so accepted levels map straight through the
        # baseline inverse.
        keep = u_prop[hits]
        out.append(ed.baseline.quantile(keep) if keep.size else np.empty(0))
        got += hits.size
        rate = max(got / proposed, 1e-6)
    values = np.concatenate(out)
    return SampleBatch(values=values, sampler="accept-reject", seed=rng.seed, n_proposed=proposed)


class _CountTable:
    """Lazily extended cumulative sums of the series-at-zero weights.

    Append-only: readers take the current array, writers replace it by a
    longer one, so concurrent draws over the same parameter vector stay
    consistent.
    """

    def __init__(self, pv: ParameterVector):
        self.stream = _SeriesStream(pv, "at_zero")
        self.cum = self.stream.block(1, 2)[0]
        self.lock = threading.Lock()

    def extended_to(self, target: float, max_terms: int) -> np.ndarray:
        if self.cum[-1] <= target:
            with self.lock:
                while self.cum[-1] <= target:
                    m1 = self.cum.size + 1
                    if m1 > max_terms:
                        raise Nonconvergence(
                            f"count distribution stalled at mass {self.cum[-1]} after {max_terms} terms"
                        )
                    # the mass left, 1 - cum, falls geometrically to 1 - target
                    rho = self.stream.envelope_ratio(m1 - 1) if m1 > self.stream.q + 1 else math.inf
                    end = self.stream.next_end(1, m1, 1.0 - self.cum[-1], 1.0 - target, rho, max_terms)
                    more = np.concatenate((self.cum[-1:], self.stream.block(m1, end)[0])).cumsum()
                    self.cum = np.concatenate((self.cum, more[1:]))
        return self.cum


@lru_cache(maxsize=256)
def _count_table(pv: ParameterVector) -> _CountTable:
    if not pv.pmf_ok:
        raise ConditionViolated(
            "random sample counts require sum(a) >= q and a_i <= 1 for i >= 2 "
            f"(weights are not a pmf for a = {pv.a})"
        )
    return _CountTable(pv)


def _draw_counts(pv: ParameterVector, gen: np.random.Generator, n: int, max_terms: int) -> np.ndarray:
    """n counts from n uniforms of ``gen``; the table extends just far
    enough to cover the largest uniform drawn."""
    table = _count_table(pv)
    u = gen.random(n)
    cum = table.extended_to(float(u.max()), max_terms)
    return np.searchsorted(cum, u, side="right") + 1


def sample_count(pv: ParameterVector, rng: RandomSource, n: int | None = None, max_terms: int = 10**6):
    """Draw the random baseline-draw count N with P(N = m) = series weight m.

    Returns a single int for ``n=None``, otherwise an int array of length n.
    """
    counts = _draw_counts(pv, rng.generator(), 1 if n is None else int(n), max_terms)
    return int(counts[0]) if n is None else counts


def sample_random_maxima(ed: ExtendedDistribution, rng: RandomSource, n: int) -> SampleBatch:
    """Draw ``n`` values as maxima of random-size batches of baseline draws.

    Only valid in the pmf regime; outside it the weights are signed and the
    construction has no sampling meaning, so this refuses rather than
    renormalizing.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    gen = rng.generator()
    counts = _draw_counts(ed.pv, gen, n, 10**6)
    total = int(counts.sum())
    draws = gen.random(total)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # max of the uniforms, then one monotone transform: identical in law to
    # transforming each draw and then taking the max.
    top = np.maximum.reduceat(draws, starts)
    values = ed.baseline.quantile(np.clip(top, np.finfo(float).tiny, None))
    return SampleBatch(values=np.asarray(values), sampler="random-maxima", seed=rng.seed)


def sample_inverse_cdf(ed: ExtendedDistribution, rng: RandomSource, n: int) -> SampleBatch:
    """Draw ``n`` values by applying the extended quantile to uniforms."""
    if n < 1:
        raise DomainError("n must be >= 1")
    gen = rng.generator()
    u = np.clip(gen.random(n), np.finfo(float).tiny, None)
    values = ed.quantile(u)
    return SampleBatch(values=np.asarray(values), sampler="inverse-cdf", seed=rng.seed)


def logistic_transform(
    batch: SampleBatch,
    a1: float,
    a2: float,
    baseline: Baseline,
    rng: RandomSource,
) -> np.ndarray:
    """Collapse a two-parameter extended sample to standard logistic variates.

    For draws X from the (a1, a2) extension over a baseline whose CDF is a
    bijection onto (0, 1), the log-odds Y = log(S0(X)/F0(X)) convolved with
    an independent exponential of rate (a1+a2)/|a1-a2| and recentred is
    standard logistic.  Draws landing exactly on the support boundary map
    to Y = 0.  Useful as a distribution-free diagnostic of the whole
    sampling + evaluation pipeline.
    """
    if not (math.isfinite(a1) and math.isfinite(a2)) or a1 <= 0 or a2 <= 0:
        raise DomainError("a1 and a2 must be strictly positive")
    if a1 == a2:
        raise DomainError("the convolution rate (a1+a2)/|a1-a2| is undefined for a1 = a2")
    x = np.asarray(batch.values, dtype=float)
    f0 = np.asarray(baseline.cdf(x))
    s0 = np.asarray(baseline.sf(x))
    interior = (f0 > 0.0) & (f0 < 1.0)
    y = np.zeros_like(x)
    y[interior] = np.log(s0[interior]) - np.log(f0[interior])
    gen = rng.generator()
    v = gen.exponential(scale=abs(a1 - a2) / (a1 + a2), size=x.size)
    if a1 > a2:
        return y + v - math.log(2.0 / (a1 + a2))
    return -y + v - math.log((a1 + a2) / 2.0)
