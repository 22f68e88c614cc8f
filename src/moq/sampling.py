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
from .family import _EPS, ParameterVector, _series_stream, distortion_deriv
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

# Pieces of [0, 1] on which envelope_constant bounds T'.  A power of two, so
# that every node u = k/K and its complement 1 - u are exact floats.
_ENVELOPE_PIECES = 256
_NODES = np.array([np.arange(_ENVELOPE_PIECES + 1), np.arange(_ENVELOPE_PIECES, -1, -1)]) / _ENVELOPE_PIECES

# Most proposals one accept-reject chunk draws: memory stays bounded however
# large n * M grows.
_MAX_PROPOSALS = 1 << 20


@dataclass(frozen=True)
class RandomSource:
    """A named, reproducible stream of randomness (PCG64 under the hood)."""

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, n: int) -> list["RandomSource"]:
        """Derive ``n`` independent child sources deterministically."""
        states = np.random.SeedSequence(self.seed).generate_state(n, dtype=np.uint64)
        return [RandomSource(int(s)) for s in states]


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


@lru_cache(maxsize=256)
def envelope_constant(pv: ParameterVector) -> float:
    """A constant M >= T' on [0, 1], so extended density <= M * baseline density.

    In the pmf regime the distortion is convex and M is a_1 = T'(1).
    Otherwise T' is bounded on each of ``_ENVELOPE_PIECES`` = 256 equal
    pieces of [0, 1] by interval arithmetic on the regrouped form of
    :func:`moq.family.distortion_deriv`, each factor divided by D:

        T' = (q/D)*(L/D)*prod g_i + (q*u/D)*(q*(1-u)/D)*(1/D)
             * sum_i (1-a_i)*(S - q*a_i)*prod_{j!=i} g_j,   i, j >= 2,

    g_i = q*(u + a_i*(1-u))/D, D = q*u + S*(1-u), L = S*(1-u) + q*a_1*u.
    Each factor is a ratio of linear functions of u, so its range on a
    piece is its two end values; each signed weight takes the end that
    makes its term largest.  Nothing grows like q^q, so large q does not
    overflow; a bound that is still not finite raises DomainError.

    M is the largest piece bound plus a rounding margin gamma * A, with
    gamma = 16*(q + 4)*eps and A the same bound with every weight replaced
    by |1-a_i|*(S + q*a_i).  It covers the rounding of this bound and of
    the float T' that accept-reject divides by M, so T'(u)/M <= 1 +
    ``_RATIO_SLACK`` holds in floating point too.  Cached per vector.
    """
    if pv.pmf_ok:
        return pv.a[0]
    q, big_s, a1 = pv.q, pv.sum_a, pv.a[0]
    rest = pv.a[1:]
    # rows alpha*u + beta*(1-u) for q*f_2..q*f_q, q, L, q*u, q*(1-u), 1 and D
    lines = [(q, q * ai) for ai in rest] + [(q, q), (q * a1, big_s), (q, 0.0), (0.0, q), (1.0, 1.0), (q, big_s)]
    ends = np.array(lines) @ _NODES
    ends = ends[:-1] / ends[-1]
    lo, hi = np.minimum(ends[:, :-1], ends[:, 1:]), np.maximum(ends[:, :-1], ends[:, 1:])
    g_lo, g_hi, coef_lo, coef_hi = lo[: q - 1], hi[: q - 1], lo[q + 1 :].prod(axis=0), hi[q + 1 :].prod(axis=0)
    prod_hi = g_hi.prod(axis=0)
    lead = prod_hi * hi[q - 1] * hi[q]
    # products of all g_j but one; an underflow to 0/0 ends as DomainError below
    others_lo, others_hi = g_lo.prod(axis=0) / g_lo, prod_hi / g_hi
    weights = np.array([(1.0 - ai) * (big_s - q * ai) for ai in rest])
    corr = np.minimum(weights, 0.0) @ others_lo + np.maximum(weights, 0.0) @ others_hi
    spread = np.where(corr >= 0.0, coef_hi, coef_lo) * corr
    scale = lead + coef_hi * (np.array([abs(1.0 - ai) * (big_s + q * ai) for ai in rest]) @ others_hi)
    bound = float((lead + spread + 16 * (q + 4) * _EPS * scale).max())
    if not math.isfinite(bound):
        raise DomainError(f"no finite envelope constant for q = {q}, a = {pv.a}")
    return bound


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
    constant rather than bad luck.  Proposals are drawn in chunks of at
    most ``_MAX_PROPOSALS`` (2^20), so memory does not grow with n * M.
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
        chunk = min(int((n - got) / max(rate, 1e-3) * 1.2) + 16, _MAX_PROPOSALS)
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
        self.stream = _series_stream(pv, "at_zero")
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
