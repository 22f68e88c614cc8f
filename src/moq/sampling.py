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

Samplers draw their uniforms and pass them through each map (the extended
quantile, T', the baseline quantile) in blocks of ``_BLOCK`` = 8192
levels.  A map makes some twenty temporaries per call.  At 1e5 levels each
is 0.8 MB: malloc maps it afresh and returns it to the kernel, which faults
its pages in again on every call.  At 8192 levels each is 64 KiB, which
malloc reuses from block to block and which stays in cache.  A sampler
that takes two streams from one generator, n uniforms and then n more,
draws the second from a copy of the PCG64 advanced n draws (:func:`_two_streams`),
so that both come a block at a time.  Every map is elementwise and a
PCG64 double takes one draw, so the draws do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConditionViolated, DomainError, EnvelopeViolation, Nonconvergence
from .extended import ExtendedDistribution
from .family import _EPS, ParameterVector, distortion_deriv, series_at_zero
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

# Most levels one call of a map sees; see the module docstring.
_BLOCK = 8192


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


def _two_streams(gen: np.random.Generator, n: int):
    """(start, size, second) for each block of ``_BLOCK`` of n, in order, to
    draw two streams a block at a time: the next n uniforms of ``gen`` and
    the n after them.  The caller draws ``size`` of the first from ``gen``,
    then ``size`` of the second from ``second``; after the last block
    ``gen`` has passed both.  ``second`` is a copy of the PCG64 advanced n
    draws, or for n <= ``_BLOCK`` ``gen`` itself, which then draws the one
    block of each back to back.  Both give the same bits, so the one-block
    case is for speed alone: it skips seeding a PCG64 from OS entropy, some
    20 us, which 100 accept-reject draws (44 us against 65) and 100 random
    maxima (29 against 48) would pay on a 2.4 GHz Xeon."""
    if n <= _BLOCK:
        yield 0, n, gen
        return
    bits = np.random.PCG64()
    bits.state = gen.bit_generator.state
    bits.advance(n)
    second = np.random.Generator(bits)
    for start in range(0, n, _BLOCK):
        yield start, min(_BLOCK, n - start), second
    gen.bit_generator.advance(n)


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
    computed constant for fault-injection diagnostics only; one that is not
    positive and finite raises :class:`DomainError`, and a ratio above
    one raises :class:`EnvelopeViolation`, which always indicates a wrong
    constant rather than bad luck; it is raised after the chunk in which it
    occurs, with the chunk's largest ratio.

    Proposals are drawn in chunks of at most ``_MAX_PROPOSALS`` (2^20): a
    chunk's proposal levels, then as many acceptance uniforms.  Both are
    drawn a block at a time, the acceptance uniforms from a copy of the
    generator advanced past the proposals, so memory grows neither with
    n * M nor with the chunk.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    m_const = envelope_constant(ed.pv) if envelope is None else float(envelope)
    if not 0.0 < m_const < math.inf:  # no proposal would ever be accepted
        raise DomainError(f"envelope must be positive and finite, got {m_const!r}")
    gen = rng.generator()
    values = np.empty(n)
    got = 0
    proposed = 0
    rate = 1.0 / m_const if m_const > 1.0 else 1.0
    while got < n:
        chunk = min(int((n - got) / max(rate, 1e-3) * 1.2) + 16, _MAX_PROPOSALS)
        # the chunk's proposals, then its acceptance uniforms, a block of each at a time
        worst, used = 0.0, chunk
        for start, size, acc in _two_streams(gen, chunk):
            u_prop = gen.random(size)
            u_acc = acc.random(size)
            ratio = distortion_deriv(ed.pv, u_prop)
            ratio /= m_const
            worst = max(worst, float(ratio.max()))
            if got < n and (hits := np.flatnonzero(u_acc < ratio)[: n - got]).size:
                # F0(quantile(u)) = u, so accepted levels map straight
                # through the baseline inverse
                values[got : got + hits.size] = ed.baseline.quantile(u_prop[hits])
                got += hits.size
                if got == n:  # n_proposed ends at the proposal of the n-th acceptance
                    used = start + int(hits[-1]) + 1
        # T' is checked on every proposal of the chunk, those past the n-th acceptance too
        if worst > 1.0 + _RATIO_SLACK:
            raise EnvelopeViolation(f"density ratio {worst:.6g} exceeds 1 with constant {m_const:.6g}")
        proposed += used
        rate = max(got / proposed, 1e-6)
    return SampleBatch(values=values, sampler="accept-reject", seed=rng.seed, n_proposed=proposed)


@lru_cache(maxsize=256)
def _count_cdf(pv: ParameterVector, max_terms: int) -> np.ndarray | str:
    """Cumulative sums of the series-at-zero weights, from the one series
    walk, up to where the mass left is below 2^-53, the resolution of a
    uniform draw; or, where the walk needs more than ``max_terms`` terms,
    the message of its :class:`Nonconvergence`, so that the refusal is
    cached too.  Cached per vector and term budget."""
    if not pv.pmf_ok:
        raise ConditionViolated(
            "random sample counts require sum(a) >= q and a_i <= 1 for i >= 2 "
            f"(weights are not a pmf for a = {pv.a})"
        )
    try:
        return np.cumsum(series_at_zero(pv, 2.0**-53, max_terms).values)
    except Nonconvergence as exc:
        return str(exc)


def _draw_counts(pv: ParameterVector, gen: np.random.Generator, n: int, max_terms: int) -> np.ndarray:
    """n counts from n uniforms of ``gen`` by the count CDF; a uniform above
    its last sum takes the count one past the table."""
    cdf = _count_cdf(pv, max_terms)
    if isinstance(cdf, str):
        raise Nonconvergence(cdf)
    return np.searchsorted(cdf, gen.random(n), side="right") + 1


def sample_count(pv: ParameterVector, rng: RandomSource, n: int | None = None, max_terms: int = 10**6):
    """Draw the random baseline-draw count N with P(N = m) = series weight m.

    Returns a single int for ``n=None``, otherwise an int array of length n.
    ``max_terms`` bounds the terms of the count CDF; a vector whose weights
    need more raises :class:`Nonconvergence`.
    """
    counts = _draw_counts(pv, rng.generator(), 1 if n is None else int(n), max_terms)
    return int(counts[0]) if n is None else counts


def sample_random_maxima(ed: ExtendedDistribution, rng: RandomSource, n: int) -> SampleBatch:
    """Draw ``n`` values as maxima of random-size batches of baseline draws.

    The maximum of N uniforms has the law of V^(1/N) for one uniform V, so
    each draw takes a count N and one V, and V^(1/N) goes through the
    baseline quantile: identical in law to transforming N draws and then
    taking the max.  The n count uniforms come first in the stream, then
    the n V; both are drawn a block at a time, the V from a copy of the
    generator advanced past the counts.  Only valid in the pmf
    regime; outside it the weights are signed and the construction has no
    sampling meaning, so this refuses rather than renormalizing.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    gen, values = rng.generator(), np.empty(n)
    for start, size, tops in _two_streams(gen, n):
        counts = _draw_counts(ed.pv, gen, size, 10**6)  # first: ``tops`` may be ``gen``
        top = tops.random(size) ** (1.0 / counts)
        values[start : start + size] = ed.baseline.quantile(np.maximum(top, np.finfo(float).tiny, out=top))
    return SampleBatch(values=values, sampler="random-maxima", seed=rng.seed)


def sample_inverse_cdf(ed: ExtendedDistribution, rng: RandomSource, n: int) -> SampleBatch:
    """Draw ``n`` values by applying the extended quantile to uniforms,
    drawn a block at a time."""
    if n < 1:
        raise DomainError("n must be >= 1")
    gen, values = rng.generator(), np.empty(n)
    for start in range(0, n, _BLOCK):
        u = gen.random(min(_BLOCK, n - start))
        values[start : start + u.size] = ed.quantile(np.maximum(u, np.finfo(float).tiny, out=u))
    return SampleBatch(values=values, sampler="inverse-cdf", seed=rng.seed)


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
