"""The numpy "%.17g" writer of the CLI: its bytes are those of
``"%.17g" % v`` for every float64, joined with the field terminators."""

import math
from fractions import Fraction

import numpy as np
import pytest

from moq._g17 import _BLOCK, _significands, write_g17


def reference(values, seps: bytes) -> bytes:
    return "".join("%.17g" % v + chr(seps[i % len(seps)]) for i, v in enumerate(np.asarray(values).tolist())).encode()


def written(values, seps: bytes) -> bytes:
    chunks = []
    write_g17(chunks.append, np.asarray(values, dtype=np.float64), seps)
    return b"".join(chunks)


def with_neighbours(values) -> np.ndarray:
    """Each value, its neighbours one and two ulps away, and their negatives."""
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        up = np.nextafter(v, np.inf)
        out = np.concatenate((v, up, np.nextafter(up, np.inf), np.nextafter(v, -np.inf)))
    return np.concatenate((out, -out))


@pytest.mark.parametrize("seps", [b"\n", b",\n"])
def test_any_float64(seps):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                               min_size=2, max_size=40))
    def check(values):
        values = values[: len(values) - len(values) % len(seps)]
        assert written(values, seps) == reference(values, seps)

    check()


def test_bit_patterns():
    """Random bit patterns: every exponent, subnormals, infinities and NaNs."""
    bits = np.random.default_rng(17).integers(0, 2**64, 60_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert written(values, b"\n") == reference(values, b"\n")
    assert written(values, b",\n") == reference(values, b",\n")


def test_exact_decimal_ties():
    """k / 2^j has a finite decimal expansion; where its 18th significant
    digit is the last and a 5, "%.17g" rounds the tie to even."""
    k = np.arange(1, 4000, 3, dtype=np.float64)
    values = np.concatenate([k / 2.0**j for j in range(1, 64)]
                            + [(2.0**53 - k) / 2.0**j for j in range(1, 12)]
                            + [np.array([125000000000000.125, 0.5, 2.5, 1e15 + 0.5])])
    assert written(values, b"\n") == reference(values, b"\n")


def test_powers_of_ten_and_the_layout_switches():
    """Fixed notation for -4 <= E < 17, exponents of 2 and 3 digits beyond;
    each power of ten with its neighbours, where log10 may be one off."""
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    switches = [9.99999999999999e-6, 1e-5, 1e-4, 9.9999999999999999e-5, 0.001, 1.0, 1e16, 1e17, 99999999999999999.0,
                9.999999999999999e16, 123456789012345678.0, 1e100, 1e-100, 1e280, 1e-280, 1.7976931348623157e308]
    values = with_neighbours(powers + switches)
    assert written(values, b"\n") == reference(values, b"\n")
    text = written(values, b"\n").split()
    assert b"1e+100" in text and b"1e-100" in text and b"1.0000000000000001e-05" in text and b"0.0001" in text
    assert b"10000000000000000" in text and b"1e+17" in text


def test_integers_and_uniforms():
    rng = np.random.default_rng(5)
    values = np.concatenate((np.arange(-3000.0, 3000.0), rng.uniform(0.0, 1.0, 20_000),
                             rng.exponential(1.0, 20_000), np.round(rng.uniform(-1e6, 1e6, 5_000), 3)))
    assert written(values, b"\n") == reference(values, b"\n")


@pytest.mark.parametrize("seps, sizes", [
    (b"\n", (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17)),
    (b",\n", (_BLOCK - 2, _BLOCK, _BLOCK + 2, 2 * _BLOCK + 18)),
])
def test_block_boundaries(seps, sizes):
    """One write per block, and fields that fall back to "%.17g" on both
    sides of each block boundary."""
    rng = np.random.default_rng(3)
    for n in sizes:
        values = rng.exponential(1.0, n)
        for i in (0, _BLOCK - 1, _BLOCK, n - 1):
            if i < n:
                values[i] = (0.0, np.nan, -np.inf, 5e-324)[i % 4]
        chunks = []
        write_g17(chunks.append, values, seps)
        assert len(chunks) == -(-n // _BLOCK)
        assert b"".join(chunks) == reference(values, seps)


def test_only_ties_fall_back():
    """In [1e-280, 1e280] the fast path refuses only values whose scaled
    significand lies within 1e-9 of a half, exact ties included (common
    between 1e13 and 1e17, where the doubles have few fraction bits)."""
    rng = np.random.default_rng(11)
    values = 10.0 ** rng.uniform(-279.0, 279.0, 100_000)
    n, e10, ok = _significands(values)
    assert np.count_nonzero(~ok) <= 200
    for v, e in zip(values[~ok].tolist(), e10[~ok].tolist()):
        s = Fraction(v) * Fraction(10) ** (16 - e)
        assert abs(s - math.floor(s) - Fraction(1, 2)) <= Fraction(1, 10**9)
    exact = [Fraction(v) * Fraction(10) ** (16 - e) for v, e in zip(values[ok].tolist()[:2000], e10[ok].tolist())]
    assert n[ok][:2000].tolist() == [round(s) for s in exact]
    _, _, ok = _significands(np.array([0.0, -0.0, np.inf, np.nan, 5e-324, 2e-300, 1e300, 125000000000000.125]))
    assert not ok.any()


def test_exponents_one_off_are_moved():
    """Near a power of ten floor(log10 |v|) can be one off; the exponent is
    then moved and the significand formed again, with no fallback."""
    powers = [float(f"1e{k}") for k in (*range(-279, -22), *range(23, 280))]
    values = np.abs(with_neighbours(powers))
    off = np.floor(np.log10(values)) != [int(("%.16e" % v).split("e")[1]) for v in values.tolist()]
    assert off.sum() >= 100
    n, e10, ok = _significands(values)
    assert ok.all()
    mantissas, exponents = zip(*(("%.16e" % v).split("e") for v in values.tolist()))
    assert [str(m) for m in n.tolist()] == [m.replace(".", "") for m in mantissas]
    assert e10.tolist() == [int(e) for e in exponents]
