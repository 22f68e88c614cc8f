"""The bytes of ``"%.17g" % v`` for every value of a float64 array, in numpy.

:func:`write_g17` formats an array a block of ``_BLOCK`` fields at a time
and hands each block's bytes to a writer, so no text of the whole array is
ever built.  Field i ends with ``seps[i % len(seps)]``: ``b"\\n"`` gives one
value per line, ``b",\\n"`` two columns of CSV.

Per block (positive |v| in [1e-280, 1e280]):

* the decimal exponent E = floor(log10 |v|), which may be one off;
* s = |v| 10^(16 - E) as a double-double: Dekker's exact product of |v| with
  the nearer double of 10^(16 - E), plus |v| times the rounding left in it.
  Its error is below 1e-14, so the 17-digit significand N = round(s) is
  certified wherever the fraction of s lies more than 1e-9 from a half.
  Where s leaves [10^16, 10^17), E moves by one and s is formed again;
  N = 10^17 after rounding is 10^16 at E + 1;
* the ``%g`` layout: fixed notation for -4 <= E < 17, else d.ddd e±dd[d],
  trailing zeros and a bare point stripped.  Each field is a row of
  little-endian uint32 words, each part of it in words of its own, every
  byte it does not print zero: the sign and a 17th integer digit; the
  integer part I = N // 10^s (s = 16 - E in fixed notation, 16 in
  scientific, 17 below one), right aligned with its leading zeros zero;
  the point, the zeros of 0.000ddd and the first digit of the fraction
  F = (N mod 10^s) 10^(17 - s); F's other 16 digits, left aligned with
  their trailing zeros zero; the exponent and the terminator.  A block
  keeps only the words some field of it prints in, and the digits come
  four at a time from tables of 10^4 words.  Dropping the zero bytes packs
  the rows.

Any other value -- zero, a subnormal, inf, nan, |v| beyond 1e±280 -- and
any value at a near tie is formatted by ``"%.17g" % v``, the fast path plus
exact fallback of shortest-float printers (Adams, Ryu, PLDI 2018).
"""

from __future__ import annotations

from functools import cache

import numpy as np

_BLOCK = 8192
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for binary64
_K = 320  # the 10^k table spans -_K <= k <= _K
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_E16 = np.uint64(10**16)
_U4 = np.dtype("<u4")

# hi, its Veltkamp halves and lo of each 10^k = hi + lo, filled on first use;
# a fill writes the same values whoever makes it
_P_HI, _P_HH, _P_HL, _P_LO = (np.zeros(2 * _K + 1) for _ in range(4))
_P_SET = np.zeros(2 * _K + 1, dtype=bool)


def _fill_powers(ks: np.ndarray) -> None:
    """Fill the table at the indices ``ks`` (k + _K) not yet filled: hi is
    10^k correctly rounded and lo the correctly rounded rest, from exact
    integer arithmetic."""
    if _P_SET[ks].all():
        return
    for i in set(ks[~_P_SET[ks]].tolist()):
        k = i - _K
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            den = 10**-k
            hi = 1 / den
            num, pow2 = hi.as_integer_ratio()
            lo = (pow2 - num * den) / (pow2 * den)
        c = _SPLIT * hi
        hh = c - (c - hi)
        _P_HI[i], _P_HH[i], _P_HL[i], _P_LO[i] = hi, hh, hi - hh, lo
        _P_SET[i] = True


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """Words of the four digits of g < 10^4, at g in full and at g + 10^4
    with zeros zeroed: leading ones (0 gives none) for the integer part,
    the same but 0 giving "0" for its last word, and trailing ones for the
    fraction; then the word of the point and the zeros of 0.000ddd, at
    dot + 2 * zeros."""
    g = np.arange(10_000, dtype=np.uint32)
    place = np.array([[1000], [100], [10], [1]], dtype=np.uint32)  # of each byte of a word
    chars = (g // place % 10 + 48) << np.array([[0], [8], [16], [24]], dtype=np.uint32)
    full = chars.sum(axis=0, dtype=np.uint32)
    lead = (chars * (g >= place)).sum(axis=0, dtype=np.uint32)
    last = lead.copy()
    last[0] = 48 << 24
    trail = (chars * (g % (10 * place) != 0)).sum(axis=0, dtype=np.uint32)
    point = np.frombuffer(b"".join(
        (b"." * dot + b"0" * zeros).ljust(4, b"\0") for zeros in range(4) for dot in (0, 1)
    ), dtype=_U4)
    return np.concatenate((full, lead)), np.concatenate((full, last)), np.concatenate((full, trail)), point


def _scaled(x: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(s) and s - floor(s) for s = x 10^(16 - e10)."""
    k = _K + 16 - e10
    _fill_powers(k)
    hi, hh, hl, lo = _P_HI[k], _P_HH[k], _P_HL[k], _P_LO[k]
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    p = x * hi  # an integer wherever s >= 2^53
    e = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + x * lo
    whole = np.floor(e)
    return p.astype(np.int64) + whole.astype(np.int64), e - whole


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significands N and exponents E, |a| = N 10^(E - 16) to the
    nearest, and the mask of the values the fast path certifies."""
    ok = (a >= 1e-280) & (a <= 1e280)
    x = np.where(ok, a, 1.0)
    e10 = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scaled(x, e10)
    off = (whole < _POW10[16]) | (whole >= _POW10[17])
    if off.any():
        fix = np.flatnonzero(off)
        e10[fix] += np.where(whole[fix] < _POW10[16], -1, 1)
        whole[fix], frac[fix] = _scaled(x[fix], e10[fix])
    ok &= (whole >= _POW10[16]) & (whole < _POW10[17]) & (np.abs(frac - 0.5) > 1e-9)
    n = whole + (frac > 0.5)
    top = n == _POW10[17]
    n[top] = _POW10[16]
    return n, e10 + top, ok


def _quads(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four 4-digit groups of x < 10^16 (uint64), most significant first, uint32."""
    hi = (x // 100_000_000).astype(np.uint32)
    lo = (x - hi * np.uint64(100_000_000)).astype(np.uint32)
    a, c = hi // 10_000, lo // 10_000
    return a, hi - a * 10_000, c, lo - c * 10_000


def _format_block(v: np.ndarray, seps: bytes) -> bytes:
    """The fields of ``v``, field i ended by ``seps[i % len(seps)]``
    (``v.size`` a multiple of ``len(seps)``)."""
    lead, last, trail, point = _tables()
    size = v.size
    n, e10, ok = _significands(np.abs(v))
    sci = (e10 < -4) | (e10 >= 17)
    small = ~sci & (e10 < 0)
    # I = N // 10^s with s = 16 - E fixed, 16 in scientific, 17 below one
    shift = np.where(sci, 16, np.where(small, 17, 16 - e10))
    scale = _POW10[shift]
    whole = n // scale
    frac = ((n - whole * scale) * _POW10[17 - shift]).view(np.uint64)
    whole = whole.view(np.uint64)
    # a word only where some row of the block prints in it
    words = []
    neg, big = v < 0.0, whole >= _E16
    if neg.any() or big.any():  # sign, and the 17th integer digit at E = 16
        top = np.where(big, whole // _E16, np.uint64(0))
        words.append(neg.astype(np.uint64) * np.uint64(45 << 16) | np.where(big, (top + 48) << 24, 0))
    else:
        top = 0
    reach = int(whole.max())
    for j, group in enumerate(_quads(whole - top * _E16)):
        if j == 3 or reach >= 10 ** (12 - 4 * j):
            table = last if j == 3 else lead
            words.append(table[group + 10_000 * (whole < 10 ** (16 - 4 * j))])

    top = frac // _E16
    dot = point[(frac > 0) + 2 * np.where(small, -1 - e10, 0)]
    first = np.where(frac > 0, (top + 48) << 24, 0)
    if small.any():  # the point, up to three zeros, then the first digit
        words += [dot, first]
    else:
        words.append(dot | first)
    f1, f2, f3, f4 = _quads(frac - top * _E16)
    z4 = f4 == 0
    z34 = z4 & (f3 == 0)
    words += [
        trail[f1 + 10_000 * (z34 & (f2 == 0))],
        trail[f2 + 10_000 * z34],
        trail[f3 + 10_000 * z4],
        trail[f4 + 10_000],
    ]
    if sci.any():  # "e", the sign, and two or three digits
        mag = np.abs(e10).astype(np.uint32)
        hundreds, tens = mag // 100, mag // 10 % 10
        words.append(np.where(
            sci,
            101 | np.where(e10 < 0, 45, 43) << 8 | np.where(hundreds > 0, hundreds + 48, 0) << 16 | (tens + 48) << 24,
            0,
        ))
        words.append(np.where(sci, mag % 10 + 48, 0))
    else:
        words.append(0)

    rows = np.empty((size, len(words)), dtype=_U4)
    for j, word in enumerate(words):
        rows[:, j] = word
    rows.reshape(-1, len(seps), len(words))[:, :, -1] |= np.frombuffer(seps, dtype=np.uint8).astype(_U4) << 8
    raw = rows.view(np.uint8)
    bad = np.flatnonzero(~ok)
    if bad.size:
        # "%.17g" % v and the terminator, zero-padded to the row (of 28 bytes or more)
        width = raw.shape[1]
        text = b"".join(
            (b"%.17g%c" % (val, sep)).ljust(width, b"\0")
            for val, sep in zip(v[bad].tolist(), (seps[i % len(seps)] for i in bad.tolist()))
        )
        raw[bad] = np.frombuffer(text, dtype=np.uint8).reshape(bad.size, width)
    flat = raw.ravel()
    return flat[flat != 0].tobytes()


def write_g17(write, values: np.ndarray, seps: bytes) -> None:
    """Call ``write`` with the bytes of each block of ``_BLOCK`` fields of
    ``values`` (float64, its size a multiple of ``len(seps)``), field i
    formatted as ``"%.17g"`` and ended by ``seps[i % len(seps)]``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    step = _BLOCK - _BLOCK % len(seps)
    for start in range(0, values.size, step):
        write(_format_block(values[start : start + step], seps))
