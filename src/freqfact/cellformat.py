"""Exact conversion of doubles to the text ``repr`` gives them.

:func:`format_cells` returns the bytes of ``",".join(map(repr, row))`` lines,
each ended by ``\\n``, for the rows of a block of doubles.  It works with
whole-array operations, and proves each cell's digits or leaves the cell to
``repr``.

``repr`` writes the shortest decimal that reads back as the double, and of
those the nearest (Steele & White, PLDI 1990; Adams, "Ryu", PLDI 2018).  A
normal double ``x = m * 2**(E-1075)``, with ``2**52 <= m < 2**53``, gets its
decimal exponent ``e10 = floor(log10|x|)`` from two tables over ``E`` and
one compare.  Scaled by ``10**p``, ``p = 16 - e10``, it lies in
``[10**16, 10**17)``, where a unit is the 17th significant digit:

1. ``10**p = (hi + lo) * 2**b``, with ``hi`` and ``lo`` doubles and
   ``lo = 0`` for ``0 <= p <= 22``.  ``s = |x| * 2**b * (hi + lo)`` is one
   Dekker two-product with ``hi`` (exact) plus the product with ``lo``:
   an integer part and a fraction within ``2**-45`` of the exact ones, and
   exact where ``lo = 0``.
2. Integer division by 10 and 100 gives the correctly rounded 16- and
   15-digit candidates and their distances from ``s``; the 17-digit one
   rounds the fraction.  Half an ulp of ``x`` is ``h = 2**(E-1076) * 10**p``
   units, and a decimal within ``h`` of ``x`` reads back as ``x``.
3. The 15-digit candidate wins when it lies within ``h``: no two decimals of
   15 digits or fewer read as one double, so none shorter reads as ``x``.
   Else the 16-digit candidate wins when it lies within ``h``, being the
   nearest of 16 digits; else the 17-digit one, which always does (``h >
   0.55``).  Trailing zeros are stripped.  Where the product is exact, a
   rounding tie goes to the even digit, as ``repr`` takes it.

A cell is left to ``repr`` when a distance lies within :data:`_BAND` of
``h``, or an inexact rounding within it of a tie: there the winner turns on
bits the product does not hold, or on the round-half-even rule that reads
a decimal on the boundary.  So are subnormals, infinities and NaNs, and
powers of two when no candidate of 15 digits reads back: the double below
one is half as far away as the one above, so the nearest 16-digit decimal
need not be the one ``repr`` writes.

The digits are laid out as ``repr`` lays them out: positional for ``-4 <=
e10 < 16`` (with ``.0`` on integral values), else ``d[.ddd]e±XX``.  Each
cell fills four words of sign, prefix (``0.`` and zeros), digit (with the
dot), exponent and separator fields, unused bytes NUL, built from tables
of four ASCII digits; one ``bytes.translate`` deletes the NULs.  Every step
is IEEE double or integer arithmetic, so the bytes are the same on every
platform numpy runs on.

:mod:`freqfact.io` imports this module where it first formats a block large
enough to pay for it, not with the package.
"""

import numpy as np

__all__ = ["format_cells"]

# Width of the distance and tie bands, in units of the 17th digit: over 100
# times the error of the scaled product and the distances taken from it,
# and so narrow that almost no cell lies in one unless it lies on the
# boundary exactly.
_BAND = 2.0**-38

# A cell's text is laid out in four little-endian words, 32 bytes: sign 1,
# prefix 5 (``0.`` and up to three zeros), a NUL, the digit field of 18
# bytes (17 digits with the dot among them), exponent 5 (``e±XX`` or
# ``e±XXX``), a NUL and the separator.  Byte j of the digit field is byte
# 7 + j of the row.
_WIDTH = 32

# Decimal exponents of normal doubles; the powers of ten the tables hold
# are 10**(16 - e10), to scale by, and 10**(e10 + 1), to compare with.
_E10_MIN, _E10_MAX = -308, 308
_Q_MIN, _Q_MAX = _E10_MIN, 16 - _E10_MIN

_FRAC = np.uint64((1 << 52) - 1)


def _pow10_splits():
    """``10**q = (hi + lo) * 2**b`` for q = _Q_MIN.._Q_MAX, with ``1 <= hi
    < 2`` the double nearest ``10**q * 2**-b`` and ``lo`` the double
    nearest the rest (0 where ``hi`` is exact)."""
    his, los, bs = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        b = num.bit_length() - den.bit_length()
        num, den = (num, den << b) if b >= 0 else (num << -b, den)
        if num < den:
            num, b = num << 1, b - 1
        hi = num / den  # int / int rounds correctly, whatever the size
        hn, hd = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hd - hn * den) / (den * hd))
        bs.append(b)
    return np.array(his), np.array(los), np.array(bs)


def _scale_tables():
    """Per biased binary exponent E: the decimal exponent of ``2**(E-1023)``,
    and the least fraction bits from which a double of that binade is at
    least 10 times that power of ten (``2**52``, none, where the binade
    holds no power of ten).  Per e10 from ``_E10_MIN``: ``10**(16 - e10)``
    split as :func:`_pow10_splits` splits it, with ``hi``'s own split in two
    26-bit halves (Veltkamp)."""
    # The float floor is exact: no |E - 1023| < 1100 but 0 puts (E - 1023) *
    # log10(2) within 1e-13 of an integer.
    e_low = np.floor((np.arange(2048) - 1023) * np.log10(2.0)).astype(np.int64)
    e_low[0] = e_low[2047] = 0  # zeros, subnormals and non-finite values
    hi, lo, b = _pow10_splits()
    q = e_low + 1 - _Q_MIN
    near = np.ldexp(hi[q], b[q])
    up = np.where(lo[q] > 0, np.nextafter(near, np.inf), near).view(np.uint64)
    threshold = np.where(up >> np.uint64(52) == np.arange(2048), up & _FRAC, 1 << 52)
    threshold[0] = threshold[2047] = 1 << 52
    p = 16 - np.arange(_E10_MIN, _E10_MAX + 1) - _Q_MIN
    hi, lo, b = hi[p], lo[p], b[p]
    t = hi * 134217729.0
    head = t - (t - hi)
    return e_low, threshold.astype(np.uint64), hi, head, hi - head, lo, b


_E_LOW, _E_UP, _HI, _HI_HEAD, _HI_TAIL, _LO, _B = _scale_tables()

# The ASCII digits of 0..9999, four to a word's low bytes, and the trailing
# zeros of each as four digits (4 for 0).
_QUADS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(
    np.uint8).view(np.uint32).ravel().astype(np.uint64)
_TZ = sum((np.arange(10000) % d == 0).astype(np.int64) for d in (10, 100, 1000, 10000))


def _layout_tables():
    """Per e10 from ``_E10_MIN``: the index of the dot in the digit field
    (-1 where the prefix holds it), the least end of the field, whether the
    layout is scientific, and the prefix and exponent words.  Per class
    ``(dot + 1) * 19 + end``: in words 1-3 of a row, the masks of the
    digit field's bytes before the dot (taken from the digits), after it
    (from the digits moved one byte on) and of the dot itself; and in word
    0, the mask of the first digit."""
    e10 = np.arange(_E10_MIN, _E10_MAX + 1)
    positional = (e10 >= -4) & (e10 < 16)
    dot = np.where(positional & (e10 >= 0), e10 + 1, np.where(positional, -1, 1))
    least = np.where(positional & (e10 >= 0), e10 + 3, 0)
    prefix = b"".join((b"\0" + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "").encode())
                      .ljust(8, b"\0") for e in e10.tolist())
    exponent = b"".join((b"\0" + (b"" if -4 <= e < 16 else f"e{e:+03d}".encode()))
                        .ljust(8, b"\0") for e in e10.tolist())
    j, d, end = np.arange(18), np.arange(-1, 17)[:, None, None], np.arange(19)[:, None]
    masks = np.zeros((18, 19, 3, _WIDTH), np.uint8)
    for which, (take, byte) in enumerate([(j < d, 0xFF), (j > d, 0xFF), (j == d, 46)]):
        masks[:, :, which, 7:25] = (take & (j < end)) * np.uint8(byte)
    words = masks.view(np.uint64).reshape(18 * 19, 12)[:, [1, 2, 5, 6, 7, 9, 10, 0]]
    return (dot, least, ~positional, np.frombuffer(prefix, np.uint64),
            np.frombuffer(exponent, np.uint64), np.ascontiguousarray(words))


_DOT, _LEAST, _SCIENTIFIC, _PREFIX, _EXPONENT, _MASKS = _layout_tables()


def format_cells(values: np.ndarray, cols: int) -> bytes:
    """The bytes of ``",".join(map(repr, row)) + "\\n"`` for each row of
    ``cols`` of the float64 ``values``, in order; ``values.size`` must be a
    multiple of ``cols``."""
    x = np.ascontiguousarray(values, np.float64).ravel()
    digits, e10, proved = _shortest(x)
    rows = _layout(x, digits, e10, cols)
    bad = np.flatnonzero(~proved)
    if bad.size:  # the separator stays in the last byte
        text = b"".join(repr(v).encode().ljust(_WIDTH - 1, b"\0") for v in x[bad].tolist())
        rows.view(np.uint8)[bad, : _WIDTH - 1] = np.frombuffer(text, np.uint8).reshape(
            -1, _WIDTH - 1)
    return rows.tobytes().translate(None, b"\0")


def _shortest(x: np.ndarray):
    """Per cell: ``repr``'s significant digits as a 17-digit integer (zeros
    appended; 0 for a zero), its decimal exponent, and whether the cell is
    proved; see the module docstring for the steps."""
    bits = x.view(np.uint64)
    E = (bits >> np.uint64(52)).astype(np.intp) & 0x7FF
    frac = bits & _FRAC
    e10 = np.take(_E_LOW, E) + (frac >= np.take(_E_UP, E))
    k = e10 - _E10_MIN
    hi, lo, b = np.take(_HI, k), np.take(_LO, k), np.take(_B, k)
    # |x| * 2**b in [10**16 / 2, 10**17], and half its ulp, 2**(E + b - 1076)
    xs = (frac | (E + b).astype(np.uint64) << np.uint64(52)).view(np.float64)
    h = hi * ((E + b - 53).astype(np.uint64) << np.uint64(52)).view(np.float64)
    # Dekker's exact product xs * hi = ph + pl (Ogita, Rump & Oishi's form)
    t = xs * 134217729.0
    xh = t - (t - xs)
    xt = xs - xh
    ph = xs * hi
    hh, ht = np.take(_HI_HEAD, k), np.take(_HI_TAIL, k)
    pl = xt * ht - (((ph - xh * hh) - xt * hh) - xh * ht)
    tail = pl + xs * lo
    whole = np.floor(tail)
    f = tail - whole  # s's fraction, in [0, 1]
    n17 = ph.astype(np.int64) + whole.astype(np.int64)  # ph is an integer: it is 2**53 up
    q16 = n17 // 10
    q15 = q16 // 10
    r16 = n17 - 10 * q16
    r15 = n17 - 100 * q15
    rem16 = r16 + f
    rem15 = r15 + f
    d16 = np.minimum(rem16, 10 - rem16)
    d15 = np.minimum(rem15, 100 - rem15)
    # where the product is exact, a tie is one, and goes to the even digit
    exact = lo == 0
    tie16 = exact & (r16 == 5) & (f == 0)
    tie17 = exact & (f == 0.5)
    up15 = rem15 > 50
    up16 = (rem16 > 5) | (tie16 & (q16 & 1 == 1))
    up17 = (f > 0.5) | (tie17 & (n17 & 1 == 1))
    # a power of two's lower neighbour is half as far: so is the boundary below
    pow2 = frac == 0
    ok15 = (d15 < h - _BAND) & ~(pow2 & ~up15 & (d15 >= 0.5 * h - _BAND))
    no15 = (d15 > h + _BAND) & ~pow2
    ok16 = (d16 < h - _BAND) & ((np.abs(rem16 - 5) > _BAND) | tie16)
    no16 = d16 > h + _BAND
    ok17 = (np.abs(f - 0.5) > _BAND) | tie17
    take16 = no15 & ok16
    c17 = n17 + up17
    digits = c17 + ok15 * (n17 - r15 + 100 * up15 - c17) + take16 * (n17 - r16 + 10 * up16 - c17)
    carry = digits == 10**17
    digits -= carry * (9 * 10**16)
    e10 += carry
    zero = bits << np.uint64(1) == 0
    digits *= ~zero
    e10 *= ~zero
    normal = (E > 0) & (E < 2047)
    return digits, e10, (normal & (ok15 | take16 | (no15 & no16 & ok17))) | zero


def _layout(x: np.ndarray, digits: np.ndarray, e10: np.ndarray, cols: int) -> np.ndarray:
    """The cells' text as ``(n, 4)`` words of NUL-padded bytes."""
    n = x.size
    head = digits // 10**16
    rest = digits - head * 10**16
    mid = rest // 10**8
    low = rest - mid * 10**8
    q1, q3 = mid // 10**4, low // 10**4
    q2, q4 = mid - q1 * 10**4, low - q3 * 10**4
    a0 = (head.astype(np.uint64) + np.uint64(48)) << np.uint64(56)
    a1 = np.take(_QUADS, q1) | np.take(_QUADS, q2) << np.uint64(32)
    a2 = np.take(_QUADS, q3) | np.take(_QUADS, q4) << np.uint64(32)
    # trailing zeros of the 16 digits after the first, and the digits that stay
    tz = np.take(_TZ, q4) + (q4 == 0) * (
        np.take(_TZ, q3) + (q3 == 0) * (np.take(_TZ, q2) + (q2 == 0) * np.take(_TZ, q1)))
    nd = np.maximum(17 - tz, 1)
    k = e10 - _E10_MIN
    dot = np.take(_DOT, k)
    end = np.maximum(nd + 1, np.take(_LEAST, k)) - (np.take(_SCIENTIFIC, k) & (nd == 1))
    m = np.take(_MASKS, (dot + 1) * 19 + end, axis=0)
    eight, fifty_six = np.uint64(8), np.uint64(56)
    sep = np.full(cols, 44 << 56, np.uint64)
    sep[-1] = 10 << 56
    rows = np.empty((n, 4), np.uint64)
    rows[:, 0] = a0 & m[:, 7] | np.take(_PREFIX, k) | (
        x.view(np.uint64) >> np.uint64(63)) * np.uint64(45)
    rows[:, 1] = a1 & m[:, 0] | ((a1 << eight) | (a0 >> fifty_six)) & m[:, 2] | m[:, 5]
    rows[:, 2] = a2 & m[:, 1] | ((a2 << eight) | (a1 >> fifty_six)) & m[:, 3] | m[:, 6]
    rows[:, 3] = (a2 >> fifty_six) & m[:, 4] | np.take(_EXPONENT, k) | np.tile(sep, n // cols)
    return rows
