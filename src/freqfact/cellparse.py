"""Exact conversion of a text data block's decimal cells to doubles.

:func:`parse_chunk` reads whole lines of comma-separated cells, as the
writers in :mod:`freqfact.io` emit them, and returns each cell's value to
the bit as ``float`` gives it, or None when a line or cell is not in that
form.  It works ``_BLOCK_BYTES`` of lines at a time, so its temporaries
(4-6 bytes per byte of a block) do not grow with the data.

A block is checked and converted with whole-array operations:

1. Every byte but a digit is a mark.  The marks are ranked (sign, dot,
   exponent mark, exponent sign, comma or newline), and each must follow
   the mark before it as :data:`_GRAMMAR` allows, with or without digits
   between.  That, and a digit before or after each dot, is ``float``'s
   grammar for these bytes; any other byte has rank 0 and fails.  The
   commas and newlines must give each line ``cols`` cells.
2. One ``bytes.translate`` deletes the dots and turns commas and exponent
   marks into spaces, and one integer ``np.fromstring`` reads each cell's
   digits as its mantissa, then its exponent if it has one.  The digits
   after a cell's dot, which step 1 counted, lower its exponent.
3. :func:`_decimal_values` scales each mantissa by its power of ten with
   one rounding in the x87 80-bit ``long double`` (as Clinger's fast path
   does in doubles, "How to read floating point numbers accurately", PLDI
   1990), from whose 64-bit result the double is proved or the cell is
   left to ``float``.

The integer parse drops the sign of a zero, which is read back from its
cell's first byte.  A block where ``float`` would read more than half the
cells, or with a mantissa or exponent of ``2**62`` or more, and every
block where ``long double`` is not the x87 format, is converted by
``np.fromstring``, which rounds as ``float`` does.

:mod:`freqfact.io` imports this module where it parses a chunk, not with
the package: a command that reads no text file does not compile it, and
the parent of a forked parse leaves it to its children.
"""

import numpy as np

__all__ = ["parse_chunk"]

# Bytes of lines checked and converted per step: bounds a parse's
# temporaries, whatever the size of the data.
_BLOCK_BYTES = 1 << 16

# Ranks of the bytes of a cell that are not digits, in the order a cell may
# hold them: mantissa sign, dot, exponent mark, exponent sign, and the
# comma or newline that ends the cell.  A sign right after an exponent mark
# is ranked as the exponent's.  Every other byte is rank 0.
_SIGN, _DOT, _EXP, _EXP_SIGN, _COMMA, _NEWLINE = range(1, 7)
_RANK = np.zeros(256, np.uint8)
for _byte, _rank in zip(b"+-.eE,\n", (_SIGN, _SIGN, _DOT, _EXP, _EXP, _COMMA, _NEWLINE)):
    _RANK[_byte] = _rank

# _GRAMMAR[rank << 4 | prev << 1 | digits]: whether a mark of ``rank`` may
# follow one of rank ``prev`` with (digits 1) or without (0) digits between
# them.  With a digit before or after each dot, these are the cells
# ``float`` reads: [sign] (digits [. [digits]] | . digits) [(e|E) [sign] digits].
_GRAMMAR = np.zeros(128, bool)
for _ranks, _prevs, _digits in [
    ((_SIGN,), (_COMMA, _NEWLINE), (0,)),
    ((_DOT,), (_SIGN, _COMMA, _NEWLINE), (0, 1)),
    ((_EXP,), (_SIGN, _COMMA, _NEWLINE), (1,)),
    ((_EXP, _COMMA, _NEWLINE), (_DOT,), (0, 1)),
    ((_EXP_SIGN,), (_EXP,), (0,)),
    ((_COMMA, _NEWLINE), (_SIGN, _EXP, _EXP_SIGN, _COMMA, _NEWLINE), (1,)),
]:
    for _rank in _ranks:
        for _prev in _prevs:
            for _d in _digits:
                _GRAMMAR[_rank << 4 | _prev << 1 | _d] = True

# Dots deleted, cells and exponents cut apart: each cell's mantissa digits,
# then its exponent, as whitespace-separated integers.
_TO_INTEGERS = bytes.maketrans(b",eE", b"   ")

# Whether ``long double`` is the x87 80-bit format, a 64-bit significand
# stored little-endian in 16 bytes, whose rounding _decimal_values proves.
_X87 = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16


def _pow10_table(most: int) -> np.ndarray:
    """``10**k`` for k = 0..most as ``long double``, each rounded once to
    nearest (ties to even) from the exact integer; exact up to ``10**27``.
    No power up to ``10**340`` rounds up to ``2**64`` times a power of two,
    which ``np.uint64`` could not hold."""
    significands, shifts, p = [], [], 1
    for _ in range(most + 1):
        shift = max(p.bit_length() - 64, 0)
        q = p >> shift
        if shift and p >> (shift - 1) & 1 and (q & 1 or p & ((1 << (shift - 1)) - 1)):
            q += 1  # the dropped bits are over half, or half with q odd
        significands.append(q)
        shifts.append(shift)
        p *= 10
    return np.ldexp(np.array(significands, np.uint64).astype(np.longdouble), shifts)


# Powers of ten up to the largest a normal double with a mantissa below
# 2**62 needs.
_POW10 = _pow10_table(340) if _X87 else None


def parse_chunk(data: bytes, cols: int) -> np.ndarray | None:
    """The values of ``data`` when it is whole lines, each ``cols``
    comma-separated cells and a final ``\\n``, and every cell is a decimal
    float with a finite value as ``float`` reads it; else None.  No bytes
    is no lines, and no values."""
    if not data:
        return np.empty(0)
    if not data.endswith(b"\n"):
        return None
    parts, start = [], 0
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(data)
        values = _block_values(data[start:stop] if stop - start < len(data) else data, cols)
        if values is None or not np.isfinite(values).all():
            return None
        parts.append(values)
        start = stop
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _block_values(block: bytes, cols: int) -> np.ndarray | None:
    """:func:`parse_chunk` for one block of whole lines, finite check
    aside; see the module docstring for the steps."""
    u8 = np.frombuffer(block, np.uint8)
    at = np.flatnonzero(np.subtract(u8, 48, dtype=np.uint8) > 9)  # every byte but a digit
    rank = _RANK[u8[at]]
    prev = np.empty_like(rank)
    prev[0], prev[1:] = _NEWLINE, rank[:-1]
    rank[(rank == _SIGN) & (prev == _EXP)] = _EXP_SIGN
    prev[1:] = rank[:-1]
    step = np.diff(at, prepend=-1)  # 1 + the digits since the mark before
    if not _GRAMMAR[rank << 4 | prev << 1 | (step > 1)].all():
        return None
    del prev  # each del frees a temporary before the next ones are made
    sep = rank >= _COMMA
    line = np.full(cols, _COMMA, np.uint8)
    line[-1] = _NEWLINE
    ends = np.compress(sep, rank)
    if ends.size % cols or (ends.reshape(-1, cols) != line).any():
        return None
    n = ends.size
    dots = np.flatnonzero(rank == _DOT)
    k = step[dots + 1] - 1  # digits after each dot, up to an exponent or the cell's end
    if (step[dots] + k == 1).any():  # a mantissa of a dot and no digit
        return None
    del step
    k *= -1
    if not _X87:
        return _fromstring_cells(block, cols, n)
    tokens = np.fromstring(block.translate(_TO_INTEGERS, b"."), np.int64, sep=" ")
    exps = np.flatnonzero(rank == _EXP)
    if tokens.size != n + exps.size:
        return None
    if tokens.max() >= 1 << 62 or tokens.min() <= -1 << 62:
        return _fromstring_cells(block, cols, n)
    mantissa = tokens
    if exps.size or dots.size < n:  # k is not yet one entry per cell
        cell = np.cumsum(sep)  # the cell of each mark but a separator
        k, dot_k = np.zeros(n, np.int64), k
        k[cell[dots]] = dot_k
        if exps.size:
            e_cells = cell[exps]
            e_tokens = e_cells + np.arange(1, exps.size + 1)
            k[e_cells] += tokens[e_tokens]
            mantissa = np.delete(tokens, e_tokens)
    del dots
    zero = np.flatnonzero(mantissa == 0)
    if zero.size:
        minus = u8[np.append(0, np.compress(sep, at)[:-1] + 1)[zero]] == ord("-")
    del at
    values, bad = _decimal_values(mantissa, k)
    if 2 * bad.size > n:
        return _fromstring_cells(block, cols, n)
    values[bad] = [float(f"{m}e{e}") for m, e in zip(mantissa[bad].tolist(), k[bad].tolist())]
    if zero.size:
        values[zero] = np.where(minus, -0.0, 0.0)
    return values


def _decimal_values(mantissa: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mantissa * 10**k`` for each cell, rounded to the nearest double as
    ``float`` rounds it, and the indices of the cells this does not prove;
    every ``|mantissa|`` is below ``2**62``.  A zero mantissa gives +0.0 and
    is always proved.

    Each cell is one ``long double`` multiply or divide by :data:`_POW10`,
    cast to a double.  The mantissa is exact there, and the power exact up
    to ``10**27`` and rounded once beyond, so the 64-bit result lies within
    2.00001 units in its last place of the exact value.  The cast rounds it
    as the exact value would be rounded unless a midpoint between two
    doubles lies in that interval, which shows as the 11 bits below a
    double's last place reading within 2 of ``0x400``.  Those cells are not
    proved, nor those cast to ``2**-1022`` or below: the subnormals have
    fewer bits, so their midpoints, and the one between ``2**-1022`` and
    the largest subnormal, do not show in those 11 bits.  A ``k`` off the
    table is clipped to it: the result then overflows to inf, as the exact
    value does, or is cast to a subnormal or zero.
    """
    kmin, kmax = k.min(), k.max()
    top = _POW10.size - 1
    kk = k if -top <= kmin and kmax <= top else np.clip(k, -top, top)
    wide = mantissa.astype(np.longdouble)
    if kmax > 0:
        wide *= _POW10[np.maximum(kk, 0)]
    if kmin < 0:
        wide /= _POW10[np.maximum(-kk, 0)]
    with np.errstate(over="ignore"):
        values = wide.astype(float)
    low = wide.view(np.uint16)[::8] & 0x7FF  # the significand's 11 bits below a double's
    bad = (low - 0x3FE) & 0x7FF <= 4
    if kmin < -307:  # else every nonzero |value| is at least 10**-307
        bad |= (np.abs(values) <= 2.0**-1022) & (mantissa != 0)  # the smallest normal double
    return values, np.flatnonzero(bad)


def _fromstring_cells(block: bytes, cols: int, n: int) -> np.ndarray | None:
    """The ``n`` values of ``block`` read by ``np.fromstring``, which
    converts with the correctly rounded routine ``float`` uses."""
    flat = np.fromstring(block.replace(b",", b" ") if cols > 1 else block, sep=" ")
    return flat if flat.size == n else None
