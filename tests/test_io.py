"""File-format tests: exact round trips, formatting across chunk
boundaries, the canonical parse against the line-by-line one, the decimal
kernel against ``float`` bit for bit, error messages that name the
position, and one parse per input file in a factorize grid."""

import contextlib
import io
import itertools
import json
import os
import stat
import sys
import threading
import time
import tracemalloc
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freqfact.cellparse as cellparse
import freqfact.cli as cli
import freqfact.io as fio
from freqfact import SpatioTemporalTensor, TensorFormatError

# numpy before 2.0 warns where it stops a partial parse; the fast path must
# neither let that warning out nor keep the partial array.  The filter names
# numpy's message: hypothesis imports libcst to report a failing example,
# and libcst's own DeprecationWarning, made an error, would stop the pytest run.
pytestmark = pytest.mark.filterwarnings(
    "error:string or file could not be read to its end:DeprecationWarning")

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0]


@st.composite
def tensors(draw):
    A, B, T = (draw(st.integers(1, 5)) for _ in range(3))
    cell = st.one_of(st.sampled_from(EDGE_VALUES),
                     st.floats(allow_nan=False, allow_infinity=False))
    values = np.array(draw(st.lists(cell, min_size=A * B * T, max_size=A * B * T)))
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=T, max_size=T)))
        mask[draw(st.integers(0, T - 1))] = True
    return SpatioTemporalTensor(values.reshape(A, B, T), mask)


def assert_same_tensor(got: SpatioTemporalTensor, want: SpatioTemporalTensor, mask=True):
    assert got.dims == want.dims
    # bitwise, so -0.0 and the subnormals must survive too
    assert got.values.tobytes() == want.values.tobytes()
    if mask:
        assert (got.time_mask is None) == (want.time_mask is None)
        if want.time_mask is not None:
            assert np.array_equal(got.time_mask, want.time_mask)


@settings(max_examples=60, deadline=None)
@given(t=tensors(), binary=st.booleans())
def test_tensor_round_trip_is_exact(tmp_path_factory, t, binary):
    d = tmp_path_factory.mktemp("rt")
    fio.write_tensor(d / "a", t, binary)
    back = fio.read_tensor(d / "a")
    assert_same_tensor(back, t, mask=not binary)
    fio.write_tensor(d / "b", back, binary)
    assert (d / "a").read_bytes() == (d / "b").read_bytes()


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.one_of(st.sampled_from(EDGE_VALUES),
                     st.floats(allow_nan=False, allow_infinity=False))
    return np.array(draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)


@settings(max_examples=30, deadline=None)
@given(m=matrices())
def test_matrix_round_trip_is_exact(tmp_path_factory, m):
    d = tmp_path_factory.mktemp("mrt")
    fio.write_matrix(d / "a", m)
    back = fio.read_matrix(d / "a")
    assert back.tobytes() == m.tobytes()
    fio.write_matrix(d / "b", back)
    assert (d / "a").read_bytes() == (d / "b").read_bytes()


def general_path_called(*args):
    raise AssertionError("writer output went to the line-by-line parse")


@settings(max_examples=40, deadline=None)
@given(t=tensors(), m=matrices())
def test_writer_output_takes_the_canonical_path(tmp_path_factory, t, m):
    d = tmp_path_factory.mktemp("fast")
    fio.write_tensor(d / "t.csv", t)
    fio.write_matrix(d / "m.csv", m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fio, "_KERNEL_BYTES", 0)  # small blocks take the kernel too
        mp.setattr(fio, "_read_general", general_path_called)
        assert_same_tensor(fio.read_tensor(d / "t.csv"), t)
        assert fio.read_matrix(d / "m.csv").tobytes() == m.tobytes()


# cells float() reads differently from np.fromstring, or rejects
ODD_CELLS = ["1_0", "1 2", " 1", "+.5", "5.", "1e", ".", "--1", "0x10", "inf", "nan",
             "1e400", "1e-400", "-0", "\u0661", ""]
WRITER_CELLS = st.one_of(st.sampled_from(EDGE_VALUES),
                         st.floats(allow_nan=False, allow_infinity=False)).map(repr)


@st.composite
def text_files(draw):
    """A tensor or matrix file as the writers emit it, with up to three
    edits that may leave it non-canonical or malformed."""
    A, B, T = (draw(st.integers(1, 3)) for _ in range(3))
    tensor = draw(st.booleans())
    lines = [f"stf-v1,{A},{B},{T}" if tensor else f"stf-matrix-v1,{A * T},{B}"]
    if tensor and draw(st.booleans()):
        lines.append("mask," + ",".join(draw(st.lists(st.sampled_from("01"), min_size=T,
                                                      max_size=T))))
    first = len(lines)
    lines += [",".join(draw(st.lists(WRITER_CELLS, min_size=B, max_size=B)))
              for _ in range(A * T)]
    ends = ["\n"] * len(lines)
    edits = st.sampled_from(["cell", "mask", "crlf", "blank", "cells", "line", "final", "byte"])
    raw_at = None
    for edit in draw(st.lists(edits, max_size=3)):
        if len(lines) == first:  # every data line deleted
            break
        i = draw(st.integers(0 if edit in ("crlf", "blank") else first, len(lines) - 1))
        cells = lines[i].split(",")
        if edit == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif edit == "mask" and lines[1].startswith("mask,"):
            i, cells = 1, lines[1].split(",")
            cells[draw(st.integers(1, len(cells) - 1))] = draw(
                st.sampled_from(["x", " 1", "2", "", "00"]))
        elif edit == "crlf":
            ends[i] = "\r\n"
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t", " , "])))
            ends.insert(i, "\n")
            continue
        elif edit == "cells":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1.0"]
        elif edit == "line":
            del lines[i], ends[i]
            continue
        elif edit == "final":
            ends[-1] = ""
        elif edit == "byte":
            raw_at = draw(st.integers(0, 200))
        lines[i] = ",".join(cells)
    data = "".join(ln + end for ln, end in zip(lines, ends)).encode()
    if raw_at is not None:
        raw_at = min(raw_at, len(data))
        data = data[:raw_at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x85"])) + data[raw_at:]
    return tensor, data


def outcome(read, path):
    """What a reader makes of a file: its values to the bit, or its message."""
    try:
        got = read(path)
    except TensorFormatError as exc:
        return str(exc)
    if isinstance(got, SpatioTemporalTensor):
        mask = None if got.time_mask is None else got.time_mask.tolist()
        return got.dims, got.values.tobytes(), mask
    return got.shape, got.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=text_files())
# a lone blank data line, which np.fromstring reads as -1.0
@example(case=(True, b"stf-v1,1,1,1\n\n"))
# a comma too many, and commas in the wrong lines
@example(case=(False, b"stf-matrix-v1,1,1\n1,2\n"))
@example(case=(False, b"stf-matrix-v1,2,2\n1,2,3\n4\n"))
# two numbers in one cell beside a blank one
@example(case=(False, b"stf-matrix-v1,1,2\n1 2, \n"))
# a header that str.splitlines breaks in two
@example(case=(False, b"stf-matrix-v1,1\r,1\n5\n"))
def test_reader_agrees_with_the_general_path(tmp_path_factory, case):
    tensor, data = case
    p = tmp_path_factory.mktemp("diff") / "f.csv"
    p.write_bytes(data)
    read = fio.read_tensor if tensor else fio.read_matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fio, "_canonical_head", lambda *args: None)
        want = outcome(read, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fio, "_KERNEL_BYTES", 0)  # small blocks take the kernel too
        assert outcome(read, p) == want


def _crlf_case(tmp_path):
    """A tensor file (with a mask row) as the writers emit it, and its copy
    with every line ended ``\\r\\n``."""
    values = np.random.default_rng(3).standard_normal((3, 2, 4))
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    fio.write_tensor(lf, SpatioTemporalTensor(values, np.array([True, False, True, True])))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    return lf, crlf


@pytest.mark.parametrize("edit, message", [
    (lambda b: b, None),
    (lambda b: b.replace(b"\r\n", b"\n", 1), None),
    (lambda b: b[:-2] + b"\n", None),
    (lambda b: b.replace(b"\r\n", b"\r", 2), None),
    (lambda b: b[:-3] + b"x\r\n", "line 14, column 2: could not parse"),
], ids=["all-crlf", "one-lf", "last-lf", "lone-cr", "bad-cell"])
def test_other_line_ends_take_the_general_parse(tmp_path, monkeypatch, edit, message):
    lf, crlf = _crlf_case(tmp_path)
    crlf.write_bytes(edit(crlf.read_bytes()))
    calls = []
    general = fio._read_general
    monkeypatch.setattr(fio, "_read_general", lambda *args: calls.append(1) or general(*args))
    got = outcome(fio.read_tensor, crlf)
    assert calls == [1]
    if message is None:
        assert got == outcome(fio.read_tensor, lf)
    else:
        assert message in got


@pytest.mark.parametrize("binary, bound", [(False, 4.0), (True, 1.5)])
def test_read_peak_memory_is_bounded(tmp_path, binary, bound):
    # 100k lines of text: a parse that holds one str per line peaks near
    # 7-9x the file size, the canonical parse near 1.8x; the binary read
    # holds the values once (1.26x), not the bytes and a copy (2.1x)
    t = SpatioTemporalTensor(np.random.default_rng(0).standard_normal((100, 1, 1000)))
    p = tmp_path / "t"
    fio.write_tensor(p, t, binary)
    tracemalloc.start()
    try:
        fio.read_tensor(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * p.stat().st_size


def test_small_text_read_peak_memory_is_bounded(tmp_path, monkeypatch):
    # a soft_forecast-sized tensor (64 x 1 x 256, 320 kB) parsed in process:
    # near 2.65x with one np.fromstring call, 2.4x with the decimal kernel's
    # 64 kB blocks, 3.6x with 128 kB blocks and 5.9x with 256 kB blocks
    monkeypatch.setattr(fio, "_PARSE_CHUNK_BYTES", 1 << 40)
    t = SpatioTemporalTensor(np.random.default_rng(0).standard_normal((64, 1, 256)))
    p = tmp_path / "t.csv"
    fio.write_tensor(p, t)
    fio.read_tensor(p)  # the first text read compiles the kernel's module
    tracemalloc.start()
    try:
        fio.read_tensor(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * p.stat().st_size


# each kernel case runs with the ``long double`` guard as detected, then off,
# as on hardware without the x87 format, where every block goes to np.fromstring
X87 = pytest.mark.parametrize("x87", [True, False], ids=["x87 as detected", "x87 off"])


def kernel_parse(data: bytes, cols: int, x87: bool):
    with pytest.MonkeyPatch.context() as mp:
        if not x87:
            mp.setattr(cellparse, "_X87", False)
        return cellparse.parse_chunk(data, cols)


def assert_reads_as_float(cells, x87, cols=1):
    """``parse_chunk`` of ``cells``, ``cols`` to a line, gives ``float``'s
    values to the bit, or None when ``float`` rejects a cell or reads it as
    non-finite (the file then goes to the line-by-line parse)."""
    lines = [",".join(cells[i : i + cols]) for i in range(0, len(cells), cols)]
    got = kernel_parse("".join(ln + "\n" for ln in lines).encode(), cols, x87)
    try:
        want = np.array([float(c) for c in cells])
    except ValueError:
        want = None
    if want is None or not np.isfinite(want).all():
        assert got is None
    else:
        assert got is not None and got.tobytes() == want.tobytes()


@X87
@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=60),
       cols=st.sampled_from([1, 3]))
# zeros, subnormals, exponent forms from 1e16 up and below 1e-4, the extremes
@example(values=[0.0, -0.0, 5e-324, -2.5e-322, 2.2250738585072014e-308, 1e16,
                 -1.2345678901234567e+16, 1e-05, 9.99e-05, 1.7976931348623157e+308,
                 -2.2250738585072009e-308, 123456.789], cols=3)
def test_kernel_reads_float_reprs_to_the_bit(x87, values, cols):
    values += [1.0] * (-len(values) % cols)
    assert_reads_as_float([repr(v) for v in values], x87, cols)


@st.composite
def decimals(draw):
    """A decimal of 1-25 digits, the dot anywhere or missing, with an
    optional sign and an optional exponent (itself optionally signed)."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    dot = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    cell = digits if dot is None else digits[:dot] + "." + digits[dot:]
    cell = draw(st.sampled_from(["", "-", "+"])) + cell
    if draw(st.booleans()):
        exponent = draw(st.one_of(st.integers(0, 30), st.integers(0, 400)))
        cell += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "-", "+"]))
                 + draw(st.sampled_from(["", "0", "00"])) + str(exponent))
    return cell


@X87
@settings(max_examples=80, deadline=None)
@given(cells=st.lists(decimals(), min_size=1, max_size=40))
@example(cells=["1" * 19, "9" * 25, "0." + "0" * 24 + "1", "1e-330", "-0e5", "+0.0"])
# a subnormal whose long double result lies on a midpoint of the subnormals
@example(cells=["1.548278159418393586e-308", "1e-300"])
# just below the midpoint between 2**-1022 and the largest subnormal: a long
# double result on or above it would be cast up to 2**-1022
@example(cells=["2.225073858507201136e-308", "-2.225073858507201136e-308"])
# long double results one unit from a midpoint, across it from the exact value
@example(cells=["8.34173359610654025e-159", "3.475799551841523284e+186",
                "8.67309131300940556e+86"])
def test_kernel_reads_random_decimals_to_the_bit(x87, cells):
    assert_reads_as_float(cells, x87)


@X87
@settings(max_examples=60, deadline=None)
@given(q=st.integers(1 << 52, (1 << 53) - 1), shift=st.integers(0, 6),
       dot=st.integers(0, 18), pad=st.lists(st.sampled_from(["0.1", "-2.75", "3e-7"]),
                                          max_size=3))
@example(q=1 << 52, shift=0, dot=0, pad=[])  # 9007199254740993
def test_kernel_reads_double_midpoints_to_the_bit(x87, q, shift, dot, pad):
    # (2q + 1) << shift lies halfway between two doubles of 53-bit
    # significand; written in up to 18 digits, with its neighbours one unit
    # away in the last digit, as an integer and as a dotted decimal with an
    # exponent that puts the dot back
    cells = []
    for n in np.array([-1, 0, 1]) + ((2 * q + 1) << shift):
        s = str(n)
        if len(s) > 18:
            continue
        at = min(dot, len(s))
        cells += [s, f"{s[:at]}.{s[at:]}e{len(s) - at}", f"-{s[:at]}.{s[at:]}E+{len(s) - at}"]
    assert_reads_as_float(cells + pad, x87)


# every double and midpoint between two is a decimal of under 800 digits
EXACT = Context(prec=800)


@X87
@settings(max_examples=100, deadline=None)
@given(a=st.floats(min_value=1e-300, max_value=1e300), digits=st.integers(15, 18))
def test_kernel_reads_near_midpoints_to_the_bit(x87, a, digits):
    # the midpoint between a and the next double, cut to 16-19 significant
    # digits: a long double result of these often lands on or next to the
    # midpoint, where its cast to a double could round the wrong way
    mid = EXACT.divide(EXACT.add(Decimal(a), Decimal(np.nextafter(a, np.inf))), 2)
    cells = [format(m, f".{digits}e") for m in (mid, EXACT.next_plus(mid), EXACT.next_minus(mid))]
    cells.append("-" + cells[0])
    assert_reads_as_float(cells, x87)


# cells whose canonical and general parses agreed before the decimal kernel
ODD_KERNEL_CELLS = ["-", "+", "e5", "5e+", "1e+-5", "1.e5", ".e5", "1ee5", "-.", "4" * 400,
                    "1e0400", "0e999999", "0." + "0" * 400 + "1"]


@X87
@pytest.mark.parametrize("cell", ODD_KERNEL_CELLS)
def test_kernel_reads_odd_cells_as_float_does(x87, cell):
    assert_reads_as_float([cell], x87)
    assert_reads_as_float(["1.5", cell, "-0.25"], x87, cols=3)


@X87
def test_kernel_grammar_is_floats(x87):
    # every cell of 1-4 bytes from digits, dot, exponent marks and signs:
    # the rank grammar accepts exactly the cells float() reads
    for n in range(1, 5):
        for cell in itertools.product("05.eE+-", repeat=n):
            assert_reads_as_float(["".join(cell)], x87)


@pytest.mark.skipif(not cellparse._X87, reason="the table is built for the x87 long double")
def test_kernel_powers_of_ten_are_rounded_once():
    for k, p in enumerate(cellparse._POW10):
        m, e = np.frexp(p)
        significand = int(np.ldexp(m, 64))
        exact = Fraction(10**k) / Fraction(2) ** (int(e) - 64)
        assert abs(significand - exact) <= Fraction(1, 2)
        assert (significand == exact) == (k <= 27)


@pytest.mark.parametrize("cells, calls", [
    (["5e-324", "1.5e-310", "0.25"], 1),  # 2 of 3 cells subnormal: one np.fromstring call
    (["5e-324", "0.5", "0.25"], 0),       # 1 of 3: float() reads it
])
def test_kernel_leaves_mostly_unproved_blocks_to_fromstring(monkeypatch, cells, calls):
    seen = []
    fromstring_cells = cellparse._fromstring_cells
    monkeypatch.setattr(cellparse, "_fromstring_cells",
                        lambda *args: seen.append(1) or fromstring_cells(*args))
    assert_reads_as_float(cells, True)
    assert len(seen) == (calls if cellparse._X87 else 1)


@X87
@pytest.mark.parametrize("block", [1, 64, 1 << 16])
def test_kernel_block_size_changes_nothing(x87, monkeypatch, block):
    rng = np.random.default_rng(block)
    values = rng.standard_normal(600) * 10.0 ** rng.integers(-30, 31, 600)
    values[::7] = 0.0
    values[::11] = -0.0
    data = "".join(",".join(map(repr, row)) + "\n" for row in values.reshape(200, 3).tolist())
    monkeypatch.setattr(cellparse, "_BLOCK_BYTES", block)
    assert kernel_parse(data.encode(), 3, x87).tobytes() == values.tobytes()


def test_text_matches_reference_line_format(tmp_path):
    # block t holds A lines of B values; floats are written with repr
    values = np.arange(12, dtype=float).reshape(2, 3, 2) / 7.0
    fio.write_tensor(tmp_path / "t.csv", SpatioTemporalTensor(values, np.array([True, False])))
    want = ["stf-v1,2,3,2", "mask,1,0"]
    for k in range(2):
        for a in range(2):
            want.append(",".join(repr(float(v)) for v in values[a, :, k]))
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("chunk", [1, 3, 4, 7])
def test_chunk_size_changes_nothing(tmp_path, monkeypatch, chunk):
    # 15 data lines: chunks that divide them and chunks that leave a remainder
    t = SpatioTemporalTensor(np.random.default_rng(chunk).standard_normal((3, 2, 5)))
    fio.write_tensor(tmp_path / "ref.csv", t)
    monkeypatch.setattr(fio, "_CHUNK_CELLS", 2 * chunk)  # chunk lines of 2 cells
    fio.write_tensor(tmp_path / "t.csv", t)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_same_tensor(fio.read_tensor(tmp_path / "t.csv"), t)


def test_round_trip_across_default_chunk_boundary(tmp_path):
    A, T = 7, (fio._CHUNK_CELLS // 7) + 3  # a few one-cell lines past one chunk
    t = SpatioTemporalTensor(np.random.default_rng(0).standard_normal((A, 1, T)))
    fio.write_tensor(tmp_path / "t.csv", t)
    assert_same_tensor(fio.read_tensor(tmp_path / "t.csv"), t)


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("stf-v1,2,2,2\n\n1.0,2.0\n   \n3.0,4.0\n5.0,6.0\n\n7.0,8.0\n\n")
    t = fio.read_tensor(p)
    assert np.array_equal(t.values[:, :, 0], [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(t.values[:, :, 1], [[5.0, 6.0], [7.0, 8.0]])


def read_error(tmp_path, text: str) -> str:
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(TensorFormatError) as exc:
        fio.read_tensor(p)
    msg = str(exc.value)
    assert msg.startswith(f"{p}: ")
    return msg[len(f"{p}: "):]


@pytest.mark.parametrize("text, message", [
    ("stf-v1,2,2,1\n1.0,2.0\n3.0\n", "line 3: expected 2 columns, got 1"),
    # equal cell totals: one long line and one short line
    ("stf-v1,2,2,1\n1.0,2.0,3.0\n4.0\n", "line 2: expected 2 columns, got 3"),
    ("stf-v1,2,1,1\n1.0\n2.0,\n", "line 3: expected 1 columns, got 2"),
    ("stf-v1,2,2,1\n1.0,2.0\n3.0,x\n", "line 3, column 2: could not parse 'x' as float"),
    ("stf-v1,2,2,1\n1.0,2.0\n3.0,\n", "line 3, column 2: could not parse '' as float"),
    ("stf-v1,2,2,2\n1,2\n3,4\n5,6\n", "expected 4 data lines (2 blocks of 2), got 3"),
    ("stf-v1,1,1,2\nmask,1\n1\n2\n", "line 2: mask has 1 entries, expected 2"),
    ("stf-v1,2,1\n1\n", "line 1: bad header 'stf-v1,2,1'"),
    ("stf-v1,2,x,1\n1\n", "line 1: non-integer dims in 'stf-v1,2,x,1'"),
    ("stf-v1,-1,1,-1\n1\n", "line 1: negative dims in 'stf-v1,-1,1,-1'"),
    # non-finite values name their position; blank lines count as lines
    ("stf-v1,2,2,1\n1.0,2.0\n\n3.0,nan\n", "line 4, column 2: non-finite value"),
    ("stf-v1,1,3,1\n-inf,1,2\n", "line 2, column 1: non-finite value"),
    # the first bad line in file order wins
    ("stf-v1,3,1,1\n1\nnan\nx\n", "line 3, column 1: non-finite value"),
])
def test_malformed_text_names_position(tmp_path, text, message):
    assert read_error(tmp_path, text) == message


@pytest.mark.parametrize("text, message", [
    ("stf-v1,1,1,3\nmask,1,x,2\n1\n2\n3\n", "line 2, column 2: mask entry 'x' is not 0 or 1"),
    ("stf-v1,1,1,3\nmask, 1,1 ,1\n1\n2\n3\n", "line 2, column 1: mask entry ' 1' is not 0 or 1"),
    ("stf-v1,1,1,2\nmask,0,0\n1\n2\n", "line 2: time_mask must keep at least one column"),
])
def test_mask_entries_must_be_0_or_1(tmp_path, text, message):
    assert read_error(tmp_path, text) == message


def test_error_in_later_chunk_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(fio, "_CHUNK_CELLS", 4)  # 2 lines of 2 cells
    body = ["1.0,2.0"] * 5 + ["3.0,oops"]
    text = "stf-v1,3,2,2\n" + "\n".join(body) + "\n"
    assert read_error(tmp_path, text) == "line 7, column 2: could not parse 'oops' as float"


def test_binary_nonfinite_names_flat_index(tmp_path):
    values = np.zeros((2, 1, 3))
    values[1, 0, 2] = np.inf
    p = tmp_path / "t.bin"
    # written around the tensor constructor, which rejects non-finite values
    p.write_bytes(np.array([2, 1, 3], dtype="<u8").tobytes() + values.astype("<f8").tobytes())
    with pytest.raises(TensorFormatError, match=r"t\.bin: value 5 \(flat \(a, b, t\) index\): non-finite value"):
        fio.read_tensor(p)


@pytest.mark.parametrize("data, message", [
    (b"\x01\x02", "binary header truncated (2 bytes)"),
    (np.array([1, 1, 2], "<u8").tobytes() + bytes(8), "expected 40 bytes for dims 1x1x2, got 32"),
    # dims far past the file's size allocate nothing before they are refused
    (np.array([1 << 40, 1 << 20, 1], "<u8").tobytes(),
     f"expected {24 + (8 << 60)} bytes for dims {1 << 40}x{1 << 20}x1, got 24"),
])
def test_binary_size_errors(tmp_path, data, message):
    p = tmp_path / "t.bin"
    p.write_bytes(data)
    with pytest.raises(TensorFormatError) as exc:
        fio.read_tensor(p)
    assert str(exc.value) == f"{p}: {message}"


@pytest.mark.parametrize("binary", [False, True])
def test_reads_a_pipe(tmp_path, binary):
    t = SpatioTemporalTensor(np.arange(12.0).reshape(2, 3, 2) / 7,
                             None if binary else np.array([True, False]))
    fio.write_tensor(tmp_path / "t", t, binary)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "t").read_bytes(),),
                              daemon=True)
    writer.start()
    try:
        got = fio.read_tensor(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_tensor(got, t, mask=not binary)


def test_matrix_errors_name_position(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("stf-matrix-v1,2,2\n1.0,2.0\n\n3.0,inf\n")
    with pytest.raises(TensorFormatError, match=r"m\.csv: line 4, column 2: non-finite value"):
        fio.read_matrix(p)
    p.write_text("stf-matrix-v1,2,2\n1.0,2.0\n")
    with pytest.raises(TensorFormatError, match=r"m\.csv: expected 2 rows, got 1"):
        fio.read_matrix(p)


def test_grid_parses_each_input_once(tmp_path, monkeypatch):
    data = tmp_path / "data"
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"d": 6, "T": 30, "freqs": [3, 5], "seed": 2}))
    assert cli.main(["synth", "--config", str(synth), "--out", str(data)]) == 0
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
        "r": 2, "n_iters": 3, "sub_iters": 10, "train_t": 24,
        "grid": [{"xi": 0.5}, {"xi": 2.0}],
    }))
    events = []
    real_read, real_point = fio.read_into, cli._run_factorize_point

    def counting_read(paths, *args, **kwargs):
        events.append(sorted(map(str, paths)))
        return real_read(paths, *args, **kwargs)

    def point(pcfg, out, load):
        # inputs are shared between points, so no point may write to them
        assert not load(pcfg.x).flags.writeable
        events.append("point")
        return real_point(pcfg, out, load)

    monkeypatch.setattr(fio, "read_into", counting_read)
    monkeypatch.setattr(cli, "_run_factorize_point", point)
    inputs = sorted(str(data / n) for n in ("X.csv", "Y0.csv", "Y1.csv"))
    outs = {}
    for jobs in (1, 2):
        events.clear()
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert cli.main(["factorize", "--config", str(cfg), "--out", str(outs[jobs]),
                     "--jobs", str(jobs)]) == 0
        # every input parsed once, in one read, before the first point starts
        assert events == [inputs, "point", "point"]
    files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert len(files) == 1 + 2 * 4  # index.json, then W, Wp, H and report per point
    for rel in files:
        assert (outs[1] / rel).read_bytes() == (outs[2] / rel).read_bytes()


def test_hard_scan_sized_forecast_and_atom_scan_never_import_the_parse_kernel(tmp_path,
                                                                             monkeypatch):
    # hard_scan's shapes and binary inputs: the only text read is the model's
    # three small matrices, which the line-by-line parse reads
    data = tmp_path / "data"
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"d": 64, "T": 256, "freqs": [14, 6], "sigma": 0.5,
                                 "x_sigma": 0.5}))
    assert cli.main(["synth", "--config", str(synth), "--out", str(data), "--binary"]) == 0
    inputs = {"y": [str(data / "Y0.bin"), str(data / "Y1.bin")], "x_true": str(data / "X.bin")}
    band = {"kind": "hard_freq", "R": 3}
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({"x": inputs["x_true"], "y": inputs["y"], "r": 4, "xi": 0.5,
                               "train_t": 192, "n_iters": 2, "sub_iters": 5, "penalty": band}))
    assert cli.main(["factorize", "--config", str(fit), "--out", str(tmp_path / "m")]) == 0
    assert max((tmp_path / "m" / n).stat().st_size for n in ("W.csv", "Wp.csv", "H.csv")) < (
        fio._KERNEL_BYTES)
    fc = tmp_path / "fc.json"
    fc.write_text(json.dumps({"model": str(tmp_path / "m"), **inputs, "penalty": band,
                              "sweeps": 2, "sub_iters": 5}))
    import freqfact

    monkeypatch.delitem(sys.modules, "freqfact.cellparse", raising=False)
    monkeypatch.delattr(freqfact, "cellparse", raising=False)
    assert cli.main(["forecast", "--config", str(fc), "--out", str(tmp_path / "fc")]) == 0
    assert cli.main(["atom-scan", "--config", str(fc), "--out", str(tmp_path / "scan")]) == 0
    assert "freqfact.cellparse" not in sys.modules
    fio.write_matrix(tmp_path / "large.csv", np.zeros((fio._KERNEL_BYTES, 1)))
    fio.read_matrix(tmp_path / "large.csv")
    assert "freqfact.cellparse" in sys.modules


def test_grid_points_share_one_read_only_aux_stack(tmp_path, monkeypatch):
    data = tmp_path / "data"
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"d": 6, "T": 30, "freqs": [3, 5], "seed": 2}))
    assert cli.main(["synth", "--config", str(synth), "--out", str(data)]) == 0
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
        "r": 2, "n_iters": 2, "sub_iters": 5, "grid": [{"xi": 0.5}, {"xi": 2.0}],
    }))
    stacks = []
    real_point = cli._run_factorize_point

    def point(pcfg, out, load):
        stacks.append(load.aux(pcfg.y))
        return real_point(pcfg, out, load)

    monkeypatch.setattr(cli, "_run_factorize_point", point)
    assert cli.main(["factorize", "--config", str(cfg), "--out", str(tmp_path / "m"),
                     "--jobs", "2"]) == 0
    assert len(stacks) == 2 and stacks[0] is stacks[1]
    assert not stacks[0].flags.writeable


def test_forecast_loader_keeps_only_the_aux_stack(tmp_path, monkeypatch):
    data = tmp_path / "data"
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"d": 6, "T": 30, "freqs": [3, 5], "seed": 2}))
    assert cli.main(["synth", "--config", str(synth), "--out", str(data)]) == 0
    model = tmp_path / "m"
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({
        "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
        "r": 2, "n_iters": 2, "sub_iters": 5, "train_t": 24,
    }))
    assert cli.main(["factorize", "--config", str(fit), "--out", str(model)]) == 0
    loaders = []

    class Loader(cli._MatrixLoader):
        def __init__(self):
            super().__init__()
            loaders.append(self)

    monkeypatch.setattr(cli, "_MatrixLoader", Loader)
    y_paths = (str(data / "Y0.csv"), str(data / "Y1.csv"))
    fc = tmp_path / "fc.json"
    fc.write_text(json.dumps({"model": str(model), "y": list(y_paths), "sweeps": 2,
                              "sub_iters": 5}))
    assert cli.main(["forecast", "--config", str(fc), "--out", str(tmp_path / "fc")]) == 0
    (load,) = loaders
    # the stack alone: neither auxiliary's own matrix outlives it
    assert list(load._cache) == [y_paths]
    assert load._cache[y_paths].shape == (12, 30)


@pytest.fixture
def forked(monkeypatch):
    """Lets small blocks take the forked parse on ``n`` faked CPUs: returns
    ``workers(n)``, and the list of pids the parent forked."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def workers(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        # the faked CPUs need not exist
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)

    monkeypatch.setattr(fio, "_PARSE_CHUNK_BYTES", 16)
    monkeypatch.setattr(fio, "_KERNEL_BYTES", 0)
    monkeypatch.setattr(os, "fork", fork)
    return workers, forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("kind, cols", [("tensor", 1), ("tensor", 3), ("matrix", 1),
                                        ("matrix", 5)])
def test_forked_parse_is_bit_equal(tmp_path, monkeypatch, forked, workers, kind, cols):
    set_workers, forks = forked
    values = np.random.default_rng(cols).standard_normal((7, cols, 3))
    values[0, 0, :] = EDGE_VALUES[:3]
    p = tmp_path / "f.csv"
    if kind == "tensor":
        want = SpatioTemporalTensor(values, np.array([True, False, True]))
        fio.write_tensor(p, want)
    else:
        want = values.transpose(2, 0, 1).reshape(21, cols)
        fio.write_matrix(p, want)
    read = fio.read_tensor if kind == "tensor" else fio.read_matrix
    set_workers(workers)
    monkeypatch.setattr(fio, "_read_general", general_path_called)
    got = read(p)
    if kind == "tensor":
        assert_same_tensor(got, want)
    else:
        assert got.tobytes() == want.tobytes()
    assert len(forks) == (workers if workers > 1 else 0)
    assert_no_child_left()


@pytest.mark.parametrize("cell", ["1e999", "1e", "2.5e+"])
@pytest.mark.parametrize("line", [2, 20])
def test_bad_cell_in_a_child_gives_the_serial_error(tmp_path, forked, cell, line):
    set_workers, forks = forked
    rows = ["0.5,1.25"] * 21
    rows[line - 2] = f"0.5,{cell}"
    p = tmp_path / "m.csv"
    p.write_text("stf-matrix-v1,21,2\n" + "\n".join(rows) + "\n")
    set_workers(1)
    with pytest.raises(TensorFormatError) as serial:
        fio.read_matrix(p)
    set_workers(3)
    with pytest.raises(TensorFormatError) as parallel:
        fio.read_matrix(p)
    assert str(parallel.value) == str(serial.value)
    assert len(forks) == 3
    assert_no_child_left()


def test_no_fork_while_another_thread_is_alive(tmp_path, forked):
    set_workers, forks = forked
    t = SpatioTemporalTensor(np.random.default_rng(0).standard_normal((9, 2, 2)))
    fio.write_tensor(tmp_path / "t.csv", t)
    set_workers(4)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    other.start()
    try:
        assert_same_tensor(fio.read_tensor(tmp_path / "t.csv"), t)
    finally:
        stop.set()
        other.join(timeout=10)
    assert forks == []
    assert_same_tensor(fio.read_tensor(tmp_path / "t.csv"), t)
    assert len(forks) == 4


def test_failed_fork_falls_back_to_the_serial_parse(tmp_path, monkeypatch, forked):
    set_workers, forks = forked
    want = np.random.default_rng(5).standard_normal((20, 3))
    fio.write_matrix(tmp_path / "m.csv", want)
    set_workers(3)
    fork = os.fork
    calls = []

    def failing_fork():
        calls.append(None)
        if len(calls) == 2:
            raise OSError("fork failed")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    assert fio.read_matrix(tmp_path / "m.csv").tobytes() == want.tobytes()
    # the one child forked before the failure was killed and reaped
    assert len(calls) == 2 and len(forks) == 1
    assert_no_child_left()


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old bytes")

    def replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="^replace failed$"):
        fio.atomic_write_bytes(path, b"new bytes")
    assert path.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_interrupted_parse_kills_and_reaps_every_child(tmp_path, monkeypatch, forked):
    set_workers, forks = forked
    fio.write_matrix(tmp_path / "m.csv", np.arange(40.0).reshape(20, 2))
    set_workers(3)
    real_waitpid = os.waitpid
    calls = []

    def waitpid(pid, options):
        calls.append(pid)
        if len(calls) == 1:  # as if Ctrl-C came while the parent waited
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(KeyboardInterrupt):
        fio.read_matrix(tmp_path / "m.csv")
    monkeypatch.setattr(os, "waitpid", real_waitpid)
    assert len(forks) == 3 and calls[1:] == forks
    assert_no_child_left()


def open_fds():
    """The process's open file descriptors, or None where ``/proc`` is absent."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture
def forked_write(forked, monkeypatch):
    """The ``forked`` fakes, with blocks of 8 cells or more written by the
    forked format, 4 cells (or one wider line) a step; checks after the test
    that no child and no file descriptor is left."""
    monkeypatch.setattr(fio, "_FORMAT_CHUNK_CELLS", 4)
    monkeypatch.setattr(fio, "_CHUNK_CELLS", 4)
    fds = open_fds()
    yield forked
    assert_no_child_left()
    assert open_fds() == fds


def write_kind(kind, path):
    """Writes a tensor, matrix or slice file of 63 cells in 21 lines to ``path``."""
    values = np.random.default_rng(3).standard_normal((7, 3, 3))
    values[0, 0, :] = EDGE_VALUES[:3]
    if kind == "tensor":
        fio.write_tensor(path, SpatioTemporalTensor(values, np.array([True, False, True])))
    elif kind == "matrix":
        fio.write_matrix(path, values.reshape(21, 3))
    else:
        fio.write_slice(path, values.reshape(21, 3), 5)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["tensor", "matrix", "slice"])
def test_forked_write_is_byte_equal(tmp_path, forked_write, workers, kind):
    set_workers, forks = forked_write
    set_workers(1)
    write_kind(kind, tmp_path / "serial.csv")
    set_workers(workers)
    write_kind(kind, tmp_path / "forked.csv")
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert len(forks) == (workers if workers > 1 else 0)


def test_failed_format_child_gives_the_serial_bytes(tmp_path, monkeypatch, forked_write):
    set_workers, forks = forked_write
    set_workers(1)
    write_kind("matrix", tmp_path / "serial.csv")
    set_workers(3)

    def setaffinity(pid, cpus):
        if cpus == [1]:  # the second child fails
            raise OSError("cannot bind")

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    write_kind("matrix", tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert len(forks) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "serial.csv"]


def test_failed_fork_falls_back_to_the_serial_format(tmp_path, monkeypatch, forked_write):
    set_workers, forks = forked_write
    set_workers(1)
    write_kind("tensor", tmp_path / "serial.csv")
    set_workers(3)
    fork = os.fork
    calls = []

    def failing_fork():
        calls.append(None)
        if len(calls) == 2:
            raise OSError("fork failed")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    write_kind("tensor", tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    # the one child forked before the failure was killed and reaped
    assert len(calls) == 2 and len(forks) == 1


def test_no_forked_write_while_another_thread_is_alive(tmp_path, forked_write):
    set_workers, forks = forked_write
    set_workers(4)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    other.start()
    try:
        write_kind("matrix", tmp_path / "threads.csv")
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive() and forks == []
    write_kind("matrix", tmp_path / "alone.csv")
    assert len(forks) == 4
    assert (tmp_path / "threads.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_only_blocks_of_131072_cells_or_more_fork(tmp_path, forked):
    set_workers, forks = forked
    set_workers(4)
    fds = open_fds()
    # the largest text block the pipeline writes is smaller still
    fio.write_matrix(tmp_path / "small.csv", np.full((32768, 2), 0.25))
    assert forks == []
    fio.write_matrix(tmp_path / "large.csv", np.full((32768, 4), 0.25))
    assert len(forks) == 2
    assert (tmp_path / "large.csv").read_text().count("\n") == 32769
    assert_no_child_left()
    assert open_fds() == fds


def test_interrupted_write_kills_and_reaps_every_child(tmp_path, monkeypatch, forked_write):
    set_workers, forks = forked_write
    set_workers(3)
    real_waitpid = os.waitpid
    calls = []

    def waitpid(pid, options):
        calls.append(pid)
        if len(calls) == 1:  # as if Ctrl-C came while the parent waited
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(KeyboardInterrupt):
        write_kind("matrix", tmp_path / "m.csv")
    monkeypatch.setattr(os, "waitpid", real_waitpid)
    assert len(forks) == 3 and calls[1:] == forks
    assert list(tmp_path.iterdir()) == []


def test_failed_memfd_gives_the_serial_bytes_and_values(tmp_path, monkeypatch, forked_write):
    set_workers, forks = forked_write
    set_workers(1)
    write_kind("matrix", tmp_path / "serial.csv")
    want = fio.read_matrix(tmp_path / "serial.csv")
    set_workers(3)
    real_memfd_create = os.memfd_create
    calls = []

    def memfd_create(*args):
        calls.append(None)
        if len(calls) == 2:
            raise OSError("no memfd")
        return real_memfd_create(*args)

    monkeypatch.setattr(os, "memfd_create", memfd_create)
    write_kind("matrix", tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert len(calls) == 2
    calls.clear()
    assert fio.read_matrix(tmp_path / "m.csv").tobytes() == want.tobytes()
    assert len(calls) == 2 and forks == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "serial.csv"]


def test_serial_write_peak_memory_is_below_the_file_size(tmp_path, monkeypatch):
    # a write that joins the whole text before it writes peaks near 3x the
    # file size; one that writes each step as it is formatted, near 0.2x
    monkeypatch.setattr(fio, "_CHUNK_CELLS", 4096)
    m = np.random.default_rng(0).standard_normal((100_000, 1))
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    other.start()  # no forked format while another thread is alive
    tracemalloc.start()
    try:
        fio.write_matrix(tmp_path / "m.csv", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert peak < (tmp_path / "m.csv").stat().st_size


def test_wide_lines_are_formatted_a_line_a_step(tmp_path):
    # 4 lines of 30,000 cells, under the forked format's size: the kernel
    # holds about 270 bytes a cell of temporaries, so formatted as one step
    # the block peaks near 13.7x the file size, a line a step near 3.6x
    m = np.random.default_rng(0).standard_normal((4, 30_000))
    fio.write_matrix(tmp_path / "warm.csv", m[:1])  # the kernel's module and tables
    tracemalloc.start()
    try:
        fio.write_matrix(tmp_path / "m.csv", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * (tmp_path / "m.csv").stat().st_size
    assert fio.read_matrix(tmp_path / "m.csv").tobytes() == m.tobytes()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
@pytest.mark.parametrize("workers", [1, 2])
def test_outputs_honour_the_umask(tmp_path, forked_write, umask, mode, workers):
    set_workers, forks = forked_write
    set_workers(workers)
    t = SpatioTemporalTensor(np.arange(24.0).reshape(2, 3, 4))
    old = os.umask(umask)
    try:
        write_kind("tensor", tmp_path / "t.csv")
        write_kind("matrix", tmp_path / "m.csv")
        write_kind("slice", tmp_path / "s.csv")
        fio.write_tensor(tmp_path / "t.bin", t, binary=True)
        fio.write_json(tmp_path / "r.json", {"a": 1})
    finally:
        os.umask(old)
    assert len(forks) == (6 if workers > 1 else 0)  # two for each text file
    for p in tmp_path.iterdir():
        assert (p.name, stat.S_IMODE(p.stat().st_mode)) == (p.name, mode)


def read_both_ways(set_workers, forks, workers, read, path):
    """``read(path)`` serially and on ``workers`` faked CPUs: both outcomes,
    after checking that the second forked once per worker."""
    set_workers(1)
    serial = outcome(read, path)
    set_workers(workers)
    forked = outcome(read, path)
    assert len(forks) == (workers if workers > 1 else 0)
    assert_no_child_left()
    return serial, forked


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_lines_longer_than_the_cut_probe_parse_bit_equal(tmp_path, monkeypatch, forked,
                                                        workers):
    # the parent reads a buffer at a time to move each cut to a line start
    set_workers, forks = forked
    want = np.random.default_rng(workers).standard_normal((3, io.DEFAULT_BUFFER_SIZE // 4))
    p = tmp_path / "m.csv"
    fio.write_matrix(p, want)
    assert min(map(len, p.read_bytes().splitlines()[1:])) > 2 * io.DEFAULT_BUFFER_SIZE
    monkeypatch.setattr(fio, "_read_general", general_path_called)
    serial, forked_read = read_both_ways(set_workers, forks, workers, fio.read_matrix, p)
    assert serial == forked_read == (want.shape, want.tobytes())


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("rows", [1, 2])
def test_more_workers_than_lines_parse_bit_equal(tmp_path, monkeypatch, forked, workers, rows):
    # every cut past the first line start lands in the last line, so the
    # chunks after it are empty
    set_workers, forks = forked
    want = np.random.default_rng(rows).standard_normal((rows, 9))
    p = tmp_path / "m.csv"
    fio.write_matrix(p, want)
    monkeypatch.setattr(fio, "_read_general", general_path_called)
    serial, forked_read = read_both_ways(set_workers, forks, workers, fio.read_matrix, p)
    assert serial == forked_read == (want.shape, want.tobytes())


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_short_preads_parse_bit_equal(tmp_path, monkeypatch, forked, workers):
    # one pread moves at most about 2 GB on Linux; here at most 5 bytes
    set_workers, forks = forked
    want = np.random.default_rng(6).standard_normal((20, 3))
    p = tmp_path / "m.csv"
    fio.write_matrix(p, want)
    real_pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, at: real_pread(fd, min(n, 5), at))
    monkeypatch.setattr(fio, "_read_general", general_path_called)
    serial, forked_read = read_both_ways(set_workers, forks, workers, fio.read_matrix, p)
    assert serial == forked_read == (want.shape, want.tobytes())


@pytest.mark.parametrize("cell", ["1e999", "2.5e+", "1..25"])
@pytest.mark.parametrize("where", ["straddling", "last"])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_bad_cell_near_a_cut_gives_the_serial_error(tmp_path, forked, cell, where, workers):
    set_workers, forks = forked
    rows, width = 23, len("0.5,1.250\n")
    body = rows * width
    cut = body // workers  # the first cut, before it moves to a line start
    line = cut // width if where == "straddling" else rows - 1
    assert where == "last" or cut % width  # the line holds the cut inside it
    cells = ["0.5,1.250"] * rows
    cells[line] = f"0.5,{cell}"
    p = tmp_path / "m.csv"
    p.write_text(f"stf-matrix-v1,{rows},2\n" + "\n".join(cells) + "\n")
    assert len(p.read_bytes()) == len(f"stf-matrix-v1,{rows},2\n") + body
    serial, forked_read = read_both_ways(set_workers, forks, workers, fio.read_matrix, p)
    assert serial == forked_read
    assert serial.startswith(f"{p}: line {line + 2}, column 2: ")


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_forked_parse_of_a_pipe_is_bit_equal(tmp_path, monkeypatch, forked, workers):
    # the data fits the pipe's buffer, so no writer thread runs while it is read
    set_workers, forks = forked
    want = SpatioTemporalTensor(np.random.default_rng(4).standard_normal((5, 3, 4)),
                                np.array([True, False, True, True]))
    fio.write_tensor(tmp_path / "t.csv", want)
    monkeypatch.setattr(fio, "_read_general", general_path_called)
    got = {}
    for n in (1, workers):
        set_workers(n)
        r, w = os.pipe()
        try:
            os.write(w, (tmp_path / "t.csv").read_bytes())
            os.close(w)
            got[n] = fio.read_tensor(f"/dev/fd/{r}")
        finally:
            os.close(r)
    assert len(forks) == (workers if workers > 1 else 0)
    assert_no_child_left()
    assert_same_tensor(got[workers], got[1])
    assert_same_tensor(got[1], want)


SLICE_VALUES = np.random.default_rng(8).standard_normal((3, 2, 5))


def slice_files(d):
    """Every file in ``d``, temp files included, by name: its bytes."""
    return {p.name: p.read_bytes() for p in d.iterdir()}


def serial_slices(d):
    """The slice files of ``SLICE_VALUES`` as one ``write_slice`` per slice writes them."""
    d.mkdir()
    for k in range(SLICE_VALUES.shape[2]):
        fio.write_slice(d / f"slice_{k:04d}.csv", SLICE_VALUES[:, :, k], k)
    return slice_files(d)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_write_slices_is_byte_equal_to_the_serial_loop(tmp_path, forked_write, workers):
    set_workers, forks = forked_write
    want = serial_slices(tmp_path / "serial")
    assert forks == []  # each slice is 6 cells, below the forked format's 8
    set_workers(workers)
    fio.write_slices(tmp_path / "pred", SLICE_VALUES)
    assert slice_files(tmp_path / "pred") == want
    assert len(forks) == (workers if workers > 1 else 0)


def test_failed_slice_child_gives_the_serial_bytes(tmp_path, monkeypatch, forked_write):
    set_workers, forks = forked_write
    want = serial_slices(tmp_path / "serial")
    set_workers(3)

    def setaffinity(pid, cpus):
        if cpus == [1]:  # the second child fails
            raise OSError("cannot bind")

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    fio.write_slices(tmp_path / "pred", SLICE_VALUES)
    assert slice_files(tmp_path / "pred") == want
    assert len(forks) == 3


def test_interrupted_slice_writes_kill_reap_and_leave_no_temp_file(tmp_path, monkeypatch,
                                                                  forked_write):
    set_workers, forks = forked_write
    set_workers(3)
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / ".keep.0123456789ab").write_bytes(b"not ours")

    real_atomic_write = fio._atomic_write

    def stuck(path, fill):  # each child hangs mid-write of its first slice
        def hang(fh):
            fh.write(b"partial")
            fh.flush()
            time.sleep(60)

        real_atomic_write(path, hang)

    def temps():
        return [p.name for p in pred.iterdir() if p.name.startswith(".slice_")]

    real_waitpid = os.waitpid
    calls = []

    def waitpid(pid, options):
        calls.append(pid)
        if len(calls) == 1:  # as if Ctrl-C came once every child is mid-write
            deadline = time.monotonic() + 10
            while len(temps()) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(temps()) == 3
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(fio, "_atomic_write", stuck)
    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(KeyboardInterrupt):
        fio.write_slices(pred, SLICE_VALUES)
    monkeypatch.setattr(os, "waitpid", real_waitpid)
    assert len(forks) == 3 and calls[1:] == forks
    assert [p.name for p in pred.iterdir()] == [".keep.0123456789ab"]


def test_no_forked_slice_writes_while_another_thread_is_alive(tmp_path, forked_write):
    set_workers, forks = forked_write
    want = serial_slices(tmp_path / "serial")
    set_workers(4)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    other.start()
    try:
        fio.write_slices(tmp_path / "threads", SLICE_VALUES)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive() and forks == []
    assert slice_files(tmp_path / "threads") == want
    fio.write_slices(tmp_path / "alone", SLICE_VALUES)
    assert len(forks) == 4


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
@pytest.mark.parametrize("workers", [1, 2])
def test_slices_honour_the_umask(tmp_path, forked_write, umask, mode, workers):
    set_workers, forks = forked_write
    set_workers(workers)
    old = os.umask(umask)
    try:
        fio.write_slices(tmp_path / "pred", SLICE_VALUES)
    finally:
        os.umask(old)
    assert len(forks) == (workers if workers > 1 else 0)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "pred").iterdir()}
    assert modes == {f"slice_{k:04d}.csv": mode for k in range(SLICE_VALUES.shape[2])}


def mixed_inputs(tmp_path):
    """A binary tensor, a masked text tensor, two unmasked ones and the
    bytes of a fourth text tensor for a pipe: (paths, pipe bytes, the
    tensors in that order, the pipe's last)."""
    rng = np.random.default_rng(12)
    want = [SpatioTemporalTensor(rng.standard_normal((4, 2, 5))),
            SpatioTemporalTensor(rng.standard_normal((6, 1, 4)), np.array([1, 0, 1, 1], bool)),
            SpatioTemporalTensor(rng.standard_normal((3, 3, 7))),
            SpatioTemporalTensor(rng.standard_normal((9, 1, 3))),
            SpatioTemporalTensor(rng.standard_normal((2, 2, 6)), np.array([0, 1, 1, 0, 1, 1], bool))]
    want[2].values[0, 0, :3] = EDGE_VALUES[:3]
    paths = [tmp_path / name for name in ("a.bin", "b.csv", "c.csv", "d.csv", "e.csv")]
    for path, t in zip(paths, want):
        fio.write_tensor(path, t, binary=path.suffix == ".bin")
    return paths[:-1], paths[-1].read_bytes(), want


def read_with_pipe(paths, data):
    """:func:`fio.read_tensors` of ``paths`` and a pipe holding ``data``
    (small enough for the pipe's buffer, so no writer thread runs)."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return fio.read_tensors(list(paths) + [f"/dev/fd/{r}"])
    finally:
        os.close(r)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_one_round_reads_mixed_inputs_bit_equal(tmp_path, monkeypatch, forked, workers):
    set_workers, forks = forked
    paths, pipe, want = mixed_inputs(tmp_path)
    monkeypatch.setattr(fio, "_read_general", general_path_called)
    set_workers(workers)
    got = read_with_pipe(paths, pipe)
    # every text block of the call in one round: one child per worker
    assert len(forks) == (workers if workers > 1 else 0)
    assert_no_child_left()
    assert len(got) == len(want)
    for g, t in zip(got, want):
        assert_same_tensor(g, t)
    for path, t in zip(paths, want):
        assert_same_tensor(fio.read_tensor(path), t)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("fault", ["bad cell", "bad header", "missing", "binary size"])
def test_the_first_failing_input_raises_what_it_raises_alone(tmp_path, forked, workers, fault):
    set_workers, forks = forked
    paths, _, _ = mixed_inputs(tmp_path)
    bad = tmp_path / "bad.csv"
    good = fio.read_tensors(paths)
    if fault == "bad cell":
        text = paths[2].read_text().splitlines()
        text[5] = text[5].replace(",", ",x", 1)
        bad.write_text("\n".join(text) + "\n")
    elif fault == "bad header":
        bad.write_text("stf-v1,2,x,3\n")
    elif fault == "binary size":
        bad = tmp_path / "bad.bin"
        bad.write_bytes(paths[0].read_bytes()[:-8])
    with pytest.raises((TensorFormatError, FileNotFoundError)) as alone:
        fio.read_tensor(bad)
    set_workers(workers)
    # a malformed later file is named as read_tensor names it ...
    with pytest.raises(type(alone.value)) as later:
        fio.read_tensors(paths + [bad, paths[1]])
    assert str(later.value) == str(alone.value)
    # ... and an earlier failing file wins over it
    worse = tmp_path / "worse.csv"
    worse.write_text("stf-v1,1,1,1\nnan\n")
    with pytest.raises(TensorFormatError) as first:
        fio.read_tensors([paths[1], worse, bad])
    assert str(first.value) == f"{worse}: line 2, column 1: non-finite value"
    assert_no_child_left()
    assert [t.values.tobytes() for t in fio.read_tensors(paths)] == [
        t.values.tobytes() for t in good]


def test_no_round_forks_while_another_thread_is_alive(tmp_path, forked):
    set_workers, forks = forked
    paths, pipe, want = mixed_inputs(tmp_path)
    set_workers(4)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    other.start()
    try:
        got = read_with_pipe(paths, pipe)
    finally:
        stop.set()
        other.join(timeout=10)
    assert forks == []
    for g, t in zip(got, want, strict=True):
        assert_same_tensor(g, t)


def test_a_failed_fork_falls_back_to_the_serial_round(tmp_path, monkeypatch, forked):
    set_workers, forks = forked
    paths, pipe, want = mixed_inputs(tmp_path)
    set_workers(3)
    fork = os.fork
    calls = []

    def failing_fork():
        calls.append(None)
        if len(calls) == 2:
            raise OSError("fork failed")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(fio, "_read_general", general_path_called)
    got = read_with_pipe(paths, pipe)
    # the one child forked before the failure was killed and reaped
    assert len(calls) == 2 and len(forks) == 1
    assert_no_child_left()
    for g, t in zip(got, want, strict=True):
        assert_same_tensor(g, t)


def test_a_failed_child_falls_back_to_the_serial_round(tmp_path, monkeypatch, forked):
    set_workers, forks = forked
    paths, pipe, want = mixed_inputs(tmp_path)
    set_workers(3)
    parent = os.getpid()

    def setaffinity(pid, cpus):
        if os.getpid() != parent and cpus == [1]:
            raise OSError("cannot bind")

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    monkeypatch.setattr(fio, "_read_general", general_path_called)
    got = read_with_pipe(paths, pipe)
    assert len(forks) == 3
    assert_no_child_left()
    for g, t in zip(got, want, strict=True):
        assert_same_tensor(g, t)


def test_an_interrupted_round_kills_and_reaps_every_child(tmp_path, monkeypatch, forked):
    set_workers, forks = forked
    paths, _, _ = mixed_inputs(tmp_path)
    set_workers(3)
    real_waitpid = os.waitpid
    calls = []

    def waitpid(pid, options):
        calls.append(pid)
        if len(calls) == 1:  # as if Ctrl-C came while the parent waited
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(KeyboardInterrupt):
        fio.read_tensors(paths)
    monkeypatch.setattr(os, "waitpid", real_waitpid)
    assert len(forks) == 3 and calls[1:] == forks
    assert_no_child_left()


# ---------------------------------------------------------------------------
# the command loader: each input parsed straight into its one place


def write_tensors(tmp_path, tensors: dict) -> dict:
    """Each named tensor written to ``tmp_path/name``, binary for a ``.bin``
    name; returns the paths by name."""
    paths = {}
    for name, t in tensors.items():
        paths[name] = tmp_path / name
        fio.write_tensor(paths[name], t, binary=name.endswith(".bin"))
    return paths


def test_loader_stacks_auxiliaries_in_order(tmp_path):
    y = np.arange(6.0).reshape(2, 1, 3)
    p = write_tensors(tmp_path, {"y.csv": SpatioTemporalTensor(y),
                                 "y10.csv": SpatioTemporalTensor(y + 10)})
    m = y.reshape(2, 3)
    assert np.array_equal(cli._MatrixLoader().aux(str(p["y.csv"])), m)
    assert np.array_equal(cli._MatrixLoader().aux([p["y.csv"], p["y10.csv"]]),
                          np.vstack([m, m + 10]))
    three = cli._MatrixLoader().aux([p["y.csv"]] * 3)
    assert three.shape == (6, 3) and np.array_equal(three, np.vstack([m] * 3))
    with pytest.raises(ValueError, match="at least one auxiliary tensor path"):
        cli._MatrixLoader().aux([])


def test_loader_rejects_auxiliaries_of_unequal_column_count(tmp_path):
    rng = np.random.default_rng(3)
    p = write_tensors(tmp_path, {"a.csv": SpatioTemporalTensor(rng.standard_normal((2, 1, 3))),
                                 "b.bin": SpatioTemporalTensor(rng.standard_normal((2, 1, 4)))})
    with pytest.raises(ValueError, match=r"auxiliary matrices disagree on column count: \[3, 4\]"):
        cli._MatrixLoader().aux([p["a.csv"], p["b.bin"]])


def test_loader_rejects_auxiliaries_with_unequal_masks(tmp_path):
    rng = np.random.default_rng(4)
    p = write_tensors(tmp_path, {
        "a.csv": SpatioTemporalTensor(rng.standard_normal((2, 1, 4)), np.array([1, 0, 1, 1], bool)),
        "b.csv": SpatioTemporalTensor(rng.standard_normal((2, 1, 4)), np.array([1, 1, 0, 1], bool)),
    })
    with pytest.raises(ValueError, match=r"a\.csv and .*b\.csv keep different time columns: "
                                         r"original time 1 is masked"):
        cli._MatrixLoader().aux([p["a.csv"], p["b.csv"]])


def test_loader_names_a_malformed_file_before_a_mask_mismatch(tmp_path):
    rng = np.random.default_rng(5)
    p = write_tensors(tmp_path, {
        "a.csv": SpatioTemporalTensor(rng.standard_normal((2, 1, 4)), np.array([1, 0, 1, 1], bool)),
        "b.csv": SpatioTemporalTensor(rng.standard_normal((2, 1, 4))),
    })
    lines = p["b.csv"].read_text().splitlines()
    p["b.csv"].write_text("\n".join(lines[:-1] + ["x"]) + "\n")
    with pytest.raises(TensorFormatError, match=r"b\.csv: line 9, column 1: could not parse"):
        cli._MatrixLoader().aux([p["a.csv"], p["b.csv"]])


def loader_case(tmp_path, case):
    """The tensors of one loader case by file name, and its requests: X,
    then the list of auxiliaries.  A pipe's name maps to the bytes it
    carries."""
    rng = np.random.default_rng(7)
    mask = np.array([1, 0, 1, 1, 0, 1, 1], bool)
    t = {name: SpatioTemporalTensor(rng.standard_normal((5, 2, 7)),
                                    mask if case == "masked" else None)
         for name in ("X.csv", "Y0.csv", "Y1.csv")}
    t["X.csv"].values[0, 0, :3] = EDGE_VALUES[:3]
    ys = ["Y0.csv", "Y1.csv"]
    if case == "masked":  # a longer auxiliary whose extra time is masked
        t["Y1.csv"] = SpatioTemporalTensor(rng.standard_normal((3, 1, 8)), np.append(mask, False))
    elif case == "binary":
        ys = ["Y0.bin", "Y1.bin"]
        t.update((name, t.pop(name.replace(".bin", ".csv"))) for name in ys)
    elif case == "crlf":
        ys = ["Y0.crlf", "Y1.csv"]
        t["Y0.crlf"] = t.pop("Y0.csv")
    elif case == "same path twice":
        ys = ["Y0.csv", "Y0.csv"]
    elif case == "x in y":
        ys = ["X.csv", "Y1.csv"]
    paths = write_tensors(tmp_path, t)
    if case == "crlf":
        paths["Y0.crlf"].write_bytes(paths["Y0.crlf"].read_bytes().replace(b"\n", b"\r\n"))
    return t, paths, ys


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", ["masked", "binary", "pipe", "crlf", "same path twice",
                                  "x in y"])
def test_loader_matrices_are_bit_equal_to_matricized_reads(tmp_path, monkeypatch, forked,
                                                           workers, case):
    set_workers, forks = forked
    t, paths, ys = loader_case(tmp_path, case)
    set_workers(workers)
    monkeypatch.setattr(fio, "_PLACE_VALUES", 7)  # pieces cross the children's files
    load = cli._MatrixLoader()
    names = {name: str(paths[name]) for name in t}
    with contextlib.ExitStack() as stack:
        if case == "pipe":  # Y1 read from a pipe, as a shell's <(...) gives it
            r, w = os.pipe()
            stack.callback(os.close, r)
            os.write(w, paths["Y1.csv"].read_bytes())
            os.close(w)
            names["Y1.csv"] = f"/dev/fd/{r}"
        load.read(names["X.csv"], [names[y] for y in ys])
    assert len(forks) == (workers if workers > 1 else 0)
    assert_no_child_left()
    want = {name: tensor_matrix(t[name]) for name in t}
    for name in t:
        assert tensor_matrix(fio.read_tensor(paths[name])).tobytes() == want[name].tobytes()
    x = load(names["X.csv"])
    stack_ = load.aux([names[y] for y in ys])
    assert x.tobytes() == want["X.csv"].tobytes()
    assert stack_.tobytes() == np.vstack([want[y] for y in ys]).tobytes()
    assert not x.flags.writeable and not stack_.flags.writeable
    assert x.flags.c_contiguous and stack_.flags.c_contiguous


def tensor_matrix(t: SpatioTemporalTensor) -> np.ndarray:
    A, B, T = t.dims
    m = t.values.reshape(A * B, T)
    return m if t.time_mask is None else m[:, t.time_mask]


def test_loader_holds_x_and_the_stack_once(tmp_path, monkeypatch):
    # canonical text over 2 * _PARSE_CHUNK_BYTES in all: the forked round,
    # on two CPUs whatever this process may run on.  Each parsed block
    # transposed into a new array, then stacked into another, peaks near
    # twice the matrices; placed straight into them, near once.
    rng = np.random.default_rng(8)
    names = ("X.csv", "Y0.csv", "Y1.csv")
    paths = write_tensors(tmp_path, {name: SpatioTemporalTensor(
        rng.standard_normal((1500, 2, 100))) for name in names})
    assert sum(p.stat().st_size for p in paths.values()) >= 2 * fio._PARSE_CHUNK_BYTES
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    load = cli._MatrixLoader()
    tracemalloc.start()
    try:
        load.read(paths["X.csv"], [paths["Y0.csv"], paths["Y1.csv"]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = load(paths["X.csv"]).nbytes + load.aux([paths["Y0.csv"], paths["Y1.csv"]]).nbytes
    assert held == 3 * 3000 * 100 * 8
    assert peak <= 1.1 * held
