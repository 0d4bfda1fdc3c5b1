"""Tensor and matrix file formats used by the CLI.

Text tensor format (CSV, diffable):

    stf-v1,A,B,T
    mask,1,0,1,...          <- optional validity row: T entries, each 0 or 1, a 1 among them
    <T blocks of A lines, each B comma-separated floats, block t first>

Binary tensor format (fast path): three little-endian u64 (A, B, T) followed
by A*B*T little-endian f64 values in (a, b, t) row-major order.  The binary
layout carries no validity mask.

Matrix format: ``stf-matrix-v1,rows,cols`` then one line per row.  Prediction
slices: ``stf-slice-v1,A,B,k`` then A lines of B values.  Floats are written
with ``repr`` so outputs are byte-stable across runs.

A text file in the form the writers emit is parsed straight from its bytes:
the header lines are read one by one, the data block with one read, its line
and comma layout is checked with vectorised byte positions, and one
``np.fromstring`` call converts every cell.  Any other text file (blank
lines, CRLF, spaces, ``1_0``, a missing final newline, a malformed cell, ...)
goes to a line-by-line parse, which accepts a cell exactly when ``float``
accepts it and the value is finite, skips blank lines, and raises
:class:`TensorFormatError` naming the file and the first bad line (and
column).  Both paths give the same values to the bit.  A binary file is read
straight into its array, and names the flat index of its first non-finite
value.  A pipe is read whole first, since the readers seek back.  Text is
formatted ``_CHUNK_LINES`` data lines at a time.
"""

import json
import math
import os
import struct
import tempfile
from io import BytesIO
from pathlib import Path

import numpy as np

from .exceptions import TensorFormatError
from .tensor import SpatioTemporalTensor

__all__ = [
    "write_tensor",
    "read_tensor",
    "write_matrix",
    "read_matrix",
    "write_slice",
    "write_json",
    "read_json",
    "atomic_write_bytes",
]

TENSOR_MAGIC = "stf-v1"
MATRIX_MAGIC = "stf-matrix-v1"
SLICE_MAGIC = "stf-slice-v1"

# Data lines per format step: bounds the per-cell strings and the joined
# text a step holds to a few MB, whatever the file size.
_CHUNK_LINES = 1 << 16

# The bytes of a data block as the writers emit it: ``repr`` floats, commas
# and newlines.  A block with any other byte takes the line-by-line parse.
_CANONICAL_BYTES = b"0123456789.eE+-,\n"


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_rows(m: np.ndarray) -> str:
    """Lines of comma-separated ``repr`` floats, one per row of a 2-d array.

    ``tolist`` yields Python floats, whose ``repr`` equals that of the
    float64 they came from.
    """
    cells = map(repr, m.ravel().tolist())
    return "\n".join(map(",".join, zip(*[cells] * m.shape[1])))


def _write_text(path, head: list[str], rows: np.ndarray) -> None:
    parts = head + [
        _format_rows(rows[i : i + _CHUNK_LINES]) for i in range(0, rows.shape[0], _CHUNK_LINES)
    ]
    atomic_write_bytes(Path(path), ("\n".join(parts) + "\n").encode())


def write_tensor(path, t: SpatioTemporalTensor, binary: bool = False) -> None:
    path = Path(path)
    A, B, T = t.dims
    if binary:
        payload = struct.pack("<QQQ", A, B, T) + np.ascontiguousarray(
            t.values, dtype="<f8"
        ).tobytes()
        atomic_write_bytes(path, payload)
        return
    head = [f"{TENSOR_MAGIC},{A},{B},{T}"]
    if t.time_mask is not None:
        head.append("mask," + ",".join("1" if m else "0" for m in t.time_mask))
    # line t*A + a holds cell row (a, :, t)
    _write_text(path, head, t.values.transpose(2, 0, 1).reshape(T * A, B))


def write_slice(path, values: np.ndarray, k: int) -> None:
    """Write the (A, B) values of time column ``k`` of a prediction."""
    A, B = values.shape
    _write_text(path, [f"{SLICE_MAGIC},{A},{B},{k}"], values)


def read_tensor(path) -> SpatioTemporalTensor:
    path = Path(path)
    with _open_seekable(path) as fh:
        start = fh.read(len(TENSOR_MAGIC))
        if start and start != TENSOR_MAGIC.encode():
            return _read_tensor_binary(path, fh)
        fh.seek(0)
        (A, B, T), mask, rows = _read_text(path, fh, TENSOR_MAGIC)
    # line t*A + a holds cell row (a, :, t)
    values = np.ascontiguousarray(rows.reshape(T, A, B).transpose(1, 2, 0))
    return SpatioTemporalTensor(values, mask)


def _open_seekable(path: Path):
    """``path`` open for binary reads; a pipe is read whole into memory,
    since the readers seek back."""
    fh = open(path, "rb")
    if fh.seekable():
        return fh
    with fh:
        return BytesIO(fh.read())


def _read_tensor_binary(path: Path, fh) -> SpatioTemporalTensor:
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    head = fh.read(24)
    if len(head) < 24:
        raise TensorFormatError(f"{path}: binary header truncated ({len(head)} bytes)")
    A, B, T = struct.unpack("<QQQ", head)
    expected = 24 + 8 * A * B * T
    # sized before the array is made, so dims that do not fit allocate nothing
    if size == expected:
        values = np.empty((A, B, T), dtype="<f8")
        size = 24 + fh.readinto(values)
    if size != expected:
        raise TensorFormatError(
            f"{path}: expected {expected} bytes for dims {A}x{B}x{T}, got {size}"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise TensorFormatError(
            f"{path}: value {bad[0]} (flat (a, b, t) index): non-finite value"
        )
    return SpatioTemporalTensor(values)


def _read_text(path: Path, fh, magic: str):
    """Dims, validity mask (None unless a tensor file has a mask row) and
    (rows, cols) data block of the text file open at the start of ``fh``."""
    parsed = _read_canonical(path, fh, magic)
    if parsed is None:
        fh.seek(0)
        parsed = _read_general(path, fh.read(), magic)
    return parsed


def _read_canonical(path: Path, fh, magic: str):
    """:func:`_read_text` straight from the bytes of a file in the form the
    writers emit, or None for any other file, every malformed one included.

    The head lines must be ASCII, each ended by a lone ``\\n``, and the data
    block canonical (see :func:`_parse_block`).  Errors are left to
    :func:`_read_general`, so a file with several faults is named by its
    first one whichever path saw it.
    """
    lines = [fh.readline()]
    if magic == TENSOR_MAGIC:
        body_at = fh.tell()
        lines.append(fh.readline())
    try:
        lines = [ln.decode("ascii") for ln in lines]
    except UnicodeDecodeError:
        return None
    if not all(ln.endswith("\n") and ln[:-1].splitlines() == [ln[:-1]] for ln in lines):
        return None
    try:
        dims, mask, pos = _parse_head(path, [ln[:-1] for ln in lines], magic)
    except TensorFormatError:
        return None
    if pos < len(lines):  # the second line read is the first data line
        fh.seek(body_at)
    rows, cols, _ = _block_shape(dims)
    block = _parse_block(fh.read(), rows, cols)
    return None if block is None else (dims, mask, block)


def _is_canonical(body: bytes, rows: int, cols: int) -> bool:
    """Whether ``body`` holds only ``_CANONICAL_BYTES`` in ``rows`` lines,
    each of ``cols`` nonempty comma-separated cells and a final ``\\n``."""
    if rows == 0 or cols == 0 or not body.endswith(b"\n"):
        return False
    if body.translate(None, _CANONICAL_BYTES):
        return False
    u8 = np.frombuffer(body, np.uint8)
    newlines = np.flatnonzero(u8 == ord("\n"))
    commas = np.flatnonzero(u8 == ord(","))
    if newlines.size != rows or commas.size != rows * (cols - 1):
        return False
    # these are the separators in file order exactly when every line holds
    # cols - 1 commas, and two or more bytes apart when no cell is empty
    seps = np.column_stack((commas.reshape(rows, cols - 1), newlines)).ravel()
    return bool(np.diff(seps, prepend=-1).min() >= 2)


def _parse_block(body: bytes, rows: int, cols: int) -> np.ndarray | None:
    """The (rows, cols) array of a canonical data block whose cells are all
    finite floats, else None.

    Canonical cells are nonempty and hold no whitespace, so ``np.fromstring``
    reads at most one value per cell, and ``rows * cols`` values means that
    it read every cell in full.  It converts with the correctly rounded
    routine ``float`` uses, so the values are ``float``'s to the bit.
    """
    if not _is_canonical(body, rows, cols):
        return None
    try:
        flat = np.fromstring(body.replace(b",", b" ") if cols > 1 else body, sep=" ")
    # numpy 2 raises at a cell it cannot read; older numpy warns and stops
    except (ValueError, DeprecationWarning):
        return None
    if flat.size != rows * cols or not np.isfinite(flat).all():
        return None
    return flat.reshape(rows, cols)


def _read_general(path: Path, raw: bytes, magic: str):
    """:func:`_read_text` for any file, line by line: a cell is accepted
    exactly when ``float`` accepts it and the value is finite, blank lines
    are skipped, and the first bad position raises."""
    lines = _text_lines(path, raw)
    dims, mask, pos = _parse_head(path, lines, magic)
    rows, cols, what = _block_shape(dims)
    found = sum(1 for ln in lines[pos:] if ln.strip())
    if found != rows:
        raise TensorFormatError(f"{path}: expected {rows} {what}, got {found}")
    out = np.empty(rows * cols)
    k = 0
    for lineno, ln in enumerate(lines[pos:], start=pos + 1):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != cols:
            raise TensorFormatError(
                f"{path}: line {lineno}: expected {cols} columns, got {len(cells)}"
            )
        for j, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise TensorFormatError(
                    f"{path}: line {lineno}, column {j}: could not parse {cell!r} as float"
                ) from None
            if not math.isfinite(value):
                raise TensorFormatError(f"{path}: line {lineno}, column {j}: non-finite value")
            out[k] = value
            k += 1
    return dims, mask, out.reshape(rows, cols)


def _text_lines(path: Path, raw: bytes) -> list[str]:
    """Decode a text file and split it into lines; a file that is not UTF-8
    or has no line raises, naming it and the line."""
    try:
        lines = raw.decode().splitlines()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise TensorFormatError(f"{path}: line {lineno}: not UTF-8 text") from None
    if not lines:
        raise TensorFormatError(f"{path}: line 1: empty file")
    return lines


def _parse_head(path: Path, lines: list[str], magic: str):
    """Dims, validity mask and number of head lines of a text file: its
    header, and a tensor's ``mask,`` row if its second line is one."""
    dims = _parse_dims(path, lines[0], magic, 3 if magic == TENSOR_MAGIC else 2)
    if magic != TENSOR_MAGIC or len(lines) < 2 or not lines[1].startswith("mask,"):
        return dims, None, 1
    bits = lines[1].split(",")[1:]
    if len(bits) != dims[2]:
        raise TensorFormatError(
            f"{path}: line 2: mask has {len(bits)} entries, expected {dims[2]}"
        )
    for j, bit in enumerate(bits, start=1):
        if bit not in ("0", "1"):
            raise TensorFormatError(
                f"{path}: line 2, column {j}: mask entry {bit!r} is not 0 or 1"
            )
    if "1" not in bits:
        raise TensorFormatError(f"{path}: line 2: time_mask must keep at least one column")
    return dims, np.array([bit == "1" for bit in bits]), 2


def _parse_dims(path: Path, line: str, magic: str, n: int) -> list[int]:
    head = line.split(",")
    if head[0] != magic or len(head) != n + 1:
        raise TensorFormatError(f"{path}: line 1: bad header {line!r}")
    try:
        dims = [int(v) for v in head[1:]]
    except ValueError:
        raise TensorFormatError(f"{path}: line 1: non-integer dims in {line!r}") from None
    if min(dims) < 0:
        raise TensorFormatError(f"{path}: line 1: negative dims in {line!r}")
    return dims


def _block_shape(dims: list[int]) -> tuple[int, int, str]:
    """Lines and cells per line of a data block, and its line count's name."""
    if len(dims) == 2:
        return dims[0], dims[1], "rows"
    A, B, T = dims
    return A * T, B, f"data lines ({T} blocks of {A})"


def write_matrix(path, m: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _write_text(path, [f"{MATRIX_MAGIC},{m.shape[0]},{m.shape[1]}"], m)


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    with _open_seekable(path) as fh:
        return _read_text(path, fh, MATRIX_MAGIC)[2]


def write_json(path, payload: dict) -> None:
    atomic_write_bytes(
        Path(path), (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    )


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
