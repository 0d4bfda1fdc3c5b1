"""Tensor and matrix file formats used by the CLI.

Text tensor format (CSV, diffable):

    stf-v1,A,B,T
    mask,1,0,1,...          <- optional validity row, length T
    <T blocks of A lines, each B comma-separated floats, block t first>

Binary tensor format (fast path): three little-endian u64 (A, B, T) followed
by A*B*T little-endian f64 values in (a, b, t) row-major order.  The binary
layout carries no validity mask.

Matrix format: ``stf-matrix-v1,rows,cols`` then one line per row.  Prediction
slices: ``stf-slice-v1,A,B,k`` then A lines of B values.  Floats are written
with ``repr`` so outputs are byte-stable across runs.

Text files are parsed and formatted in bulk, ``_CHUNK_LINES`` data lines at a
time, so the transient per-cell Python objects stay bounded whatever the
file size.  A cell is accepted exactly when ``float`` accepts it and the
value is finite.  Blank lines are skipped.  A malformed file raises
:class:`TensorFormatError` naming the file and the first bad line (and
column); a binary file names the flat index of its first non-finite value.
"""

import json
import math
import os
import struct
import tempfile
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

# Data lines per bulk parse or format step: bounds the joined text and the
# cell list a step holds to a few MB.  On a 10 MB file of 524k lines, one
# whole-file join raised the parse's peak memory from +66 MB to +110 MB.
_CHUNK_LINES = 1 << 16


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
    raw = path.read_bytes()
    if raw and raw[: len(TENSOR_MAGIC)] != TENSOR_MAGIC.encode():
        return _read_tensor_binary(path, raw)
    lines = _text_lines(path, raw)
    del raw  # the parse needs only the lines; free the bytes before it runs
    return _read_tensor_text(path, lines)


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


def _parse_cells(body: list[str], cols: int) -> np.ndarray | None:
    """Parse data lines into a flat float array in (line, column) order, or
    return None when a line does not have ``cols`` cells or a cell is not a
    finite float."""
    flat = np.empty(len(body) * cols)
    for start in range(0, len(body), _CHUNK_LINES):
        chunk = body[start : start + _CHUNK_LINES]
        cells = ",".join(chunk).split(",")
        if len(cells) != len(chunk) * cols:
            return None
        # equal totals can still hide one long and one short line
        if cols > 1 and any(ln.count(",") != cols - 1 for ln in chunk):
            return None
        try:
            flat[start * cols : start * cols + len(cells)] = np.fromiter(
                map(float, cells), dtype=float, count=len(cells)
            )
        except ValueError:
            return None
    return flat if np.isfinite(flat).all() else None


def _raise_first_bad_line(path: Path, lines: list[str], pos: int, cols: int) -> None:
    """Line-by-line parse of ``lines[pos:]`` that raises at the first line
    with the wrong column count, or the first cell that is not a finite
    float.  Called only once :func:`_parse_cells` has found such a line."""
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


def _read_rows(path: Path, lines: list[str], pos: int, rows: int, cols: int, what: str) -> np.ndarray:
    """Parse the nonblank lines after ``lines[:pos]`` into a (rows, cols)
    array."""
    body = [ln for ln in lines[pos:] if ln.strip()]
    if len(body) != rows:
        raise TensorFormatError(f"{path}: expected {rows} {what}, got {len(body)}")
    flat = _parse_cells(body, cols)
    if flat is None:
        _raise_first_bad_line(path, lines, pos, cols)
    return flat.reshape(rows, cols)


def _read_tensor_binary(path: Path, raw: bytes) -> SpatioTemporalTensor:
    if len(raw) < 24:
        raise TensorFormatError(f"{path}: binary header truncated ({len(raw)} bytes)")
    A, B, T = struct.unpack("<QQQ", raw[:24])
    expected = 24 + 8 * A * B * T
    if len(raw) != expected:
        raise TensorFormatError(
            f"{path}: expected {expected} bytes for dims {A}x{B}x{T}, got {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=24)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise TensorFormatError(
            f"{path}: value {bad[0]} (flat (a, b, t) index): non-finite value"
        )
    return SpatioTemporalTensor(values.reshape(A, B, T).copy())


def _read_tensor_text(path: Path, lines: list[str]) -> SpatioTemporalTensor:
    A, B, T = _parse_dims(path, lines[0], TENSOR_MAGIC, 3)
    pos = 1
    mask = None
    if pos < len(lines) and lines[pos].startswith("mask,"):
        bits = lines[pos].split(",")[1:]
        if len(bits) != T:
            raise TensorFormatError(f"{path}: line {pos + 1}: mask has {len(bits)} entries, expected {T}")
        mask = np.array([b == "1" for b in bits])
        pos += 1
    rows = _read_rows(path, lines, pos, A * T, B, f"data lines ({T} blocks of {A})")
    # line t*A + a holds cell row (a, :, t)
    values = np.ascontiguousarray(rows.reshape(T, A, B).transpose(1, 2, 0))
    return SpatioTemporalTensor(values, mask)


def write_matrix(path, m: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _write_text(path, [f"{MATRIX_MAGIC},{m.shape[0]},{m.shape[1]}"], m)


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    lines = _text_lines(path, path.read_bytes())
    rows, cols = _parse_dims(path, lines[0], MATRIX_MAGIC, 2)
    return _read_rows(path, lines, 1, rows, cols, "rows")


def write_json(path, payload: dict) -> None:
    atomic_write_bytes(
        Path(path), (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    )


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
