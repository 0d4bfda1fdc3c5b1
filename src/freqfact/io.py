"""Tensor and matrix file formats used by the CLI.

Text tensor format (CSV, diffable):

    stf-v1,A,B,T
    mask,1,0,1,...          <- optional validity row, length T
    <T blocks of A lines, each B comma-separated floats, block t first>

Binary tensor format (fast path): three little-endian u64 (A, B, T) followed
by A*B*T little-endian f64 values in (a, b, t) row-major order.  The binary
layout carries no validity mask.

Matrix format: ``stf-matrix-v1,rows,cols`` then one line per row.  Floats are
written with ``repr`` so outputs are byte-stable across runs.
"""

import json
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
    "write_json",
    "read_json",
    "atomic_write_bytes",
]

TENSOR_MAGIC = "stf-v1"
MATRIX_MAGIC = "stf-matrix-v1"


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


def _fmt_row(row) -> str:
    return ",".join(repr(float(v)) for v in row)


def write_tensor(path, t: SpatioTemporalTensor, binary: bool = False) -> None:
    path = Path(path)
    A, B, T = t.dims
    if binary:
        payload = struct.pack("<QQQ", A, B, T) + np.ascontiguousarray(
            t.values, dtype="<f8"
        ).tobytes()
        atomic_write_bytes(path, payload)
        return
    lines = [f"{TENSOR_MAGIC},{A},{B},{T}"]
    if t.time_mask is not None:
        lines.append("mask," + ",".join("1" if m else "0" for m in t.time_mask))
    for k in range(T):
        for a in range(A):
            lines.append(_fmt_row(t.values[a, :, k]))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def read_tensor(path) -> SpatioTemporalTensor:
    path = Path(path)
    raw = path.read_bytes()
    if not raw or raw[: len(TENSOR_MAGIC)] == TENSOR_MAGIC.encode():
        return _read_tensor_text(path, raw.decode())
    return _read_tensor_binary(path, raw)


def _text_lines(path: Path, text: str) -> list[str]:
    """Split a text file into lines; a file without any raises, naming it."""
    lines = text.splitlines()
    if not lines:
        raise TensorFormatError(f"{path}: line 1: empty file")
    return lines


def _read_tensor_binary(path: Path, raw: bytes) -> SpatioTemporalTensor:
    if len(raw) < 24:
        raise TensorFormatError(f"{path}: binary header truncated ({len(raw)} bytes)")
    A, B, T = struct.unpack("<QQQ", raw[:24])
    expected = 24 + 8 * A * B * T
    if len(raw) != expected:
        raise TensorFormatError(
            f"{path}: expected {expected} bytes for dims {A}x{B}x{T}, got {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=24).reshape(A, B, T)
    return SpatioTemporalTensor(values.copy())


def _read_tensor_text(path: Path, text: str) -> SpatioTemporalTensor:
    lines = _text_lines(path, text)
    head = lines[0].split(",")
    if head[0] != TENSOR_MAGIC or len(head) != 4:
        raise TensorFormatError(f"{path}: line 1: bad header {lines[0]!r}")
    try:
        A, B, T = (int(v) for v in head[1:])
    except ValueError:
        raise TensorFormatError(f"{path}: line 1: non-integer dims in {lines[0]!r}") from None
    pos = 1
    mask = None
    if pos < len(lines) and lines[pos].startswith("mask,"):
        bits = lines[pos].split(",")[1:]
        if len(bits) != T:
            raise TensorFormatError(f"{path}: line {pos + 1}: mask has {len(bits)} entries, expected {T}")
        mask = np.array([b == "1" for b in bits])
        pos += 1
    need = A * T
    body = [ln for ln in lines[pos:] if ln.strip()]
    if len(body) != need:
        raise TensorFormatError(
            f"{path}: expected {need} data lines ({T} blocks of {A}), got {len(body)}"
        )
    values = np.empty((A, B, T))
    for i, ln in enumerate(body):
        cells = ln.split(",")
        lineno = pos + 1 + i
        if len(cells) != B:
            raise TensorFormatError(
                f"{path}: line {lineno}: expected {B} columns, got {len(cells)}"
            )
        k, a = divmod(i, A)
        for j, cell in enumerate(cells):
            try:
                values[a, j, k] = float(cell)
            except ValueError:
                raise TensorFormatError(
                    f"{path}: line {lineno}, column {j + 1}: could not parse {cell!r} as float"
                ) from None
    return SpatioTemporalTensor(values, mask)


def write_matrix(path, m: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lines = [f"{MATRIX_MAGIC},{m.shape[0]},{m.shape[1]}"]
    lines.extend(_fmt_row(row) for row in m)
    atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode())


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    lines = _text_lines(path, path.read_text())
    head = lines[0].split(",")
    if head[0] != MATRIX_MAGIC or len(head) != 3:
        raise TensorFormatError(f"{path}: line 1: bad header {lines[0]!r}")
    try:
        rows, cols = int(head[1]), int(head[2])
    except ValueError:
        raise TensorFormatError(f"{path}: line 1: non-integer dims in {lines[0]!r}") from None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != rows:
        raise TensorFormatError(f"{path}: expected {rows} rows, got {len(body)}")
    out = np.empty((rows, cols))
    for i, ln in enumerate(body):
        cells = ln.split(",")
        if len(cells) != cols:
            raise TensorFormatError(
                f"{path}: line {i + 2}: expected {cols} columns, got {len(cells)}"
            )
        for j, cell in enumerate(cells):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise TensorFormatError(
                    f"{path}: line {i + 2}, column {j + 1}: could not parse {cell!r} as float"
                ) from None
    if not np.all(np.isfinite(out)):
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise TensorFormatError(f"{path}: line {i + 2}, column {j + 1}: non-finite value")
    return out


def write_json(path, payload: dict) -> None:
    atomic_write_bytes(
        Path(path), (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    )


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
