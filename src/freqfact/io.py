"""Tensor and matrix file formats used by the CLI.

Text tensor format (CSV, diffable):

    stf-v1,A,B,T
    mask,1,0,1,...          <- optional validity row: T entries, each 0 or 1, a 1 among them
    <T blocks of A lines, each B comma-separated floats, block t first>

Binary tensor format (fast path): three little-endian u64 (A, B, T) followed
by A*B*T little-endian f64 values in (a, b, t) row-major order.  The binary
layout carries no validity mask.

Matrix format: ``stf-matrix-v1,rows,cols`` then one line per row.  Prediction
slices: ``stf-slice-v1,A,B,k`` then A lines of B values.  Each float is
written as its ``repr``, so outputs are byte-stable across runs.  The
readers take dims of at least 1: a tensor or matrix of no values is
rejected.

:func:`read_tensors` reads every tensor a command needs in one call, and
:func:`read_tensor` and :func:`read_matrix` are its one-file case, so every
file takes the one path below.  A text file in the form the writers emit
whose data block holds at least ``_KERNEL_BYTES`` bytes (32 kB) is parsed
straight from its bytes: the header lines are read one by one, then the
data block a chunk at a time by :func:`freqfact.cellparse.parse_chunk`.
It checks each chunk's line and cell layout with vectorised byte positions
and converts its cells exactly, with one integer parse and one correctly
rounded scale per cell, to ``float``'s values bit for bit; that module is
compiled where a chunk is first parsed (in a forked child, or in this
process), not by importing this one, and a smaller block, which the
line-by-line parse below reads faster than the module compiles, never
compiles it.  The blocks of one call are parsed in one round: when they
hold under ``2 * _PARSE_CHUNK_BYTES`` bytes (4 MB) in all, or are read
while another thread is alive, each is one chunk, read and parsed in this
process.  Otherwise every block is cut into one chunk per CPU the process
may run on (at most one per ``_PARSE_CHUNK_BYTES`` of the total), each cut
moved to the next line start by reading the bytes there, and forked child
j, bound to its CPU, reads, checks and parses chunk j of every block, so
a command's tensors take one forked round, whatever their number, and the
parent never holds a file's block of text: it reads each block's values
from the children's files a few whole time rows at a time, straight into
the caller's matrix (:func:`read_into`), so no flat copy of a block is
made; the values are bit-identical for any number of workers.  A chunk a
child cannot read sends its file to the line-by-line parse below, which
names the fault; a round whose fork or child failed parses every block in
this process, and copies each into its matrix once.  The first failing
file, in the call's order, raises what it raises when read alone.

Any other text file (``\\r\\n`` or lone ``\\r`` line ends, blank lines,
spaces, ``1_0``, a missing final newline, a malformed cell, ...) goes to a
line-by-line parse, which accepts a cell exactly when ``float`` accepts it
and the value is finite, skips blank lines, and raises
:class:`TensorFormatError` naming the file and the first bad line (and
column).  Both paths give the same values to the bit.  A binary file is
read straight into its matrix, and names the flat index of its first
non-finite value.  A pipe is read whole first, since the readers seek back;
its chunks are sliced from those bytes.

Text is formatted at most ``_CHUNK_CELLS`` cells (8,192), or one data line
where a line holds more, at a time, each step written straight to the file,
so a write never holds the whole text.  A block of at
least ``_KERNEL_CELLS`` cells (16,384) is formatted by
:func:`freqfact.cellformat.format_cells`, which writes ``repr``'s bytes with
whole-array operations and leaves to ``repr`` the few cells whose digits it
cannot prove; a smaller one takes one ``repr`` per cell, so a command that
writes only small text never compiles that module.  A data block of at
least ``2 * _FORMAT_CHUNK_CELLS`` cells (131,072), written while no other
thread is alive, is cut into one chunk of equal line counts per CPU the
process may run on (at most one per ``_FORMAT_CHUNK_CELLS``), each
formatted by the same routine in a forked child bound to its CPU, so the
bytes are identical for any number of workers; a failed fork or child sends
the block to the serial format.  :func:`write_slices` writes a prediction's
slices: each range of slices is formatted as one block and its bytes cut
into the slice files, and a batch of at least ``2 * _FORMAT_CHUNK_CELLS``
cells, written while no other thread is alive, is cut into one range of
whole slices per CPU, each written by a forked child; after a failed fork
or child the parent removes the temp files the children left and writes
every slice itself.  The forked parse, format and slice writes share
one helper, :func:`_forked`, which gives each child an in-memory file for
its output and reaps every child before it returns or raises, killing those
still running first when it is interrupted.  Every file is written to a
temp file beside it, made with mode 0o666 less the umask, and renamed into
place.
"""

import contextlib
import itertools
import json
import math
import os
import signal
import struct
import threading
from io import BytesIO
from pathlib import Path

import numpy as np

from .exceptions import TensorFormatError
from .tensor import SpatioTemporalTensor

__all__ = [
    "write_tensor",
    "read_tensor",
    "read_tensors",
    "read_into",
    "write_matrix",
    "read_matrix",
    "write_slice",
    "write_slices",
    "write_json",
    "read_json",
    "atomic_write_bytes",
]

TENSOR_MAGIC = "stf-v1"
MATRIX_MAGIC = "stf-matrix-v1"
SLICE_MAGIC = "stf-slice-v1"

# Cells per format step, or one line where a line holds more: bounds the
# per-cell strings, the kernel's temporaries (about 270 bytes a cell) and
# the text a step holds to a few MB, whatever the file size or line width.
_CHUNK_CELLS = 1 << 13

# Bytes of a canonical data block per forked parse worker: a block of at
# least twice this size is parsed on up to one worker per CPU.  On a 2-vCPU
# VM a tensor read split in two took 0.78-1.02 of the in-process time with a
# 4 MB block, 0.92-1.07 with 3 MB and 1.12-1.20 with 2 MB (medians of 41
# alternating reads, 3-5 runs each): the exact decimal kernel parses a MB in
# about 10 ms, and a fork and exit cost a few.
_PARSE_CHUNK_BYTES = 2 << 20

# Bytes from which a canonical data block is parsed by the exact kernel of
# freqfact.cellparse, not line by line with one float() per cell.  Compiling
# the module costs a process about 1.6 ms; on a 2-vCPU VM the line-by-line
# parse took 0.27 ms for a 15 kB block against 0.17 ms with the kernel
# compiled, 0.78 against 0.31 ms at 40 kB and 1.57 against 0.66 ms at 80 kB
# (medians of 15), so a command whose text blocks are all small (model
# matrices of a few thousand cells) never compiles it.
_KERNEL_BYTES = 1 << 15

# Cells of a data block per forked format worker: a block of at least twice
# this many cells is formatted on up to one worker per CPU.  On a 2-vCPU VM,
# with the kernel below, a one-column block written by two workers took
# 0.75-0.77 of the serial time at 131k-262k cells, 1.12 at 65k and 1.68 at
# 32k (medians of 11 fresh processes each): a fork costs a few ms, and the
# kernel formats 65k cells in about 10.
_FORMAT_CHUNK_CELLS = 1 << 16

# Cells of a block from which text is formatted by the exact kernel of
# freqfact.cellformat, not one repr per cell.  Its first use in a process
# costs 8-9 ms of compiling and tables; on a 2-vCPU VM a fresh process's
# write of an 8-column matrix took 22.4 ms with repr and 20.0 ms with the
# kernel at 16k cells, and 11.2 and 14.6 ms at 8k (medians of 9).
_KERNEL_CELLS = 1 << 14

# Values a forked parse's parent reads from its children's files at a time,
# in whole units (a tensor's time rows, a matrix's rows), to place in the
# caller's matrix: bounds the one buffer it holds beside that matrix.
_PLACE_VALUES = 1 << 15
_NEW_FILE = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
_CAN_FORK = all(hasattr(os, f) for f in ("fork", "sched_getaffinity", "memfd_create",
                                         "sendfile"))


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` as :func:`_atomic_write` does."""
    _atomic_write(Path(path), lambda fh: fh.write(data))


def _atomic_write(path: Path, fill) -> None:
    """Call ``fill`` on a binary file object open on a new temp file beside
    ``path``, then rename the temp file to ``path``, so readers never see
    partial output.  The temp file is made with mode 0o666 less the umask,
    as ``open`` would make ``path``, and is removed when anything fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"  # see _remove_temps
        try:
            fd = os.open(tmp, _NEW_FILE, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "wb") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fork_cpus(most: int) -> list[int]:
    """The CPUs of up to ``most`` forked workers, one each, from those this
    process may run on; [] when fewer than two would run, or when forking is
    unsafe (another thread is alive) or unsupported here."""
    if not _CAN_FORK or threading.active_count() > 1:
        return []
    cpus = sorted(os.sched_getaffinity(0))[:most]
    return cpus if len(cpus) > 1 else []


@contextlib.contextmanager
def _forked(work, cpus: list[int]):
    """Run ``work(j, fd)`` in forked child j, bound to CPU ``cpus[j]`` (a
    kernel that does not balance load would run every child on the parent's
    CPU), where ``fd`` is an anonymous in-memory file made for child j; yield
    those files in order once every child exited 0, or None when one failed.
    Raises OSError when a file could not be made or a child could not be
    forked or reaped.  The files are closed when the ``with`` block ends.

    A child exits 0 when its ``work`` returns true, else 1, also when it
    raises, and never runs the parent's cleanup.  The parent reaps every
    child before it yields or raises, and kills those still running first
    when a fork failed or it was interrupted.
    """
    parent, pids, fds = os.getpid(), [], []
    try:
        for _ in cpus:
            fds.append(os.memfd_create("freqfact"))
        for j, cpu in enumerate(cpus):
            pid = os.fork()
            if pid == 0:
                os.sched_setaffinity(0, [cpu])
                os._exit(0 if work(j, fds[j]) else 1)
            pids.append(pid)
        failed = False
        while pids:
            failed |= os.waitpid(pids[0], 0)[1] != 0
            del pids[0]
        yield None if failed else fds
    finally:
        if os.getpid() != parent:  # a child that raised
            os._exit(1)
        for pid in pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _formatter(cells: int):
    """The routine that formats a block of ``cells`` cells, ``fmt(rows,
    cols)`` to the bytes of its lines: :func:`freqfact.cellformat.format_cells`
    from ``_KERNEL_CELLS`` cells up, imported here, before any fork, so the
    children of a forked format share this process's import; else
    :func:`_repr_lines`.  Both give the same bytes."""
    if cells < _KERNEL_CELLS:
        return _repr_lines
    from .cellformat import format_cells

    return format_cells


def _repr_lines(m: np.ndarray, cols: int) -> bytes:
    """Lines of comma-separated ``repr`` floats, one per row of ``cols`` of
    ``m``, each ended by a newline.

    ``tolist`` yields Python floats, whose ``repr`` equals that of the
    float64 they came from.
    """
    cells = map(repr, m.ravel().tolist())
    return ("\n".join(map(",".join, zip(*[cells] * cols))) + "\n").encode()


def _format_lines(fh, rows: np.ndarray, start: int, stop: int, fmt) -> None:
    """Write lines ``start`` to ``stop`` of ``rows`` to ``fh``, formatted by
    ``fmt`` at most max(cols, ``_CHUNK_CELLS``) cells a step: the most whole
    lines within ``_CHUNK_CELLS`` cells, or one line."""
    step = max(1, _CHUNK_CELLS // rows.shape[1])
    for i in range(start, stop, step):
        fh.write(fmt(rows[i : min(i + step, stop)], rows.shape[1]))


def _write_text(path, head: list[str], rows: np.ndarray) -> None:
    """Write the head lines, then one line per row of ``rows`` formatted by
    :func:`_format_lines`, through :func:`_atomic_write`.

    A block of at least ``2 * _FORMAT_CHUNK_CELLS`` cells, written while no
    other thread is alive, is cut into one chunk of equal line counts per
    CPU, each formatted in a child run by :func:`_forked`; the parent copies
    the children's files in order into the temp file in the kernel, not
    through its own heap.  Any other block, or one whose workers failed, is
    formatted in this process straight into the temp file.  Both give the
    same bytes.
    """
    fmt = _formatter(rows.size)
    cpus = _fork_cpus(min(rows.size // _FORMAT_CHUNK_CELLS, rows.shape[0]))

    def format_chunk(j, fd):
        n = rows.shape[0]
        with open(fd, "wb", closefd=False) as fh:
            _format_lines(fh, rows, n * j // len(cpus), n * (j + 1) // len(cpus), fmt)
        return True

    def fill(fh):
        with contextlib.ExitStack() as stack:
            try:
                fds = cpus and stack.enter_context(_forked(format_chunk, cpus))
            except OSError:  # no file made, or no worker forked or reaped
                fds = None
            fh.write(("\n".join(head) + "\n").encode())
            if not fds:
                _format_lines(fh, rows, 0, rows.shape[0], fmt)
                return
            fh.flush()
            for fd in fds:
                at, size = 0, os.fstat(fd).st_size
                while at < size:
                    at += os.sendfile(fh.fileno(), fd, at, size - at)

    _atomic_write(Path(path), fill)


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


def write_slices(directory, values: np.ndarray) -> None:
    """Write time column k of the (A, B, K) ``values`` to
    ``directory/slice_{k:04d}.csv``, as :func:`write_slice` writes it, for
    each k.

    A range of slices is formatted as one block of lines, slice after
    slice, by the routine :func:`_formatter` picks for the whole batch, and
    its bytes are cut at every A-th line into the slice files.  A batch of
    at least ``2 * _FORMAT_CHUNK_CELLS`` cells, written while no other
    thread is alive, is cut into one contiguous range of slices per CPU
    this process may run on, at most one per ``_FORMAT_CHUNK_CELLS`` cells
    and one per slice, each written by a child run by :func:`_forked`.
    When a fork or a child fails, the parent removes the temp files its
    children left and writes every slice itself, as it writes any other
    batch; the bytes are the same.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    A, B, K = values.shape
    names = [f"slice_{k:04d}.csv" for k in range(K)]
    fmt = _formatter(values.size)
    cpus = _fork_cpus(min(values.size // _FORMAT_CHUNK_CELLS, K))

    def write(start, stop):
        rows = values[:, :, start:stop].transpose(2, 0, 1).reshape(-1, B)
        text = BytesIO()
        _format_lines(text, rows, 0, rows.shape[0], fmt)
        data = text.getvalue()
        ends = (np.flatnonzero(np.frombuffer(data, np.uint8) == 10)[A - 1 :: A] + 1).tolist()
        for k, at, end in zip(range(start, stop), [0] + ends, ends):
            head = f"{SLICE_MAGIC},{A},{B},{k}\n".encode()
            _atomic_write(directory / names[k], lambda fh: fh.write(head + data[at:end]))
        return True

    if cpus:
        try:
            with _forked(lambda j, fd: write(K * j // len(cpus), K * (j + 1) // len(cpus)),
                         cpus) as fds:
                if fds is not None:
                    return
        except OSError:  # no file made, or no worker forked or reaped
            pass
        finally:  # a child killed mid-write leaves its temp file
            _remove_temps(directory, set(names))
    write(0, K)


def _remove_temps(directory: Path, names: set[str]) -> None:
    """Remove the temp files :func:`_atomic_write` made in ``directory`` for
    files ``names`` and never renamed, as a killed writer leaves them."""
    with os.scandir(directory) as entries:
        for entry in entries:
            head, _, tail = entry.name.rpartition(".")
            if head[:1] == "." and head[1:] in names and len(tail) == 12:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(entry.path)


def read_tensor(path) -> SpatioTemporalTensor:
    """The tensor at ``path``: :func:`read_tensors` of that one path."""
    return read_tensors([path])[0]


def read_tensors(paths) -> list[SpatioTemporalTensor]:
    """The tensors at ``paths``, in order, each read as :func:`read_tensor`
    reads it alone, with every canonical text block among them parsed in
    one round (see :func:`read_into`).  The first input in ``paths`` order
    that fails raises its error."""
    return [SpatioTemporalTensor(m.reshape(dims), mask)
            for dims, mask, m in read_into(paths, TENSOR_MAGIC)]


def read_into(paths, magic: str = TENSOR_MAGIC, make=None) -> list:
    """``(dims, mask, matrix)`` of each file at ``paths`` (of kind
    ``magic``), in order: a tensor's (A * B, T) matricization with every
    time kept, or a matrix file's values.  ``make(heads)``, given every
    file's ``(dims, mask)``, returns the matrices to fill instead: a
    tensor's may hold only the times its mask keeps, and a binary tensor's
    must be C-contiguous.

    The heads are read in order.  Text files not in the writers' form (see
    :func:`_canonical_head`) and canonical blocks under ``_KERNEL_BYTES``
    bytes are parsed then, line by line (:func:`_read_general`), and later
    copied into their matrices; every other block is parsed by
    :func:`_parse_round`, straight into its matrix, or sent to the
    line-by-line parse, which names the fault, when the round does not read
    it.  A binary tensor is read straight into its matrix.  When a file
    fails, no later one is opened, and an error ``make`` raises counts as
    one after the last file: the files before it are read, in order, into
    arrays of their own, and then it is raised, so the first failing input
    raises the message it raises alone.
    """
    tensor = magic == TENSOR_MAGIC
    heads, sources, blocks, error = [], [], [], None
    with contextlib.ExitStack() as files:
        for path in map(Path, paths):
            try:
                fh = files.enter_context(_open_seekable(path))
                start = fh.read(len(TENSOR_MAGIC))
                if tensor and start and start != TENSOR_MAGIC.encode():
                    heads.append((_binary_dims(path, fh), None))
                    sources.append((path, fh, None))
                    continue
                fh.seek(0)
                head = _canonical_head(path, fh, magic)
                if head is None or fh.seek(0, os.SEEK_END) - head[2] < _KERNEL_BYTES:
                    fh.seek(0)
                    dims, mask, rows = _read_general(path, fh.read(), magic)
                    heads.append((dims, mask))
                    sources.append(rows)
                else:
                    dims, mask, at = head
                    heads.append((dims, mask))
                    sources.append((path, fh, len(blocks)))
                    blocks.append((fh, at, *_block_shape(dims)[:2]))
            except Exception as exc:  # raised once the inputs before it are read
                error = exc
                break
        dests = None
        if error is None and make is not None:
            try:
                dests = make(heads)
            except Exception as exc:
                error = exc
        if dests is None:
            dests = [np.empty((d[0] * d[1], d[2]) if tensor else d) for d, _ in heads]
        with _parse_round(blocks) as values:
            for (dims, mask), rows, dest in zip(heads, sources, dests):
                # a tensor's block holds its times one after another
                out, keep = (dest.T, None if dest.shape[1] == dims[2] else mask) if tensor else (
                    dest, None)
                if isinstance(rows, tuple):
                    path, fh, b = rows
                    if b is None:
                        _read_binary(path, fh, dest)
                        continue
                    if values(b, out, keep):
                        continue
                    fh.seek(0)
                    rows = _read_general(path, fh.read(), magic)[2]
                _place(out, keep, 0, rows.reshape(-1, out.shape[1]))
    if error is not None:
        raise error
    return [(dims, mask, dest) for (dims, mask), dest in zip(heads, dests)]


def _open_seekable(path: Path):
    """``path`` open for binary reads; a pipe is read whole into memory,
    since the readers seek back."""
    fh = open(path, "rb")
    if fh.seekable():
        return fh
    with fh:
        return BytesIO(fh.read())


def _binary_dims(path: Path, fh) -> list[int]:
    """The dims of a binary tensor file, checked against its size."""
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    head = fh.read(24)
    if len(head) < 24:
        raise TensorFormatError(f"{path}: binary header truncated ({len(head)} bytes)")
    A, B, T = struct.unpack("<QQQ", head)
    if 0 in (A, B, T):
        raise TensorFormatError(f"{path}: dims {A}x{B}x{T} hold no value")
    # checked before any array is made, so dims that do not fit allocate nothing
    if size != 24 + 8 * A * B * T:
        raise TensorFormatError(
            f"{path}: expected {24 + 8 * A * B * T} bytes for dims {A}x{B}x{T}, got {size}"
        )
    return [A, B, T]


def _read_binary(path: Path, fh, dest: np.ndarray) -> None:
    """Read a binary tensor file's values into ``dest``, its C-contiguous
    (A * B, T) matrix, whose flat index is the file's (a, b, t) one.  The
    values are checked finite ``_PLACE_VALUES`` at a time, so no bool copy
    of the matrix is held beside it."""
    fh.seek(24)
    got = fh.readinto(dest)
    if got != dest.nbytes:  # the file shrank since its head was read
        raise TensorFormatError(f"{path}: expected {24 + dest.nbytes} bytes, got {24 + got}")
    if not np.little_endian:
        dest.byteswap(inplace=True)
    flat = dest.reshape(-1)
    for at in range(0, flat.size, _PLACE_VALUES):
        finite = np.isfinite(flat[at : at + _PLACE_VALUES])
        if not finite.all():
            raise TensorFormatError(f"{path}: value {at + int(np.argmin(finite))} "
                                    "(flat (a, b, t) index): non-finite value")


def _place(out: np.ndarray, keep, t0: int, piece: np.ndarray) -> None:
    """Put units ``t0`` on of a block, the rows of ``piece``, into the rows
    of ``out``: unit t into row t, or with a ``keep`` mask over the units,
    each kept one into the row of its rank among them."""
    if keep is None:
        out[t0 : t0 + len(piece)] = piece
        return
    kept = keep[t0 : t0 + len(piece)]
    at = int(np.count_nonzero(keep[:t0]))
    out[at : at + int(np.count_nonzero(kept))] = piece[kept]


def _canonical_head(path: Path, fh, magic: str):
    """Dims, validity mask and the byte where the data block starts, of the
    text file open at the start of ``fh`` when its head is in the form the
    writers emit; else None, every malformed head included.

    The head lines must be ASCII, each ended by a lone ``\\n``.  Errors are
    left to :func:`_read_general`, so a file with several faults is named by
    its first one whichever path saw it.
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
    return dims, mask, body_at if pos < len(lines) else fh.tell()  # the second line may be data


@contextlib.contextmanager
def _parse_round(blocks: list):
    """One parse of the canonical data ``blocks``, each ``(fh, at, rows,
    cols)``: the bytes of ``fh`` from byte ``at`` to its end, to be read by
    :func:`freqfact.cellparse.parse_chunk` as ``rows`` lines of ``cols``
    cells.  Yields ``values(b, out, keep)``, which puts block b's values,
    read as units of equal size (a tensor's times, a matrix's rows), into
    the rows of ``out`` as :func:`_place` does, and returns False, having
    placed nothing, when ``parse_chunk`` does not read the block or it does
    not hold rows * cols cells.

    When the blocks hold at least ``2 * _PARSE_CHUNK_BYTES`` bytes in all
    and no other thread is alive, every block is cut into one chunk per CPU
    this process may run on, at most one per ``_PARSE_CHUNK_BYTES`` of the
    total, each cut moved from its share of the block's bytes to the next
    line start (so a chunk may be empty).  Child j run by :func:`_forked`
    reads chunk j of every block with ``pread`` (or slices it from a pipe
    read whole into memory), checks and parses it, and writes the values
    block after block into its own in-memory file, then one int64 count of
    values per block, -1 for a chunk ``parse_chunk`` does not read.
    ``values`` reads block b's values from the children's files in order,
    at most ``_PLACE_VALUES`` (or one unit) at a time, into one buffer, and
    places each piece, so this process never holds a block's flat values.
    Any other round, or one whose workers could not be forked or reaped or
    exited nonzero, parses each block as one chunk in this process when
    ``values`` asks for it, then places it.  Each cell goes through the same
    routine, so the values agree to the bit.
    """
    sizes = [fh.seek(0, os.SEEK_END) - at for fh, at, _, _ in blocks]
    cpus = _fork_cpus(sum(sizes) // _PARSE_CHUNK_BYTES)
    cuts = []
    for (fh, at, _, _), size in zip(blocks, sizes):
        cut = [0]
        for j in range(1, len(cpus)):  # one past the first newline from the byte before cut j
            fh.seek(at + size * j // len(cpus) - 1)
            cut.append(min(fh.tell() + len(fh.readline()) - at, size))
        cuts.append(cut + [size])

    def parse(b, lo, hi):
        from . import cellparse  # a forked parse's parent never compiles it

        fh, at, _, cols = blocks[b]
        if isinstance(fh, BytesIO):  # a pipe's bytes, this process's own copy
            fh.seek(at + lo)
            chunk = fh.read(hi - lo)
        else:  # a child must not move the file offset it shares
            chunk = _pread(fh.fileno(), hi - lo, at + lo)
        return cellparse.parse_chunk(chunk, cols) if len(chunk) == hi - lo else None

    def parse_into(j, fd):
        counts = []
        for b, cut in enumerate(cuts):
            values = parse(b, cut[j], cut[j + 1])
            if values is not None and os.write(fd, values) != values.nbytes:
                return False
            counts.append(-1 if values is None else values.size)
        counts = np.array(counts, dtype=np.int64)
        return os.write(fd, counts) == counts.nbytes

    with contextlib.ExitStack() as stack:
        fds = None
        if cpus:
            try:
                fds = stack.enter_context(_forked(parse_into, cpus))
            except OSError:  # no file made, or no worker forked or reaped
                pass
        if fds:  # per child, each block's value count and the byte its values start at
            n = 8 * len(blocks)
            counts = [np.frombuffer(_pread(fd, n, os.fstat(fd).st_size - n), np.int64).tolist()
                      for fd in fds]
            starts = [list(itertools.accumulate((8 * max(c, 0) for c in cs), initial=0))
                      for cs in counts]

        def values(b, out, keep) -> bool:
            _, _, rows, cols = blocks[b]
            units = len(out) if keep is None else len(keep)
            if not fds:
                flat = parse(b, 0, sizes[b])
                if flat is None or flat.size != rows * cols:
                    return False
                _place(out, keep, 0, flat.reshape(units, -1))
                return True
            if min(c[b] for c in counts) < 0 or sum(c[b] for c in counts) != rows * cols:
                return False
            unit = rows * cols // units
            step = max(1, _PLACE_VALUES // unit)
            piece = np.empty(min(step, units) * unit)
            for t0 in range(0, units, step):
                part = piece[: min(step, units - t0) * unit]
                lo, first = t0 * unit, 0  # flat index of part, and of child j's first value
                for fd, c, start in zip(fds, counts, starts):
                    a, z = max(lo, first), min(lo + part.size, first + c[b])
                    if a < z and os.preadv(fd, [part[a - lo : z - lo]],
                                           start[b] + 8 * (a - first)) != 8 * (z - a):
                        return False
                    first += c[b]
                _place(out, keep, t0, part.reshape(-1, unit))
            return True

        yield values


def _pread(fd: int, n: int, at: int) -> bytes:
    """``n`` bytes of ``fd`` from byte ``at``, fewer only at its end: one
    ``pread`` moves at most about 2 GB on Linux."""
    parts = []
    while n > 0 and (part := os.pread(fd, n, at)):
        parts.append(part)
        n, at = n - len(part), at + len(part)
    return b"".join(parts)


def _read_general(path: Path, raw: bytes, magic: str):
    """Dims, validity mask (None unless a tensor file has a mask row) and
    (rows, cols) data block of any text file, line by line: a cell is accepted
    exactly when ``float`` accepts it and the value is finite, blank lines
    are skipped, and the first bad position raises."""
    lines = _utf8(path, raw).splitlines()
    if not lines:
        raise TensorFormatError(f"{path}: line 1: empty file")
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


def _utf8(path, raw: bytes) -> str:
    """A text file's bytes decoded; bytes that are not UTF-8 raise, naming
    the file and the line."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise TensorFormatError(f"{path}: line {lineno}: not UTF-8 text") from None


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
    if min(dims) == 0:
        raise TensorFormatError(f"{path}: line 1: dims in {line!r} hold no value")
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
    return read_into([path], MATRIX_MAGIC)[0][2]


def write_json(path, payload: dict) -> None:
    atomic_write_bytes(
        Path(path), (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    )


def read_json(path):
    """The JSON value in ``path``.  A file that is not UTF-8, not JSON or
    has a key twice in one object raises ValueError naming it and where."""

    def unique(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise ValueError(f"{path}: duplicate key {key!r}")
            out[key] = value
        return out

    try:
        return json.loads(_utf8(path, Path(path).read_bytes()), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
