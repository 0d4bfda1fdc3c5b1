"""In-memory span tracer that wraps freqfact's public functions from outside.

The tracer replaces every public function of the traced modules, and every
binding of it that another freqfact module imported (``forecast.solve_H_pgd``,
``cli.encode_new``, the package re-exports, ...), with a wrapper that records
a span: id, parent id, thread id, name, start, end and, for I/O, a byte count.
Each thread keeps its own span stack.  Work submitted to a thread pool gets
the submitting thread's open span as its parent, so the grid's worker spans
nest under ``cli.factorize`` and self times stay correct when threads overlap.

It also counts calls into numpy's ``fft``/``ifft``/``rfft``/``irfft`` and the
number of points each call transforms.  ``uninstall`` restores every binding,
so untraced runs in the same process pay nothing.
"""

import concurrent.futures
import functools
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED_MODULES = ("cli", "io", "tensor", "spectral", "regularization",
                  "solvers", "forecast", "synthetic")
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")

# The per-point body of a factorize grid is private but traced as well: its
# spans give the grid's busy time.
POINT_FN, POINT_SPAN = "_run_factorize_point", "cli.factorize_point"

# Byte counters for the I/O layer: span name -> bytes moved by one call.
BYTE_COUNTERS = {
    "io.read_tensor": lambda args, kwargs: os.path.getsize(args[0]),
    "io.atomic_write_bytes": lambda args, kwargs: len(args[1]),
}


def _span_name(module: str, qualname: str) -> str:
    if module == "cli" and qualname.startswith("cmd_"):
        qualname = qualname[len("cmd_"):]
    return f"{module}.{qualname}"


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.inherited = None
        self.registered = False


class Tracer:
    """Collects spans and FFT counts while installed."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._records = []      # one list of span tuples per thread
        self._fft = []          # one [calls, points] pair per thread
        self._restore = []      # (owner, attribute, original) triples

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = self._local
        if not st.registered:
            st.records = []
            st.fft = [0, 0]
            st.tid = threading.get_ident()
            with self._lock:
                self._records.append(st.records)
                self._fft.append(st.fft)
            st.registered = True
        return st

    def _wrap(self, name, fn):
        tracer = self
        size_of = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            sid = next(tracer._ids)
            parent = st.stack[-1] if st.stack else st.inherited
            nbytes = size_of(args, kwargs) if size_of else 0
            st.stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.records.append((sid, parent, st.tid, name, t0, t1, nbytes))

        return wrapper

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            counts = tracer._state().fft
            counts[0] += 1
            counts[1] += int(np.size(a))
            return fn(a, *args, **kwargs)

        return wrapper

    def _wrap_submit(self, submit):
        tracer = self

        @functools.wraps(submit)
        def wrapper(pool, fn, /, *args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1] if st.stack else st.inherited

            def run(*a, **kw):
                wst = tracer._state()
                saved, wst.inherited = wst.inherited, parent
                try:
                    return fn(*a, **kw)
                finally:
                    wst.inherited = saved

            return submit(pool, run, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced modules' public functions and methods, every
        freqfact binding of them, numpy's FFT entry points and thread-pool
        submission.  Call :meth:`uninstall` to undo."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original function) -> wrapper
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"freqfact.{short}")
            if mod is None:  # a module the CLI no longer imports has no spans
                continue
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
                if inspect.isfunction(obj) and short == "cli" and attr == POINT_FN:
                    wrapped[id(obj)] = self._wrap(POINT_SPAN, obj)
                elif inspect.isfunction(obj) and public:
                    wrapped[id(obj)] = self._wrap(_span_name(short, attr), obj)
                elif inspect.isclass(obj) and public:
                    self._wrap_methods(short, obj)
        pkg_modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "freqfact" or n.startswith("freqfact."))]
        for mod in pkg_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        for attr in FFT_FUNCS:
            self._set(np.fft, attr, self._wrap_fft(getattr(np.fft, attr)))
        pool_cls = concurrent.futures.ThreadPoolExecutor
        self._set(pool_cls, "submit", self._wrap_submit(pool_cls.submit))

    def _wrap_methods(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = _span_name(short, f"{cls.__name__}.{attr}")
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- collection --------------------------------------------------------

    def collect(self):
        """Return (spans, fft_calls, fft_points) recorded since the last
        collect and reset the buffers.  Call only while no traced work runs."""
        with self._lock:
            spans = [rec for recs in self._records for rec in recs]
            fft_calls = sum(c[0] for c in self._fft)
            fft_points = sum(c[1] for c in self._fft)
            for recs in self._records:
                recs.clear()
            for c in self._fft:
                c[0] = c[1] = 0
        return spans, fft_calls, fft_points


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """Per span name: inclusive seconds ``s``, ``self_s``, ``calls`` and
    ``bytes``.

    Self time is a span's duration minus the part of it that its children
    cover; children on other threads (a grid's workers) can overlap, so the
    covered part is the union of their intervals, not their sum.
    """
    children = defaultdict(list)
    for sid, parent, _tid, _name, t0, t1, _nb in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0, "threads": set()})
    for sid, _parent, tid, name, t0, t1, nbytes in spans:
        row = out[name]
        dur = t1 - t0
        row["s"] += dur
        row["self_s"] += dur - _covered(children.get(sid, ()), t0, t1)
        row["calls"] += 1
        row["bytes"] += nbytes
        row["threads"].add(tid)
    return {name: {**row, "threads": len(row["threads"])} for name, row in out.items()}


def grid_concurrency(spans) -> float:
    """Summed busy time of factorize points over the factorize wall time
    (ideal: the number of grid jobs)."""
    busy = sum(t1 - t0 for _s, _p, _t, name, t0, t1, _b in spans if name == "cli.factorize_point")
    wall = sum(t1 - t0 for _s, _p, _t, name, t0, t1, _b in spans if name == "cli.factorize")
    return busy / wall if wall > 0 else 0.0
