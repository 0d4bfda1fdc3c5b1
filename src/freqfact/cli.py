"""Command-line front end.

Subcommands: synth | factorize | forecast | evaluate | atom-scan.
Common flags: --config PATH, --seed U64, --jobs N, --out DIR, --binary.
Logging level comes from the STF_LOG environment variable
(error|warn|info|debug).  Exit codes: 0 ok, 2 usage/input error,
3 numerical failure.

Config files are JSON objects.  The shipped ``config_schema.json`` states
each field's type, default, range and choices once; :func:`check_config`
reads it and checks every config and grid point, naming the field, before
any input is read; only cross-field checks stay in code.  All randomness
descends from one 64-bit seed; each grid point derives its own stream from
(seed, point index), so adding a point never perturbs the others.
"""

import argparse
import contextlib
import copy
import itertools
import logging
import math
import os
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import io as fio
from .exceptions import ConvergenceError, TensorFormatError
from .forecast import EncodeConfig, atom_removal_scan, encode_new, nse, predict
from .regularization import Penalty
from .solvers import FactorModel, Hyper, code_step, ssnmf_bcd, ssnmf_hard
from .spectral import FrequencyMask, inverse_usage_ratio
from .synthetic import SyntheticSpec, gen_cosine_mixture
from .tensor import SpatioTemporalTensor, matricize

log = logging.getLogger("freqfact")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# config plumbing

_SCHEMA = fio.read_json(Path(__file__).parent / "config_schema.json")

_SCALARS = {"int": (int, "an int"), "number": ((int, float), "a number"),
            "string": (str, "a string"), "path": (str, "a string"), "object": (dict, "an object")}


def _check_value(name: str, spec: dict, value) -> None:
    """Raise ValueError naming the field, and the index within a list (as
    ``'freqs[0]'``), when ``value`` fits none of the ``|``-joined types of
    a schema field ``spec``, or falls outside its ``min``, ``max`` or
    ``enum``.  A section name checks a nested object against that section;
    bool is no number here, an int stands for a number, a number must be
    finite (JSON's NaN and Infinity pass every range check) and a path must
    be nonempty (the empty path names the working directory)."""
    kinds = spec["type"].split("|")
    for kind in kinds:
        if kind == "null" and value is None:
            return
        if kind.startswith("[") and isinstance(value, list):
            for i, item in enumerate(value):
                _check_value(f"{name}[{i}]", {"type": kind[1:-1]}, item)
            return
        if isinstance(_SCHEMA.get(kind), dict) and isinstance(value, dict):
            check_config(kind, value, name)
            return
        if kind in _SCALARS and isinstance(value, _SCALARS[kind][0]) and not isinstance(value, bool):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config field {name!r} must be a finite number, got {value!r}")
            if kind == "path" and not value:
                raise ValueError(f"config field {name!r} must be a nonempty path, got ''")
            if "min" in spec and value < spec["min"]:
                raise ValueError(f"config field {name!r} must be >= {spec['min']}, got {value!r}")
            if "max" in spec and value > spec["max"]:
                raise ValueError(f"config field {name!r} must be <= {spec['max']}, got {value!r}")
            if "enum" in spec and value not in spec["enum"]:
                raise ValueError(f"config field {name!r} must be one of {tuple(spec['enum'])}, "
                                 f"got {value!r}")
            return
    want = " or ".join(_SCALARS[k][1] if k in _SCALARS else "null" if k == "null"
                       else "a list" if k.startswith("[") else "an object" for k in kinds)
    raise ValueError(f"config field {name!r} must be {want}, got {type(value).__name__} {value!r}")


def check_config(section: str, d: dict, path: str = "") -> types.SimpleNamespace:
    """``d`` checked against ``section`` of ``config_schema.json``, with the
    defaults filled in at its top level.

    Raises ValueError naming the field by its dotted path (``path`` prefixes
    it): an unknown field, then a present field that fails its check, then
    a missing required one.  Nested objects and lists are checked but
    returned as given."""
    fields = _SCHEMA[section]
    names = {name: f"{path}.{name}" if path else name for name in fields}
    unknown = set(d) - set(fields)
    if unknown:
        raise ValueError(f"unknown config fields for {path or section}: {sorted(unknown)}")
    for name, value in d.items():
        _check_value(names[name], fields[name], value)
    for name, spec in fields.items():
        if name not in d and "default" not in spec:
            raise ValueError(f"config field {names[name]!r} is required")
    return types.SimpleNamespace(**{name: d[name] if name in d else copy.deepcopy(spec["default"])
                                    for name, spec in fields.items()})


def penalty_from_dict(d: dict) -> Penalty:
    """The :class:`Penalty` a config's ``penalty`` object states, checked by
    :func:`check_config`.  Commands build theirs after parsing their inputs:
    one built at config time, before the parse, raised ``factorize``'s peak
    RSS on a 10 MB text input by 0.13 MB."""
    p = vars(check_config("penalty", d, "penalty"))
    mask = None if p["mask"] is None else FrequencyMask(
        p["mask"]["T"], tuple(tuple(row) for row in p["mask"]["kept"]))
    return Penalty(p["kind"], float(p["lambda"]), p["R"], mask)


def _check_restated(variant: str | None, want: str, R: int | None, penalty_R: int | None) -> None:
    """Raise ValueError naming the field when a config's ``variant`` or
    ``R``, which only restate its penalty, disagree with it: ``variant``
    with ``want``, the one the penalty implies, and ``R`` with penalty.R.
    A null field restates nothing."""
    if variant is not None and variant != want:
        raise ValueError(f"config field 'variant' must be {want!r} for this penalty, "
                         f"got {variant!r}")
    if R is not None and R != penalty_R:
        raise ValueError(f"config field 'R' must equal penalty.R ({penalty_R!r}), got {R!r}")


def _factorize_config(d: dict) -> types.SimpleNamespace:
    """A factorize config (one grid point, or the base of a grid), checked
    against the schema and against the ``variant`` and ``R`` that restate
    its penalty."""
    cfg = check_config("factorize", d)
    _check_restated(cfg.variant, "hard" if cfg.penalty["kind"] == "hard_freq" else "bcd",
                    cfg.R, cfg.penalty.get("R"))
    return cfg


def load_config(args) -> dict:
    """The config object read from ``args.config`` (empty without one), with
    ``args.seed`` in place of its seed when given; unchecked."""
    data = fio.read_json(args.config) if args.config else {}
    if not isinstance(data, dict):
        raise ValueError(f"{args.config}: a config must be a JSON object, "
                         f"got {type(data).__name__}")
    if args.seed is not None:
        data = {**data, "seed": args.seed}
    return data


def _encode_penalty(cfg) -> Penalty:
    """A forecast config's penalty, checked against the ``variant`` and
    ``R`` that restate it (see :func:`_check_restated`)."""
    penalty = penalty_from_dict(cfg.penalty)
    _check_restated(cfg.variant, code_step(penalty)[0], cfg.R, penalty.R)
    return penalty


# ---------------------------------------------------------------------------
# shared helpers


class _MatrixLoader:
    """Matricized tensors by path, and stacked auxiliaries by path list, each
    built once and shared, read-only, by later uses.

    ``load.read(*requests)`` takes a command's requests in the order it uses
    them, a path for one tensor's matrix or a list of paths for the
    vertical stack of those auxiliaries, and reads every tensor they name
    that no earlier request read in one :func:`freqfact.io.read_into` call:
    one parse round for all of them.  ``load(path)`` returns one tensor's
    matrix and ``load.aux(paths)`` the stack of the auxiliaries at ``paths``
    (one path or a list), each read by its own call when no earlier
    ``read`` built it.  Each input is held once: once the heads are read,
    every requested matrix and stack is allocated and each tensor parsed
    straight into one place, its own matrix when a path request names it,
    else its rows of the first stack holding it; its other places, and a
    stack's rows of a tensor read before, are copied in after the parse.
    Stacked tensors that keep unequal numbers of times raise ValueError.

    Matrix column k is the k-th time a tensor's mask keeps, so each tensor
    read is checked against those before it, in request order: two whose
    masks differ over the span they share raise ValueError naming both.
    Only masks are kept, so unmasked inputs allocate nothing for the check.
    These checks raise after the parse, so a malformed file is named first.
    """

    def __init__(self):
        self._cache: dict = {}
        self._masks: dict = {}

    def read(self, *requests) -> None:
        keys = [tuple(map(str, r)) if isinstance(r, (list, tuple)) else str(r) for r in requests]
        keys = [key for key in dict.fromkeys(keys) if key not in self._cache]
        if not keys:
            return
        paths = list(dict.fromkeys(p for key in keys for p in ([key] if isinstance(key, str)
                                                               else key) if p not in self._cache))
        built, copies = {}, []

        def make(heads):
            shapes = {p: m.shape for p, m in self._cache.items() if isinstance(p, str)}
            shapes.update((p, self._matrix_shape(p, *head)) for p, head in zip(paths, heads))
            dests = {}
            # a path's own matrix first, then the stacks, each a stack of its paths
            for key in sorted(keys, key=lambda key: isinstance(key, tuple)):
                members = [key] if isinstance(key, str) else key
                cols = {shapes[p][1] for p in members}
                if len(cols) != 1:
                    raise ValueError(f"auxiliary matrices disagree on column count: "
                                     f"{sorted(cols)}")
                built[key], at = np.empty((sum(shapes[p][0] for p in members), cols.pop())), 0
                for p in members:
                    rows = built[key][at : at + shapes[p][0]]
                    at += len(rows)
                    if p in dests or p in self._cache:
                        copies.append((rows, p))
                    else:
                        dests[p] = rows
            return [dests[p] for p in paths]

        matrices = dict(zip(paths, (m for _, _, m in fio.read_into(paths, make=make))))
        for rows, p in copies:
            rows[...] = self._cache[p] if p in self._cache else matrices[p]
        for key in keys:
            built[key].flags.writeable = False
            self._cache[key] = built[key]

    def _matrix_shape(self, path: str, dims, mask) -> tuple[int, int]:
        """The shape of a tensor's matrix, checked against the masks read before."""
        A, B, T = dims
        for other, (other_T, other_mask) in self._masks.items():
            if mask is None and other_mask is None:
                continue
            span = min(T, other_T)
            diff = np.flatnonzero(_keeps(mask, span) != _keeps(other_mask, span))
            if diff.size:
                raise ValueError(f"{other} and {path} keep different time columns: original "
                                 f"time {diff[0]} is masked in one and kept in the other")
        self._masks[path] = (T, mask)
        return A * B, T if mask is None else int(np.count_nonzero(mask))

    def __call__(self, path) -> np.ndarray:
        self.read(path)
        return self._cache[str(path)]

    def aux(self, y_paths) -> np.ndarray:
        paths = _aux_paths(y_paths)
        self.read(paths)
        return self._cache[tuple(map(str, paths))]


def _keeps(mask, span: int) -> np.ndarray:
    """Which of the original times 0..span-1 a tensor's time mask keeps."""
    return np.ones(span, dtype=bool) if mask is None else mask[:span]


def _aux_paths(y_paths) -> list[str]:
    if isinstance(y_paths, str):
        y_paths = [y_paths]
    if not y_paths:
        raise ValueError("config needs at least one auxiliary tensor path under 'y'")
    return list(y_paths)


def _load_model(model_dir) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W, Wp and H from a model directory, checked against each other and,
    when the directory's ``report.json`` records a ``train_t``, H's length
    against it."""
    model_dir = Path(model_dir)
    for name in ("W.csv", "Wp.csv", "H.csv"):
        if not (model_dir / name).exists():
            raise FileNotFoundError(f"model file missing: {model_dir / name}")
    w = fio.read_matrix(model_dir / "W.csv")
    wp = fio.read_matrix(model_dir / "Wp.csv")
    h = fio.read_matrix(model_dir / "H.csv")
    r = w.shape[1]
    if wp.shape[1] != r:
        raise ValueError(f"{model_dir / 'Wp.csv'} has {wp.shape[1]} columns, but W.csv has {r}")
    if h.shape[0] != r:
        raise ValueError(f"{model_dir / 'H.csv'} has {h.shape[0]} rows, but W.csv has {r} columns")
    if (model_dir / "report.json").exists():
        config = fio.read_json(model_dir / "report.json")
        config = config.get("config") if isinstance(config, dict) else None
        train_t = config.get("train_t") if isinstance(config, dict) else None
        if train_t is not None and h.shape[1] != train_t:
            raise ValueError(f"{model_dir / 'H.csv'} has {h.shape[1]} columns, but "
                             f"{model_dir / 'report.json'} records train_t = {train_t}")
    return w, wp, h


def _median(values) -> float:
    """Median of a nonempty list of floats, equal to ``np.median``'s without
    the ``numpy.ma`` import (about 20 ms in a fresh process) it makes, or the
    ``fractions`` and ``decimal`` imports (about 6 ms) ``statistics`` makes."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence((master, index)).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = check_config("synth", load_config(args))
    spec = SyntheticSpec(cfg.d, cfg.T, tuple(cfg.freqs), cfg.sigma, cfg.x_sigma, cfg.seed)
    x, ys = gen_cosine_mixture(spec)
    # every tensor is built and checked before any file is written
    tensors = {"X": SpatioTemporalTensor(x[:, None, :])}
    tensors.update((f"Y{k}", SpatioTemporalTensor(y[:, None, :])) for k, y in enumerate(ys))
    out = Path(args.out)
    ext = "bin" if args.binary else "csv"
    for name, t in tensors.items():
        fio.write_tensor(out / f"{name}.{ext}", t, args.binary)
    fio.write_json(out / "provenance.json", {
        "format": "stf-provenance-v1",
        "command": "synth",
        "spec": vars(cfg),
    })
    log.info("wrote synthetic tensors to %s", out)
    return EXIT_OK


def _run_factorize_point(cfg, out: Path, load) -> float:
    x = load(cfg.x)
    y = load.aux(cfg.y)
    if cfg.train_t is not None:
        # the main tensor may span the full period; train on its head
        if cfg.train_t > x.shape[1]:
            raise ValueError(f"train_t={cfg.train_t} outside [1, {x.shape[1]}]")
        x = x[:, : cfg.train_t]
    hyper = Hyper(cfg.r, cfg.xi, penalty_from_dict(cfg.penalty), cfg.lambda1, cfg.lambda2)
    if hyper.penalty.kind == "hard_freq":
        model, report = ssnmf_hard(x, y, hyper, None, cfg.n_iters, seed=cfg.seed,
                                   sub_iters=cfg.sub_iters, priority=cfg.priority, tol=cfg.tol)
    else:
        model, report = ssnmf_bcd(x, y, hyper, cfg.n_iters, cfg.sub_iters, cfg.seed, tol=cfg.tol)
    fio.write_matrix(out / "W.csv", model.W)
    fio.write_matrix(out / "Wp.csv", model.Wp)
    fio.write_matrix(out / "H.csv", model.H)
    fio.write_json(out / "report.json", {
        "format": "stf-report-v1",
        "config": vars(cfg),
        "report": report.to_dict(),
    })
    return float(report.objective_trace[-1])


def _bind_worker(jobs: int):
    """A thread-pool initializer that binds each of ``jobs`` > 1 worker
    threads to its own CPU among those the process may run on (in turn,
    when there are more workers than CPUs); None for one worker, or where
    threads cannot be bound.  The calling thread stays unbound: a kernel that
    does not balance load would otherwise run every worker on one CPU."""
    if jobs < 2 or not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    turn = itertools.count()

    def bind():
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, [cpus[next(turn) % len(cpus)]])

    return bind


def cmd_factorize(args) -> int:
    cfg = _factorize_config(load_config(args))
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if cfg.grid is not None and not cfg.grid:
        raise ValueError("grid must be a nonempty list of override objects")
    out = Path(args.out)
    load = _MatrixLoader()
    if cfg.grid is None:
        load.read(cfg.x, _aux_paths(cfg.y))
        _run_factorize_point(cfg, out, load)
        return EXIT_OK

    # a point's own seed wins over the one derived from (seed, index)
    base = {k: v for k, v in vars(cfg).items() if k != "grid"}
    points = []
    for i, over in enumerate(cfg.grid):
        try:
            if "grid" in over:
                raise ValueError("a grid point cannot hold a nested 'grid'")
            points.append(_factorize_config({**base, "seed": _point_seed(cfg.seed, i), **over}))
        except ValueError as exc:
            raise ValueError(f"grid[{i}]: {exc}") from None
    # parse and stack every input here, in one round, so grid workers never
    # parse concurrently and share one copy of each matrix
    load.read(*[request for pcfg in points for request in (pcfg.x, _aux_paths(pcfg.y))])
    # every point's directory before any point writes
    for i in range(len(points)):
        (out / f"point_{i:03d}").mkdir(parents=True, exist_ok=True)

    def run(i, pcfg):
        return _run_factorize_point(pcfg, out / f"point_{i:03d}", load)

    with ThreadPoolExecutor(max_workers=args.jobs, initializer=_bind_worker(args.jobs)) as pool:
        objectives = list(pool.map(run, range(len(points)), points))
    median = _median(objectives)
    fio.write_json(out / "index.json", {
        "format": "stf-index-v1",
        "points": [
            {"dir": f"point_{i:03d}", "objective": objectives[i], "overrides": cfg.grid[i]}
            for i in range(len(points))
        ],
        "median_objective": median,
    })
    log.info("grid of %d points done, median objective %.6g", len(points), median)
    return EXIT_OK


def _mu_summary(h: np.ndarray) -> tuple[np.ndarray | None, float | None, int]:
    """Inverse usage ratios of H's nonzero rows: the whole matrix when every
    row is nonzero and every ratio finite (else None, as a file of them
    could not be read back), the median of its finite entries and the
    number of infinite ones."""
    live = np.abs(h).sum(axis=1) > 0
    if not live.any():
        return None, None, 0
    mu = inverse_usage_ratio(h[live])
    finite = mu[np.isfinite(mu)]
    med = _median(finite.tolist()) if finite.size else None
    whole = live.all() and finite.size == mu.size
    return (mu if whole else None), med, mu.size - finite.size


def _encode_inputs(args) -> types.SimpleNamespace:
    """The checked config, model (``w``, ``wp``, ``h_train``), stacked
    auxiliaries ``y_full``, truth matrix ``x_true`` (None without one),
    penalty and encode settings of a forecast or atom-scan.  A nonzero
    ``penalty.lambda``, which encoding ignores, logs one warning.

    The auxiliaries must have Wp's rows and the truth W's: a mismatch raises
    ValueError naming both files and both counts, before anything is
    encoded."""
    cfg = check_config("forecast", load_config(args))
    w, wp, h_train = _load_model(cfg.model)
    load = _MatrixLoader()
    load.read(_aux_paths(cfg.y), *([cfg.x_true] if cfg.x_true else []))
    y_full = load.aux(cfg.y)
    if y_full.shape[0] != wp.shape[0]:
        raise ValueError(f"{', '.join(_aux_paths(cfg.y))}: the auxiliary tensors stack to "
                         f"{y_full.shape[0]} rows, but {Path(cfg.model) / 'Wp.csv'} has "
                         f"{wp.shape[0]}")
    x_true = load(cfg.x_true) if cfg.x_true else None
    if x_true is not None and x_true.shape[0] != w.shape[0]:
        raise ValueError(f"{cfg.x_true}: the truth tensor has {x_true.shape[0]} rows, but "
                         f"{Path(cfg.model) / 'W.csv'} has {w.shape[0]}")
    penalty = _encode_penalty(cfg)
    if penalty.lam:
        log.warning("config field 'penalty.lambda' (%r) is ignored: encoding weighs its "
                    "penalty by 'lam_over_xi' (%r)", penalty.lam, cfg.lam_over_xi)
    return types.SimpleNamespace(cfg=cfg, w=w, wp=wp, h_train=h_train, y_full=y_full,
                                 x_true=x_true, penalty=penalty,
                                 enc=EncodeConfig(cfg.sweeps, cfg.sub_iters, cfg.seed))


def cmd_forecast(args) -> int:
    inp = _encode_inputs(args)
    cfg, w, y_full, x_true = inp.cfg, inp.w, inp.y_full, inp.x_true
    A = cfg.a if cfg.a is not None else w.shape[0]
    B = cfg.b if cfg.b is not None else 1
    if A * B != w.shape[0]:
        raise ValueError(f"a*b = {A * B} does not match dictionary rows {w.shape[0]}")
    T = inp.h_train.shape[1]
    if y_full.shape[1] <= T:
        raise ValueError(f"auxiliary period ({y_full.shape[1]}) does not extend past T={T}")
    # NSE scores two columns or more; without a truth one column is a forecast
    if x_true is not None and y_full.shape[1] <= T + 1:
        raise ValueError(f"auxiliary period ({y_full.shape[1]}) does not extend two columns "
                         f"past T={T}")
    if x_true is not None and x_true.shape[1] < y_full.shape[1]:
        raise ValueError(f"{cfg.x_true}: truth tensor shorter than auxiliary period "
                         f"({x_true.shape[1]} < {y_full.shape[1]} columns)")
    h_new_full, report = encode_new(y_full, inp.wp, inp.penalty, cfg.lam_over_xi, inp.enc)
    h_new = h_new_full[:, T:]
    score = None if x_true is None else nse(x_true[:, T : y_full.shape[1]], w @ h_new)
    pred = predict(w, h_new, A, B)

    out = Path(args.out)
    # every output directory before the first file
    (out / "pred").mkdir(parents=True, exist_ok=True)
    fio.write_matrix(out / "H_new_full.csv", h_new_full)
    fio.write_matrix(out / "H_new.csv", h_new)
    fio.write_slices(out / "pred", pred.values)
    mu, mu_median, mu_inf = _mu_summary(h_new_full)
    if mu is not None:
        fio.write_matrix(out / "mu.csv", mu)
    fio.write_json(out / "metrics.json", {
        "format": "stf-metrics-v1",
        "nse": score,
        "mu_median": mu_median,
        "mu_inf_count": mu_inf,
        "columns_predicted": int(h_new.shape[1]),
        "final_objective": float(report.objective_trace[-1]) if report.objective_trace else None,
    })
    log.info("forecast written to %s (nse=%s)", out, score)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    tensors = fio.read_tensors(dict.fromkeys([args.truth, args.pred]))
    truth_t, pred_t = tensors[0], tensors[-1]
    truth, pred = matricize(truth_t), matricize(pred_t)
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"{args.pred}: the prediction has {pred.shape[0]} rows, but "
                         f"{args.truth} has {truth.shape[0]}")
    offset = args.offset if args.offset is not None else truth.shape[1] - pred.shape[1]
    if offset < 0 or offset + pred.shape[1] > truth.shape[1]:
        raise ValueError(
            f"prediction ({pred.shape[1]} cols at offset {offset}) does not fit "
            f"inside truth ({truth.shape[1]} cols)"
        )
    # the prediction is a window at truth column ``offset``: its kept times
    # must step like the truth's there, or column k is scored at another time
    times = truth_t.kept_times()[offset : offset + pred.shape[1]]
    if not np.array_equal(np.diff(times), np.diff(pred_t.kept_times())):
        raise ValueError(f"{args.truth} and {args.pred} keep different time columns: the "
                         f"prediction's kept times do not match truth columns from {offset}")
    score = nse(truth[:, offset : offset + pred.shape[1]], pred)
    fio.write_json(Path(args.out) / "metrics.json", {
        "format": "stf-metrics-v1",
        "nse": score,
        "offset": int(offset),
        "columns_scored": int(pred.shape[1]),
    })
    print(f"nse={score!r}")
    return EXIT_OK


def cmd_atom_scan(args) -> int:
    inp = _encode_inputs(args)
    w = inp.w
    if inp.x_true is None:
        raise ValueError("atom-scan config needs 'x_true' (truth tensor path)")
    model = FactorModel(w, inp.wp, inp.h_train, Hyper(w.shape[1], 1.0, inp.penalty))
    entries = atom_removal_scan(model, inp.x_true, inp.y_full, inp.penalty,
                                inp.cfg.lam_over_xi, inp.enc)
    lines = [f"stf-scan-v1,{len(entries)}", "atom,nse_after,delta"]
    for e in entries:
        atom = "baseline" if e.atom is None else str(e.atom)
        lines.append(f"{atom},{e.nse_after!r},{e.delta!r}")
    scan = Path(args.out) / "scan.csv"
    fio.atomic_write_bytes(scan, ("\n".join(lines) + "\n").encode())
    log.info("atom scan written to %s", scan)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqfact",
        description="Supervised semi-nonnegative factorization with frequency regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False, binary=False):
        p.add_argument("--config", default=None, help="JSON config path; fields, types and defaults in "
                       "config_schema.json")
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed (overrides config)")
        p.add_argument("--out", required=True, help="output directory")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel grid workers")
        if binary:
            p.add_argument("--binary", action="store_true", help="emit binary tensors")

    p = sub.add_parser("synth", help="generate the synthetic cosine-mixture dataset")
    common(p, binary=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("factorize", help="fit the supervised factorization")
    common(p, jobs=True)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("forecast", help="encode auxiliary data, predict, and score")
    common(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="NSE of a prediction tensor against a truth tensor")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--offset", type=int, default=None,
                   help="column of truth where the prediction starts (default: right-aligned)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("atom-scan", help="score single-atom removals by forecast NSE")
    common(p)
    p.set_defaults(func=cmd_atom_scan)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("STF_LOG", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    if level not in _LOG_LEVELS:
        log.warning("unknown STF_LOG value %r, using 'warn'", level)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the empty path names the working directory
        for flag in ("config", "out", "truth", "pred"):
            if getattr(args, flag, None) == "":
                raise ValueError(f"--{flag} must be a nonempty path, got ''")
        return args.func(args)
    # LinAlgError and its subclasses are ValueErrors, so the numerical branch goes first
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"freqfact: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (TensorFormatError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, KeyError, TypeError, ValueError) as exc:
        print(f"freqfact: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
