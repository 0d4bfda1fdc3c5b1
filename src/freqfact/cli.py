"""Command-line front end.

Subcommands: synth | factorize | forecast | evaluate | atom-scan.
Common flags: --config PATH, --seed U64, --jobs N, --out DIR, --binary.
Logging level comes from the STF_LOG environment variable
(error|warn|info|debug).  Exit codes: 0 ok, 2 usage/input error,
3 numerical failure.

Config files are JSON; the shipped ``config_schema.json`` documents every
field and default.  All randomness descends from one 64-bit seed; each grid
point derives its own stream from (seed, point index), so adding a point
never perturbs the others.
"""

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import io as fio
from .exceptions import ConvergenceError, SingularGramError, SpectrumSymmetryError, TensorFormatError
from .forecast import EncodeConfig, atom_removal_scan, encode_new, nse, predict
from .regularization import Penalty
from .solvers import FactorModel, Hyper, ssnmf_bcd, ssnmf_hard
from .spectral import FrequencyMask, inverse_usage_ratio
from .synthetic import SyntheticSpec, gen_cosine_mixture
from .tensor import SpatioTemporalTensor, matricize, stack_auxiliary

log = logging.getLogger("freqfact")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# config plumbing


def penalty_to_dict(p: Penalty) -> dict:
    out = {"kind": p.kind, "lambda": p.lam}
    if p.R is not None:
        out["R"] = p.R
    if p.mask is not None:
        out["mask"] = {"T": p.mask.T, "kept": [list(row) for row in p.mask.kept]}
    return out


def penalty_from_dict(d: dict) -> Penalty:
    allowed = {"kind", "lambda", "R", "mask"}
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown penalty fields: {sorted(unknown)}")
    mask = None
    if d.get("mask") is not None:
        m = d["mask"]
        mask = FrequencyMask(int(m["T"]), tuple(tuple(int(k) for k in row) for row in m["kept"]))
    return Penalty(d["kind"], float(d.get("lambda", 0.0)), d.get("R"), mask)


def _from_dict(cls, d: dict):
    names = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(d) - names
    if unknown:
        raise ValueError(f"unknown config fields for {cls.__name__}: {sorted(unknown)}")
    return cls(**d)


@dataclass(frozen=True)
class FactorizeConfig:
    x: str = ""
    y: list[str] | str = ""
    r: int = 2
    xi: float = 1.0
    penalty: dict = field(default_factory=lambda: {"kind": "ridge", "lambda": 0.0})
    n_iters: int = 20
    sub_iters: int = 50
    seed: int = 0
    variant: str = "bcd"
    R: int | None = None
    priority: str = "nonneg"
    lambda1: float = 0.0
    lambda2: float = 0.0
    tol: float | None = None
    train_t: int | None = None
    grid: list[dict] | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FactorizeConfig":
        return _from_dict(cls, d)


@dataclass(frozen=True)
class ForecastConfig:
    model: str = ""
    y: list[str] | str = ""
    x_true: str | None = None
    penalty: dict = field(default_factory=lambda: {"kind": "ridge", "lambda": 0.0})
    lam_over_xi: float = 0.0
    sweeps: int = 60
    sub_iters: int = 50
    seed: int = 0
    variant: str | None = None
    R: int | None = None
    a: int | None = None
    b: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ForecastConfig":
        return _from_dict(cls, d)


@dataclass(frozen=True)
class SynthConfig:
    d: int = 16
    T: int = 163
    freqs: list[int] = field(default_factory=lambda: [14, 6])
    sigma: float = 1.0
    x_sigma: float = 1.0
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        return _from_dict(cls, d)


def load_config(path, cls, overrides: dict | None = None):
    data = fio.read_json(path) if path else {}
    if overrides:
        data = {**data, **overrides}
    return cls.from_dict(data)


# ---------------------------------------------------------------------------
# shared helpers


class _MatrixLoader:
    """Matricized tensors by path, and stacked auxiliaries by path list, each
    built on first use and shared, read-only, by later uses.

    ``load(path)`` returns one tensor's matrix; ``load.aux(paths)`` the
    vertical stack of the auxiliaries at ``paths`` (one path or a list).
    Only the stack is kept: an auxiliary's own matrix is cached only if
    ``load(path)`` asked for it.

    Matrix column k is the k-th time a tensor's mask keeps, so each tensor
    read is checked against those before it: two whose masks differ over the
    span they share raise ValueError naming both.  Only masks are kept, so
    unmasked inputs allocate nothing for the check between large parses.
    """

    def __init__(self):
        self._cache: dict = {}
        self._masks: dict = {}

    def _memo(self, key, build) -> np.ndarray:
        if key not in self._cache:
            m = build()
            m.flags.writeable = False
            self._cache[key] = m
        return self._cache[key]

    def _read(self, path) -> np.ndarray:
        t = fio.read_tensor(path)
        T, mask = t.dims[2], t.time_mask
        for other, (other_T, other_mask) in self._masks.items():
            if mask is None and other_mask is None:
                continue
            span = min(T, other_T)
            diff = np.flatnonzero(_keeps(mask, span) != _keeps(other_mask, span))
            if diff.size:
                raise ValueError(f"{other} and {path} keep different time columns: original "
                                 f"time {diff[0]} is masked in one and kept in the other")
        self._masks[str(path)] = (T, mask)
        return matricize(t)

    def __call__(self, path) -> np.ndarray:
        return self._memo(str(path), lambda: self._read(path))

    def aux(self, y_paths) -> np.ndarray:
        paths = tuple(str(p) for p in _aux_paths(y_paths))
        return self._memo(paths, lambda: stack_auxiliary([
            self._cache[p] if p in self._cache else self._read(p) for p in paths
        ]))


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
    model_dir = Path(model_dir)
    for name in ("W.csv", "Wp.csv", "H.csv"):
        if not (model_dir / name).exists():
            raise FileNotFoundError(f"model file missing: {model_dir / name}")
    return (
        fio.read_matrix(model_dir / "W.csv"),
        fio.read_matrix(model_dir / "Wp.csv"),
        fio.read_matrix(model_dir / "H.csv"),
    )


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence((master, index)).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, SynthConfig, overrides)
    spec = SyntheticSpec(cfg.d, cfg.T, tuple(cfg.freqs), cfg.sigma, cfg.x_sigma, cfg.seed)
    x, ys = gen_cosine_mixture(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ext = "bin" if args.binary else "csv"
    fio.write_tensor(out / f"X.{ext}", SpatioTemporalTensor(x[:, None, :]), args.binary)
    for k, y in enumerate(ys):
        fio.write_tensor(out / f"Y{k}.{ext}", SpatioTemporalTensor(y[:, None, :]), args.binary)
    fio.write_json(out / "provenance.json", {
        "format": "stf-provenance-v1",
        "command": "synth",
        "spec": cfg.to_dict(),
    })
    log.info("wrote synthetic tensors to %s", out)
    return EXIT_OK


def _run_factorize_point(cfg: FactorizeConfig, out: Path, load) -> float:
    x = load(cfg.x)
    y = load.aux(cfg.y)
    if cfg.train_t is not None:
        # the main tensor may span the full period; train on its head
        if not 1 <= cfg.train_t <= x.shape[1]:
            raise ValueError(f"train_t={cfg.train_t} outside [1, {x.shape[1]}]")
        x = x[:, : cfg.train_t]
    hyper = Hyper(cfg.r, cfg.xi, penalty_from_dict(cfg.penalty), cfg.lambda1, cfg.lambda2)
    if cfg.variant == "bcd":
        model, report = ssnmf_bcd(x, y, hyper, cfg.n_iters, cfg.sub_iters, cfg.seed, tol=cfg.tol)
    elif cfg.variant == "hard":
        model, report = ssnmf_hard(x, y, hyper, cfg.R, cfg.n_iters, variant=None, seed=cfg.seed,
                                   sub_iters=cfg.sub_iters, priority=cfg.priority, tol=cfg.tol)
    else:
        raise ValueError(f"unknown variant {cfg.variant!r}, expected 'bcd' or 'hard'")
    out.mkdir(parents=True, exist_ok=True)
    fio.write_matrix(out / "W.csv", model.W)
    fio.write_matrix(out / "Wp.csv", model.Wp)
    fio.write_matrix(out / "H.csv", model.H)
    fio.write_json(out / "report.json", {
        "format": "stf-report-v1",
        "config": cfg.to_dict(),
        "report": report.to_dict(),
    })
    return float(report.objective_trace[-1])


def cmd_factorize(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, FactorizeConfig, overrides)
    if not cfg.x:
        raise ValueError("factorize config needs an 'x' tensor path")
    if cfg.grid is not None and not cfg.grid:
        raise ValueError("grid must be a nonempty list of override objects")
    out = Path(args.out)
    load = _MatrixLoader()
    if cfg.grid is None:
        _run_factorize_point(cfg, out, load)
        return EXIT_OK

    base = {k: v for k, v in cfg.to_dict().items() if k != "grid"}
    points = []
    for i, over in enumerate(cfg.grid):
        merged = {**base, **over}
        if "seed" not in over:
            merged["seed"] = _point_seed(cfg.seed, i)
        points.append(FactorizeConfig.from_dict(merged))
    # parse and stack every input here, once, so grid workers never parse
    # concurrently and share one copy of each matrix
    for pcfg in points:
        load(pcfg.x)
        load.aux(pcfg.y)

    def run(pair):
        i, pcfg = pair
        return i, _run_factorize_point(pcfg, out / f"point_{i:03d}", load)

    results = {}
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            for i, obj in pool.map(run, enumerate(points)):
                results[i] = obj
    else:
        for pair in enumerate(points):
            i, obj = run(pair)
            results[i] = obj
    objectives = [results[i] for i in range(len(points))]
    fio.write_json(out / "index.json", {
        "format": "stf-index-v1",
        "points": [
            {"dir": f"point_{i:03d}", "objective": objectives[i], "overrides": cfg.grid[i]}
            for i in range(len(points))
        ],
        "median_objective": float(np.median(objectives)),
    })
    log.info("grid of %d points done, median objective %.6g", len(points), np.median(objectives))
    return EXIT_OK


def _mu_summary(h: np.ndarray) -> tuple[np.ndarray | None, float | None, int]:
    """Inverse usage ratios of H's nonzero rows: the whole matrix when every
    row is nonzero (else None), the median of its finite entries and the
    number of infinite ones."""
    live = np.abs(h).sum(axis=1) > 0
    if not live.any():
        return None, None, 0
    mu = inverse_usage_ratio(h[live])
    finite = mu[np.isfinite(mu)]
    med = float(np.median(finite)) if finite.size else None
    return (mu if live.all() else None), med, int(np.sum(~np.isfinite(mu)))


def cmd_forecast(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, ForecastConfig, overrides)
    w, wp, h_train = _load_model(cfg.model)
    load = _MatrixLoader()
    y_full = load.aux(cfg.y)
    T = h_train.shape[1]
    penalty = penalty_from_dict(cfg.penalty)
    enc = EncodeConfig(cfg.sweeps, cfg.sub_iters, cfg.seed, cfg.variant, cfg.R)
    h_new_full, report = encode_new(y_full, wp, penalty, cfg.lam_over_xi, enc)
    h_new = h_new_full[:, T:]
    if h_new.shape[1] == 0:
        raise ValueError(f"auxiliary period ({y_full.shape[1]}) does not extend past T={T}")

    A = cfg.a if cfg.a is not None else w.shape[0]
    B = cfg.b if cfg.b is not None else 1
    if A * B != w.shape[0]:
        raise ValueError(f"a*b = {A * B} does not match dictionary rows {w.shape[0]}")

    score = None
    if cfg.x_true:
        x_true = load(cfg.x_true)
        if x_true.shape[1] < y_full.shape[1]:
            raise ValueError("truth tensor shorter than auxiliary period")
        score = nse(x_true[:, T : y_full.shape[1]], w @ h_new)
    pred = predict(w, h_new, A, B)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fio.write_matrix(out / "H_new_full.csv", h_new_full)
    fio.write_matrix(out / "H_new.csv", h_new)
    slice_dir = out / "pred"
    slice_dir.mkdir(exist_ok=True)
    for k in range(pred.dims[2]):
        fio.write_slice(slice_dir / f"slice_{k:04d}.csv", pred.values[:, :, k], k)
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
    truth_t = fio.read_tensor(args.truth)
    pred_t = truth_t if args.pred == args.truth else fio.read_tensor(args.pred)
    truth, pred = matricize(truth_t), matricize(pred_t)
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fio.write_json(out / "metrics.json", {
        "format": "stf-metrics-v1",
        "nse": score,
        "offset": int(offset),
        "columns_scored": int(pred.shape[1]),
    })
    print(f"nse={score!r}")
    return EXIT_OK


def cmd_atom_scan(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, ForecastConfig, overrides)
    if not cfg.x_true:
        raise ValueError("atom-scan config needs 'x_true' (truth tensor path)")
    w, wp, h_train = _load_model(cfg.model)
    if w.shape[1] < 2:
        raise ValueError("model has a single atom; nothing to remove")
    load = _MatrixLoader()
    y_full = load.aux(cfg.y)
    x_true = load(cfg.x_true)
    penalty = penalty_from_dict(cfg.penalty)
    hyper = Hyper(w.shape[1], 1.0, penalty)
    model = FactorModel(w, wp, h_train, hyper)
    enc = EncodeConfig(cfg.sweeps, cfg.sub_iters, cfg.seed, cfg.variant, cfg.R)
    entries = atom_removal_scan(model, x_true, y_full, penalty, cfg.lam_over_xi, enc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"stf-scan-v1,{len(entries)}", "atom,nse_after,delta"]
    for e in entries:
        atom = "baseline" if e.atom is None else str(e.atom)
        lines.append(f"{atom},{e.nse_after!r},{e.delta!r}")
    fio.atomic_write_bytes(out / "scan.csv", ("\n".join(lines) + "\n").encode())
    log.info("atom scan written to %s", out / "scan.csv")
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
        p.add_argument("--config", default=None, help="JSON config path (see config_schema.json)")
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed (overrides config)")
        p.add_argument("--out", required=True, help="output directory")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel grid workers")
        if binary:
            p.add_argument("--binary", action="store_true", help="emit binary tensors")

    p = sub.add_parser("synth", help="generate the synthetic cosine-mixture dataset")
    common(p, binary=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("factorize", help="fit the supervised factorization (bcd or hard variant)")
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
        return args.func(args)
    # LinAlgError subclasses ValueError, so the numerical branch goes first
    except (SingularGramError, SpectrumSymmetryError, ConvergenceError,
            np.linalg.LinAlgError) as exc:
        print(f"freqfact: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (TensorFormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"freqfact: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
