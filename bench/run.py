"""Benchmark of the freqfact pipeline: synth -> factorize -> forecast [-> atom-scan].

Run from the repository root:

    python3 bench/run.py --workload soft_forecast --seed 1 --seconds 20 --trace 0

The benchmark drives ``freqfact`` from ``src/`` through its public entry
point ``freqfact.cli.main``.  ``--trace 0`` reports the end-to-end metrics:
the run first sets up several times (a fresh interpreter imports the package
and ``synth`` writes the inputs from ``--seed``), then repeats the workload's
subcommands until ``--seconds`` have passed, checking every repeat's
outputs.  Each subcommand runs in a fresh interpreter, as a user's command
does: in one long-lived process the allocator's state after earlier
subcommands changes later ones' page faults and times.  Times are scaled to
a reference host speed (see ``Reference``) and reported as medians over the
repeats.  BLAS is fixed to one thread, so the grid's ``--jobs 2`` stays
within two cores.  The stage times ``factorize_s``, ``forecast_s`` and
``atom_scan_s`` are printed and recorded but not in the result line: a
fresh ``forecast`` on ``hard_scan`` takes about 850 or about 72,000 page
faults depending on the input, so its time differs by 1.6x between seeds.

``--trace 1`` runs in one process: it alternates untraced and traced
repeats and reports per-layer metrics from the traced ones (see
``spans.py``).  The traced outputs must match the untraced ones byte for
byte, the span counts must repeat exactly, and the subcommand entry points
must be called as often as the configs imply.

Working files go to ``.bench_work/<workload>/``; the full record of a run
(machine, fingerprint, checks, per-repeat times, span table) is written to
``.bench_work/<workload>/record.json``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import functools
import gc
import hashlib
import json
import math
import mmap
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Set-ups and pipeline repeats: each at least this many times, and set-ups
# until SETUP_SECONDS have passed (a small workload's set-up is short and
# noisy; a large one's is long).
MIN_REPEATS = 3
SETUP_SECONDS = 3.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("forecast_nse", "ratio"),
    ("peak_rss_mb", "MB"),
]
STAGE_TIMES = [("factorize_s", "s"), ("forecast_s", "s"), ("atom_scan_s", "s")]

# Per-layer metrics.  "<span>.<field>" reads a span table field: inclusive
# seconds (s), self seconds (self_s), exact calls, exact bytes.
PER_LAYER = [
    ("solvers.solve_H_pgd.s", "s"),
    ("solvers.solve_H_pgd.self_s", "s"),
    ("solvers.solve_H_pgd.calls", "count"),
    ("solvers.objective.s", "s"),
    ("solvers.solve_W.s", "s"),
    ("solvers.solve_W.calls", "count"),
    ("solvers.alternating_pgd.self_s", "s"),
    ("solvers.alternating_pgd.calls", "count"),
    ("solvers.ssnmf_bcd.self_s", "s"),
    ("solvers.ssnmf_hard.self_s", "s"),
    ("forecast.encode_new.s", "s"),
    ("forecast.encode_new.calls", "count"),
    ("forecast.atom_removal_scan.self_s", "s"),
    ("spectral.top_r_indices.s", "s"),
    ("spectral.top_r_indices.calls", "count"),
    ("spectral.FrequencyMask.from_top_r.s", "s"),
    ("spectral.FrequencyMask.to_bool.s", "s"),
    ("spectral.FrequencyMask.to_bool.calls", "count"),
    ("spectral.project_frequency_mask.s", "s"),
    ("spectral.project_frequency_mask.calls", "count"),
    ("spectral.offmask_ratio.s", "s"),
    ("spectral.offmask_ratio.calls", "count"),
    ("spectral.dft_rows.s", "s"),
    ("spectral.dft_rows.calls", "count"),
    ("spectral.minkowski_subgradient.s", "s"),
    ("spectral.fft_calls", "count"),
    ("spectral.fft_points", "count"),
    ("regularization.penalty_value.s", "s"),
    ("regularization.penalty_value.calls", "count"),
    ("regularization.penalty_subgradient.s", "s"),
    ("regularization.penalty_subgradient.calls", "count"),
    ("io.read_tensor.s", "s"),
    ("io.read_tensor.calls", "count"),
    ("io.read_tensor.bytes", "bytes"),
    ("io.read_matrix.s", "s"),
    ("io.write_matrix.s", "s"),
    ("io.atomic_write_bytes.s", "s"),
    ("io.atomic_write_bytes.bytes", "bytes"),
    ("io.write_tensor.s", "s"),
    ("synthetic.gen_cosine_mixture.s", "s"),
    ("tensor.supervised_stack.s", "s"),
    ("tensor.supervised_stack.calls", "count"),
    ("tensor.matricize.s", "s"),
    ("cli.factorize.s", "s"),
    ("cli.factorize.self_s", "s"),
    ("cli.forecast.s", "s"),
    ("cli.forecast.self_s", "s"),
    ("cli.atom_scan.s", "s"),
    ("cli.grid.concurrency", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

# Layer metrics measured on the traced synth of the set-up, not the pipeline.
SETUP_LAYER_SPANS = ("synthetic.gen_cosine_mixture", "io.write_tensor")
# Exact counts: taken from the first traced repeat and checked to repeat.
COUNT_UNITS = ("count", "bytes")
# Spans whose call counts only a broken tracer could change: checked exactly.
TRACER_SPANS = ("cli.factorize", "cli.factorize_point", "cli.forecast", "cli.atom_scan")


class Checks:
    """Counts operations (CLI calls and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


# ---------------------------------------------------------------------------
# machine record


def machine_record(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class Reference:
    """A fixed job, timed next to every timed stage, that measures how fast
    the host runs at that moment.

    On a shared virtual machine the same code runs up to 1.8 times slower
    for tens of seconds at a time, in CPU time as much as in wall time, so
    raw wall times of runs made minutes apart are not comparable.  The job
    runs before and after every timed stage, and each stage's wall time is
    scaled by ``REF_S`` over the mean of the two: seconds at the speed the
    host had when ``REF_S`` was measured.  Reported times are medians of
    the scaled times; the raw wall times are recorded next to them.

    The job mixes the kinds of work the pipeline does (small numpy array
    operations and FFTs, a BLAS product, float parsing and formatting, and
    faulting in fresh pages, as the solvers' large numpy temporaries do) and
    uses none of freqfact's code, so a change to the program moves the
    scaled times as it moves the wall times.  Its fresh pages come from
    mmap directly and its arrays stay below glibc's smallest mmap threshold
    (128 KiB), so its time does not depend on the allocator's state.
    """

    # median of seconds() on a 2-vCPU Intel Xeon VM, numpy 2.4 with OpenBLAS
    REF_S = 0.0150
    PASSES = 3

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((32, 128))
        self.b = rng.random((128, 32))
        self.tall = rng.random((768, 512))
        self.thin = rng.random((512, 8))
        self.text = [repr(float(v)) for v in rng.random(2000)]

    def _job(self) -> None:
        np = self.np
        for _ in range(40):
            np.fft.rfft(self.a, axis=1)
            np.argpartition(self.a @ self.b, -3, axis=1)
            np.maximum(self.a - 0.5, 0.0).sum()
        self.tall @ self.thin
        ",".join(repr(float(v)) for v in self.text)
        for _ in range(8):
            with mmap.mmap(-1, 1 << 20) as buf:
                pages = np.frombuffer(buf, dtype=np.float64)
                pages.fill(1.0)
                pages.sum()
                del pages

    def seconds(self) -> float:
        """Median time of a few passes of the job."""
        times = []
        for _ in range(self.PASSES):
            t0 = perf_counter()
            self._job()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def scale(self, wall_s: float, before: float, after: float) -> float:
        return wall_s * self.REF_S * 2 / (before + after)


# ---------------------------------------------------------------------------
# files


def digest_dir(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_matrix_text(path: Path):
    """Parse an stf-matrix-v1 file independently of freqfact.io."""
    import numpy as np

    lines = path.read_text().splitlines()
    rows, cols = (int(v) for v in lines[0].split(",")[1:])
    m = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:] if ln.strip()])
    return m.reshape(rows, cols)


# ---------------------------------------------------------------------------
# set-up and pipeline


class Paths:
    def __init__(self, work: Path, wl):
        ext = "bin" if wl.binary else "csv"
        self.work = work
        self.data = work / "data"
        self.x = self.data / f"X.{ext}"
        self.y = [self.data / f"Y{k}.{ext}" for k in range(len(wl.synth["freqs"]))]
        self.synth_cfg = work / "synth.json"
        self.fact_cfg = work / "factorize.json"
        self.fc_cfg = work / "forecast.json"
        self.out = work / "out"
        self.model = self.out / "model"
        self.model_used = self.model / wl.model_subdir if wl.model_subdir else self.model
        self.pred = self.out / "pred"
        self.scan = self.out / "scan"


def write_configs(wl, paths: Paths) -> None:
    write_json(paths.synth_cfg, wl.synth)
    ys = [str(p) for p in paths.y]
    write_json(paths.fact_cfg, {**wl.factorize, "x": str(paths.x), "y": ys})
    write_json(paths.fc_cfg, {**wl.forecast, "model": str(paths.model_used), "y": ys,
                              "x_true": str(paths.x)})


# Runs one subcommand in a fresh interpreter: argv[1] is the source root,
# argv[2] the subcommand's argv as JSON.  The last line of its output is a
# JSON object with the exit code, the import and run seconds, and the minor
# page faults and peak RSS of the process.
FRESH_CHILD = """
import json, resource, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import freqfact.cli as cli
t1 = time.perf_counter()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
try:
    rc = cli.main(json.loads(sys.argv[2]))
except SystemExit as exc:
    rc = exc.code
t2 = time.perf_counter()
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"rc": rc, "import_s": t1 - t0, "run_s": t2 - t1,
                  "minor_faults": usage.ru_minflt - faults,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}))
"""


def call_fresh(src: Path, argv, checks: Checks) -> tuple[bool, float, dict]:
    """Run one subcommand through ``freqfact.cli.main`` in a fresh
    interpreter, as a user's shell does; returns (exited 0, seconds in
    ``main``, the child's import seconds, minor faults and peak RSS)."""
    proc = subprocess.run([sys.executable, "-c", FRESH_CHILD, str(src), json.dumps(argv)],
                          capture_output=True, text=True, timeout=170)
    try:
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        rc = info.pop("rc")
    except (IndexError, ValueError, KeyError):  # a raw traceback is a failed call
        info, rc = {}, f"{proc.returncode} without a result"
    if rc != 0:
        sys.stderr.write(proc.stderr)
    return checks.expect(rc == 0, f"{argv[0]} exited {rc}"), info.pop("run_s", math.nan), info


def call_cli(cli, argv, checks: Checks) -> tuple[bool, float, dict]:
    """Run one subcommand in this process; returns (exited 0, seconds, {})."""
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a raw traceback is a failed call, not a benchmark crash
        traceback.print_exc()
        rc = "a traceback"
    elapsed = perf_counter() - t0
    return checks.expect(rc == 0, f"{argv[0]} exited {rc}"), elapsed, {}


def synth_argv(wl, seed: int, paths: Paths, out: Path) -> list:
    shutil.rmtree(out, ignore_errors=True)
    argv = ["synth", "--config", str(paths.synth_cfg), "--out", str(out), "--seed", str(seed)]
    return argv + ["--binary"] if wl.binary else argv


def run_pipeline(wl, paths: Paths, checks: Checks, call, ref=None) -> dict:
    """One repeat of the workload's subcommands, each run by ``call(argv)``.

    Returns per-stage wall seconds (``wall``), the same at the reference
    speed when ``ref`` is given (``times``; else equal to ``wall``), what
    the calls reported, output digests and the quality fingerprint.
    """
    shutil.rmtree(paths.out, ignore_errors=True)
    stages = [
        ("factorize", ["factorize", "--config", str(paths.fact_cfg), "--out", str(paths.model),
                       "--jobs", str(wl.jobs)]),
        ("forecast", ["forecast", "--config", str(paths.fc_cfg), "--out", str(paths.pred)]),
    ]
    if wl.atom_scan:
        stages.append(("atom_scan", ["atom-scan", "--config", str(paths.fc_cfg),
                                     "--out", str(paths.scan)]))
    wall, times, info = {}, {}, {}
    gc.collect()
    before = ref.seconds() if ref else None
    for stage, argv in stages:
        ok, wall[stage], info[stage] = call(argv)
        after = ref.seconds() if ref else None
        times[stage] = ref.scale(wall[stage], before, after) if ref else wall[stage]
        before = after
        if not ok:
            break
    return {"times": times, "pipeline_s": sum(times.values()), "wall": wall, "info": info,
            "digests": digest_dir(paths.out) if paths.out.exists() else {},
            "fingerprint": check_outputs(wl, paths, checks)}


def check_outputs(wl, paths: Paths, checks: Checks) -> dict:
    """Output checks of one repeat; returns the quality fingerprint."""
    import numpy as np

    fp = {}
    model_dirs = sorted(p.parent for p in paths.model.rglob("H.csv"))
    points = len(wl.factorize.get("grid") or [None])
    checks.expect(len(model_dirs) == points, f"{len(model_dirs)} model dirs, expected {points}")
    objectives = []
    for d in model_dirs:
        try:
            w, wp, h = (read_matrix_text(d / n) for n in ("W.csv", "Wp.csv", "H.csv"))
            ok = bool(np.all(np.isfinite(w)) and np.all(np.isfinite(wp))
                      and np.all(np.isfinite(h)) and np.all(h >= 0))
            report = json.loads((d / "report.json").read_text())
            objectives.append(report["report"]["objective_trace"][-1])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok = False
            print(f"{d}: {exc}", file=sys.stderr)
        checks.expect(ok, f"{d.name}: W, Wp, H finite and H >= 0")
    fp["final_objective"] = objectives

    try:
        metrics = json.loads((paths.pred / "metrics.json").read_text())
        n_slices = len(list((paths.pred / "pred").glob("slice_*.csv")))
    except (OSError, ValueError):
        metrics, n_slices = {}, -1
    checks.expect(n_slices == metrics.get("columns_predicted"),
                  f"{n_slices} slices, columns_predicted={metrics.get('columns_predicted')}")
    score = metrics.get("nse")
    checks.expect(isinstance(score, float) and math.isfinite(score), f"forecast nse {score!r}")
    fp["nse"] = score

    if wl.atom_scan:
        try:
            rows = (paths.scan / "scan.csv").read_text().splitlines()[2:]
            entries = [(a, float(v)) for a, v, _ in (r.split(",") for r in rows)]
        except (OSError, ValueError):
            entries = []
        ranked = [v for a, v in entries[1:]]
        checks.expect(len(entries) == wl.factorize["r"] + 1 and entries[0][0] == "baseline"
                      and ranked == sorted(ranked, reverse=True),
                      "scan.csv: baseline first, then every atom by descending NSE")
        # the scan's baseline re-runs the forecast's encode with the same seed
        checks.expect(bool(entries) and entries[0][1] == score,
                      "scan baseline NSE equals the forecast NSE")
        fp["atom_scan_ranking"] = [a for a, _ in entries[1:]]
    return fp


# ---------------------------------------------------------------------------
# metrics


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(setups, reps) -> dict:
    """End-to-end metrics from the set-ups and repeats of one run."""
    out = {
        "setup_s": median([x["setup_s"] for x in setups]),
        "pipeline_s": median([r["pipeline_s"] for r in reps]),
        "factorize_s": median([r["times"].get("factorize", math.nan) for r in reps]),
        "forecast_s": median([r["times"].get("forecast", math.nan) for r in reps]),
        "forecast_nse": reps[-1]["fingerprint"]["nse"],
        "peak_rss_mb": max(i.get("peak_rss_mb", math.nan) for r in reps for i in r["info"].values()),
    }
    if "atom_scan" in reps[-1]["times"]:
        out["atom_scan_s"] = median([r["times"]["atom_scan"] for r in reps])
    return out


def layer_values(tracer, spans_mod, setup_table: dict) -> tuple[dict, dict]:
    """Collect one traced repeat: its value of every per-layer metric except
    the tracing overhead, and the exact call and byte counts of every span."""
    spans, fft_calls, fft_points = tracer.collect()
    table = spans_mod.aggregate(spans)
    extra = {"spectral.fft_calls": fft_calls, "spectral.fft_points": fft_points,
             "cli.grid.concurrency": spans_mod.grid_concurrency(spans),
             "trace.spans": len(spans)}
    values = {}
    for name, _unit in PER_LAYER:
        if name in extra:
            values[name] = extra[name]
        elif name != "trace.overhead_s":
            span, fld = name.rsplit(".", 1)
            src = setup_table if span in SETUP_LAYER_SPANS else table
            values[name] = src.get(span, {}).get(fld, 0)
    counts = {f"{k}.{f}": v[f] for k, v in table.items() for f in ("calls", "bytes")}
    counts.update(fft_calls=fft_calls, fft_points=fft_points)
    return values, counts


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread, so the grid's --jobs 2 stays within two cores
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    src = root / "src"
    if not (src / "freqfact" / "cli.py").is_file():
        print(f"bench: no freqfact sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    bench_dir = Path(__file__).resolve().parent
    sys.path[:0] = [str(src), str(bench_dir)]

    from workloads import LAYER_MAP, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    import numpy as np

    import freqfact.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "freqfact").resolve():
        print(f"bench: imported freqfact from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    work = root / ".bench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = Paths(work, wl)
    write_configs(wl, paths)
    checks = Checks()
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(np),
              "layer_map": LAYER_MAP}

    if args.trace:
        metrics = traced_run(cli, wl, args, paths, checks, record)
        units = dict(PER_LAYER)
    else:
        metrics = untraced_run(wl, args, src, paths, checks, record)
        units = dict(END_TO_END + STAGE_TIMES)

    record["failures"] = checks.failures
    record["attempted"] = checks.attempted
    record["failed_ops_frac"] = len(checks.failures) / max(checks.attempted, 1)
    write_json(work / "record.json", record)
    shutil.rmtree(paths.out, ignore_errors=True)
    shutil.rmtree(paths.data, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{wl.name} {name} = {value!r} {units[name]}")
    print(f"{wl.name} failed_ops_frac = {record['failed_ops_frac']!r} "
          f"({len(checks.failures)} of {checks.attempted})")
    print(f"{wl.name} timings are medians over samples {record['samples']}")
    names = [n for n, _ in (PER_LAYER if args.trace else END_TO_END)]
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures),
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names}}
    print(json.dumps(result))
    return 0 if not checks.failures else 1


def untraced_run(wl, args, src, paths, checks, record) -> dict:
    """Set up and repeat the pipeline, each subcommand in a fresh
    interpreter, so every stage starts from the allocator and import state a
    user's command starts from."""
    import numpy as np

    ref = Reference(np)
    call = functools.partial(call_fresh, src, checks=checks)
    setups, setup_digests = [], []
    t_end = perf_counter() + SETUP_SECONDS
    while len(setups) < MIN_REPEATS or perf_counter() < t_end:
        argv = synth_argv(wl, args.seed, paths, paths.data)
        before = ref.seconds()
        _ok, synth_s, info = call(argv)
        wall = info.get("import_s", math.nan) + synth_s
        setups.append({"wall_s": wall, "setup_s": ref.scale(wall, before, ref.seconds()), **info})
        setup_digests.append(digest_dir(paths.data))
    checks.expect(all(d == setup_digests[0] for d in setup_digests),
                  "synth outputs byte-identical across set-ups")

    reps = []
    t_end = perf_counter() + args.seconds
    while len(reps) < MIN_REPEATS or perf_counter() < t_end:
        reps.append(run_pipeline(wl, paths, checks, call, ref))
        checks.expect(reps[-1]["digests"] == reps[0]["digests"],
                      f"repeat {len(reps)}: outputs byte-identical to repeat 1")
    metrics = end_to_end(setups, reps)
    unscaled = {"setup_s": median([x["wall_s"] for x in setups]),
                "pipeline_s": median([sum(r["wall"].values()) for r in reps])}
    print(f"{wl.name} wall times before scaling to the reference speed: "
          + ", ".join(f"{k} = {v!r} s" for k, v in unscaled.items()))
    record.update({
        "setups": setups,
        "repeats": [{k: r[k] for k in ("times", "wall", "info")} for r in reps],
        "unscaled": unscaled,
        "samples": {"setup": len(setups), "pipeline": len(reps)},
        "fingerprint": reps[-1]["fingerprint"],
        "metrics": metrics,
    })
    return metrics


def traced_run(cli, wl, args, paths, checks, record) -> dict:
    import spans as spans_mod

    tracer = spans_mod.Tracer()
    traced_data = paths.work / "data_traced"
    call = functools.partial(call_cli, cli, checks=checks)
    call(synth_argv(wl, args.seed, paths, paths.data))
    argv = synth_argv(wl, args.seed, paths, traced_data)
    tracer.install()
    try:
        call(argv)
    finally:
        tracer.uninstall()
    setup_table = spans_mod.aggregate(tracer.collect()[0])
    checks.expect(digest_dir(traced_data) == digest_dir(paths.data),
                  "traced synth outputs byte-identical to untraced")
    shutil.rmtree(traced_data)

    # an untimed warm-up, so the first untraced repeat does not carry numpy's
    # lazy set-up into the tracing overhead
    warm = run_pipeline(wl, paths, checks, call)
    pairs = []
    t_end = perf_counter() + args.seconds
    while not pairs or perf_counter() < t_end:
        plain = run_pipeline(wl, paths, checks, call)
        tracer.install()
        try:
            traced = run_pipeline(wl, paths, checks, call)
        finally:
            tracer.uninstall()
        values, counts = layer_values(tracer, spans_mod, setup_table)
        values["trace.overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
        pairs.append((plain["pipeline_s"], traced["pipeline_s"], values, counts))
        n = len(pairs)
        checks.expect(traced["digests"] == warm["digests"] == plain["digests"],
                      f"pair {n}: traced outputs byte-identical to untraced")
        checks.expect(counts == pairs[0][3], f"pair {n}: span counts repeat exactly")

    # Config-implied call counts.  The subcommand entry points and the grid's
    # per-point body change only if the tracer lost a binding, so they are
    # checks; the solver-level counts are reported, not gated, because a later
    # change may legitimately restructure the functions they count.
    counts = pairs[0][3]
    mismatches = []
    for span, want in wl.expected_calls.items():
        got = counts.get(f"{span}.calls", 0)
        if span in TRACER_SPANS:
            checks.expect(got == want, f"{span}.calls = {got}, config implies {want}")
        elif got != want:
            mismatches.append(f"{span}.calls = {got}, config implies {want}")
            print(f"call count differs: {mismatches[-1]}", file=sys.stderr)
    print(f"{wl.name} config-implied call counts: "
          f"{len(wl.expected_calls) - len(mismatches)} of {len(wl.expected_calls)} hold "
          f"(tracer spans checked)")

    metrics = {name: pairs[0][2][name] if unit in COUNT_UNITS
               else median([p[2][name] for p in pairs]) for name, unit in PER_LAYER}
    record.update({
        "samples": {"pairs": len(pairs)},
        "untraced_pipeline_s": [p[0] for p in pairs],
        "traced_pipeline_s": [p[1] for p in pairs],
        "fingerprint": warm["fingerprint"],
        "setup_span_table": setup_table,
        "span_counts": counts,
        "call_count_mismatches": mismatches,
        "metrics": metrics,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
