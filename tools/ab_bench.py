"""Alternating A/B runs of the benchmark on two git revisions.

Run from anywhere inside the repository:

    python3 tools/ab_bench.py PARENT CHANGE --workload hard_scan --pairs 10
    python3 tools/ab_bench.py PARENT CHANGE --workload soft_forecast,hard_scan,large_sweep

Both revisions are exported with ``git archive`` into new temporary
directories, so neither side runs in a tree that an earlier run left
byte-compiled caches or work files in.  Pair i runs ``bench/run.py`` with
seed 11 + i on both trees, the parent first in even pairs and the change
first in odd ones, so drift of the host's speed falls on both sides alike.
``--workload`` takes one workload or a comma-separated list; each runs its
pairs in turn.  Per workload the script prints, per metric, each side's
median and quartiles and how many pairs the change read lower, higher or
equal (each stage's peak RSS, ``factorize_peak_mb`` and its like, among
them), counting only the pairs where both sides read ``correct`` and hold
a finite value (a failed side's stage times are NaN, its NSE None and its
``pipeline_s`` the sum of the stages that ran), and how many pairs it
skipped; and in how many pairs both sides' quality fingerprints (the
``record.json`` ``fingerprint``: final objectives, NSE and scan ranking) are
equal, so a change that claims unchanged outputs can quote the same runs
as its timings.  A change that moves them can quote how far: the script
also prints the worst relative change of a final objective, the median and
worst change of the forecast NSE, and in how many pairs the atom-scan
rankings agree, over the pairs where both sides read ``correct``.  Each
end-to-end metric of ``BENCHMARK.json`` gets a verdict from its ``better``
and relative ``bound`` over those pairs (see :func:`verdict`).  It ends
with one JSON object holding every run's metrics and fingerprint, nested by
workload, printed also when a run or a summary fails.  It leaves the repository's files,
index and refs as they are and removes the exports.
"""

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# metrics to compare, read from the run's record.json, and each stage's
# peak RSS (see stage_peaks); higher is better only for forecast_nse
STAGES = ("factorize", "forecast", "atom_scan")
METRICS = ("setup_s", "pipeline_s", "factorize_s", "forecast_s", "atom_scan_s",
           "forecast_nse", "peak_rss_mb") + tuple(f"{stage}_peak_mb" for stage in STAGES)
FIRST_SEED = 11
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def export(rev: str, dest: Path) -> str:
    """Write revision ``rev``'s tree into ``dest``; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        if hasattr(tarfile, "data_filter"):
            t.extractall(dest, filter="data")
        else:
            t.extractall(dest)
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its metrics, quality
    fingerprint and correctness."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((tree / ".bench_work" / workload / "record.json").read_text())
    except (IndexError, ValueError, OSError):
        return {"correct": False, "metrics": {}, "error": proc.stderr[-2000:]}
    return {"correct": bool(result.get("correct")),
            "failed_ops_frac": record.get("failed_ops_frac"),
            "fingerprint": record.get("fingerprint"),
            "metrics": {**{k: v for k, v in record["metrics"].items() if k in METRICS},
                        **stage_peaks(record)}}


def stage_peaks(record: dict) -> dict:
    """``<stage>_peak_mb`` for each stage a repeat of the record ran: the
    largest ``repeats[].info[stage].peak_rss_mb`` over the repeats, so a
    ``peak_rss_mb`` change can be traced to the stage that sets it."""
    peaks = {}
    for rep in record.get("repeats") or []:
        for stage, info in (rep.get("info") or {}).items():
            if stage in STAGES and finite(info.get("peak_rss_mb")):
                key = f"{stage}_peak_mb"
                peaks[key] = max(peaks.get(key, -math.inf), info["peak_rss_mb"])
    return peaks


def spread(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def both_correct(runs: list) -> list:
    """The pairs where both sides read ``correct``."""
    return [(p, c) for p, c in runs if p.get("correct") and c.get("correct")]


def finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def metric_pairs(runs: list, name: str) -> list:
    """(parent, change) values of metric ``name`` over the pairs where both
    sides read ``correct`` and hold a finite value."""
    return [(p["metrics"][name], c["metrics"][name]) for p, c in both_correct(runs)
            if finite(p["metrics"].get(name)) and finite(c["metrics"].get(name))]


def drift(runs: list) -> list:
    """How far the change's fingerprints moved from the parent's, over the
    pairs where both sides read ``correct`` and have one: the worst relative
    change of any final objective, the median and worst change of the
    forecast NSE (each signed, change minus parent) and in how many pairs the
    atom-scan rankings agree."""
    fps = [(p["fingerprint"], c["fingerprint"]) for p, c in both_correct(runs)
           if p.get("fingerprint") and c.get("fingerprint")]
    rel = [(b - a) / abs(a) if a else b - a for fp, fc in fps
           for a, b in zip(fp.get("final_objective") or [], fc.get("final_objective") or [])]
    nse = [fc["nse"] - fp["nse"] for fp, fc in fps
           if isinstance(fp.get("nse"), float) and isinstance(fc.get("nse"), float)]
    lines = []
    if rel:
        lines.append(f"final_objective worst relative change: {max(rel, key=abs):+.3e}")
    if nse:
        lines.append(f"forecast nse change: median {statistics.median(nse):+.3e}, "
                     f"worst {max(nse, key=abs):+.3e}")
    ranked = [(fp["atom_scan_ranking"], fc.get("atom_scan_ranking")) for fp, fc in fps
              if "atom_scan_ranking" in fp]
    if ranked:
        lines.append(f"atom-scan rankings equal: {sum(a == b for a, b in ranked)} of "
                     f"{len(ranked)} pairs")
    return lines


def verdict(pairs: list, better: str, bound: float) -> str:
    """One end-to-end metric's verdict over (parent, change) value pairs,
    checked in this order: "worse" when the change's median is worse than
    the parent's by more than ``bound`` times the parent's |median|;
    "better" when the change wins at least 9 in 10 pairs (a tie counts for
    neither side) and the medians differ by more than the parent's
    interquartile range; "unresolved" when that range exceeds the bound and
    not every change run beats every parent run; else "unchanged"."""
    if better == "higher":  # compare as lower-is-better
        pairs = [(-p, -c) for p, c in pairs]
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p_med,) * 3
    scale = bound * abs(p_med)
    if c_med - p_med > scale:
        return "worse"
    if sum(c < p for p, c in pairs) >= 0.9 * len(pairs) and abs(c_med - p_med) > q3 - q1:
        return "better"
    if q3 - q1 > scale and not max(change) < min(parent):
        return "unresolved"
    return "unchanged"


def verdicts(runs: list) -> list:
    """A line per ``BENCHMARK.json`` end-to-end metric that some pair where
    both sides read ``correct`` holds on both sides: its verdict."""
    lines = []
    for metric in json.loads(BENCHMARK.read_text())["end_to_end"]:
        name = metric["name"]
        pairs = metric_pairs(runs, name)
        if pairs:
            lines.append(f"verdict {name}: {verdict(pairs, metric['better'], metric['bound'])} "
                         f"(bound {metric['bound']:g}, {metric['better']} is better, "
                         f"{len(pairs)} pairs)")
    return lines


def summary(workload: str, runs: list) -> None:
    print(f"{workload}: {len(runs)} pairs")
    print(f"{'metric':<18} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
          f"{'skipped':<8} change lower/higher/equal")
    for name in METRICS:
        if not any(name in side["metrics"] for pair in runs for side in pair):
            continue
        pairs = metric_pairs(runs, name)
        lower = sum(c < p for p, c in pairs)
        higher = sum(c > p for p, c in pairs)
        print(f"{name:<18} {spread([p for p, _ in pairs]):<34} {spread([c for _, c in pairs]):<34} "
              f"{len(runs) - len(pairs):<8} {lower}/{higher}/{len(pairs) - lower - higher}")
    same = sum(p.get("fingerprint") is not None and p.get("fingerprint") == c.get("fingerprint")
               for p, c in runs)
    print(f"fingerprints equal: {same} of {len(runs)} pairs")
    for line in drift(runs) + verdicts(runs):
        print(line)
    wrong = sum(not side["correct"] for pair in runs for side in pair)
    print(f"runs not reading correct: {wrong} of {2 * len(runs)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True,
                   help="a workload name or a comma-separated list of them")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    workloads = [w.strip() for w in args.workload.split(",")]
    if not all(workloads):
        p.error(f"--workload has an empty name: {args.workload!r}")

    work = Path(tempfile.mkdtemp(prefix="ab_bench_"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        print(f"parent {commits['parent']} and change {commits['change']} exported to {work}")
        runs = {}
        try:
            for workload in workloads:
                runs[workload] = []
                for i in range(args.pairs):
                    seed = FIRST_SEED + i
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    got = {side: bench(trees[side], workload, seed, args.seconds)
                           for side in order}
                    runs[workload].append((got["parent"], got["change"]))
                    line = ", ".join(
                        f"{side} {got[side]['metrics'].get('pipeline_s', float('nan')):.4g} s"
                        for side in order)
                    print(f"{workload} pair {i + 1} (seed {seed}) pipeline_s: {line}", flush=True)
                summary(workload, runs[workload])
        finally:  # the runs so far, whatever stopped the loop
            print(json.dumps({"commits": commits, "seconds": args.seconds, "workloads": {
                workload: {"pairs": [{"seed": FIRST_SEED + i, "parent": p, "change": c}
                                     for i, (p, c) in enumerate(pairs)]}
                for workload, pairs in runs.items()}}), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
