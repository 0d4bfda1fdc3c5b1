"""Check that two git revisions write byte-identical outputs.

Run from anywhere inside the repository:

    python3 tools/same_outputs.py PARENT CHANGE
    python3 tools/same_outputs.py PARENT CHANGE --workload hard_scan --seed 1,11,17

Both revisions are exported with ``git archive`` into new temporary
directories, as ``tools/ab_bench.py`` does.  For every workload in
``bench/workloads.py`` (of the checkout this script runs from, so both sides
get the same configs) and every seed, each side runs the workload's
``synth -> factorize -> forecast [-> atom-scan]`` through ``freqfact.cli``,
each subcommand in a fresh interpreter with BLAS fixed to one thread, in a
work directory of its own with the same relative paths, so paths echoed
into the outputs agree.  The script then compares the sha256 of every file
either side wrote, lists each file that differs or exists on one side only,
and names any subcommand that did not exit 0.  Under a differing JSON file
it lists the key paths whose values differ (``keys: final_objective``), and
under a differing ``report.json`` or ``metrics.json`` it prints both sides'
quality figures, each as its ``repr`` so a last-bit change shows: the final
objective, the summed ``code_iters``, the last ``code_change`` and the NSE,
whichever the file holds.  It exits 0 when every file of
every run is equal, 1 otherwise.  It leaves the repository's files, index
and refs as they are and removes the exports.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_bench import export  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One subcommand in a fresh interpreter: argv[1] is the source root, argv[2]
# the subcommand's argv as JSON.  A freqfact imported from elsewhere fails.
CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import freqfact.cli as cli
if Path(cli.__file__).resolve().parent != (Path(sys.argv[1]) / "freqfact").resolve():
    sys.exit(f"imported freqfact from {cli.__file__}, not {sys.argv[1]}")
sys.exit(cli.main(json.loads(sys.argv[2])))
"""


def stages(wl) -> tuple[list, dict]:
    """The workload's subcommands, with paths relative to a work directory."""
    ext = "bin" if wl.binary else "csv"
    synth = ["synth", "--config", "synth.json", "--out", "data"]
    argv = [synth + (["--binary"] if wl.binary else []),
            ["factorize", "--config", "factorize.json", "--out", "out/model",
             "--jobs", str(wl.jobs)],
            ["forecast", "--config", "forecast.json", "--out", "out/pred"]]
    if wl.atom_scan:
        argv.append(["atom-scan", "--config", "forecast.json", "--out", "out/scan"])
    ys = [f"data/Y{k}.{ext}" for k in range(len(wl.synth["freqs"]))]
    model = "out/model/" + wl.model_subdir if wl.model_subdir else "out/model"
    configs = {"synth.json": wl.synth,
               "factorize.json": {**wl.factorize, "x": f"data/X.{ext}", "y": ys},
               "forecast.json": {**wl.forecast, "model": model, "y": ys,
                                 "x_true": f"data/X.{ext}"}}
    return argv, configs


def run(tree: Path, work: Path, wl, seed: int) -> list:
    """The workload at ``seed`` with ``tree``'s source, in ``work``; returns
    the subcommands that did not exit 0, with their last error line."""
    argv, configs = stages(wl)
    work.mkdir(parents=True)
    for name, cfg in configs.items():
        (work / name).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    argv[0] += ["--seed", str(seed)]
    env = {**os.environ, **{v: "1" for v in BLAS_THREAD_VARS}}
    failed = []
    for cmd in argv:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(tree / "src"), json.dumps(cmd)],
                              cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            failed.append(f"{cmd[0]} exited {proc.returncode}: {last}")
            break
    return failed


def digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def compare(a: dict, b: dict) -> list:
    """Each file that differs between two digest maps, with how."""
    lines = []
    for name in sorted(set(a) | set(b)):
        if name not in b:
            lines.append(f"only in A: {name}")
        elif name not in a:
            lines.append(f"only in B: {name}")
        elif a[name] != b[name]:
            lines.append(f"differs: {name}")
    return lines


def quality(path: Path) -> str:
    """The final objective, summed ``code_iters``, last ``code_change`` and
    NSE that a ``report.json`` or ``metrics.json`` holds, as one line."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable ({exc})"
    report = data.get("report") or {}
    extras = report.get("extras") or {}
    trace = report.get("objective_trace")
    figures = {"objective": trace[-1] if trace else data.get("final_objective"),
               "code_iters": sum(extras["code_iters"]) if "code_iters" in extras else None,
               "code_change": extras["code_change"][-1] if extras.get("code_change") else None,
               "nse": data.get("nse")}
    shown = [f"{name} {value!r}" for name, value in figures.items() if value is not None]
    return ", ".join(shown) or "no quality figures"


def differing_keys(a, b, prefix: str = "") -> list:
    """The dotted key paths at which two parsed JSON values differ: objects
    are compared key by key, anything else (a list, a number) as a whole."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [prefix or "(top level)"]
    keys = []
    for key in sorted(set(a) | set(b)):
        path = f"{prefix}.{key}" if prefix else key
        if key not in a or key not in b:
            keys.append(path)
        else:
            keys += differing_keys(a[key], b[key], path)
    return keys


def json_diff(path_a: Path, path_b: Path) -> str:
    """The key paths whose values differ between two JSON files, as one
    line."""
    try:
        a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    except (OSError, ValueError) as exc:
        return f"keys: unreadable ({exc})"
    return "keys: " + (", ".join(differing_keys(a, b)) or "none (equal values)")


def _names(text: str) -> list:
    return [item.strip() for item in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev_a")
    p.add_argument("rev_b")
    p.add_argument("--workload", default=",".join(WORKLOADS),
                   help="a workload name or a comma-separated list (default: all)")
    p.add_argument("--seed", default="1", help="a seed or a comma-separated list (default: 1)")
    args = p.parse_args(argv)
    workloads = _names(args.workload)
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload(s) {unknown}; known: {sorted(WORKLOADS)}")
    try:
        seeds = [int(s) for s in _names(args.seed)]
    except ValueError:
        p.error(f"--seed must be integers, got {args.seed!r}")

    scratch = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    try:
        trees = {"A": scratch / "A", "B": scratch / "B"}
        commits = {side: export(rev, trees[side])
                   for side, rev in (("A", args.rev_a), ("B", args.rev_b))}
        print(f"A {commits['A']} and B {commits['B']} exported to {scratch}")
        bad = 0
        for name in workloads:
            for seed in seeds:
                work = {side: scratch / "runs" / side / f"{name}_{seed}" for side in trees}
                failed = {side: run(trees[side], work[side], WORKLOADS[name], seed)
                          for side in trees}
                lines = [f"{side}: {msg}" for side in trees for msg in failed[side]]
                found = {side: digests(work[side]) for side in trees}
                for line in compare(found["A"], found["B"]):
                    lines.append(line)
                    file = line.removeprefix("differs: ")
                    if file != line and file.endswith(".json"):
                        lines.append(f"  {json_diff(work['A'] / file, work['B'] / file)}")
                    if file != line and Path(file).name in ("report.json", "metrics.json"):
                        lines += [f"  {side}: {quality(work[side] / file)}" for side in trees]
                bad += bool(lines)
                verdict = "differ" if lines else "all sha256-equal"
                print(f"{name} seed {seed}: {len(found['A'])} and {len(found['B'])} files, "
                      f"{verdict}", flush=True)
                for line in lines:
                    print(f"  {line}")
        print(f"{bad} of {len(workloads) * len(seeds)} runs differ")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
