import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def test_workload_list_runs_pairs_per_workload_and_nests_the_json(monkeypatch, capsys):
    calls = []

    def fake_bench(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed))
        side = 1.0 if tree.name == "parent" else 0.5
        # the change computes something else in the pair with seed 12
        nse = 0.8 if tree.name == "change" and seed == 12 else 0.9
        return {"correct": True, "failed_ops_frac": 0.0, "fingerprint": {"nse": nse},
                "metrics": {"pipeline_s": side + seed / 100, "forecast_nse": 0.9}}

    monkeypatch.setattr(ab_bench, "export", lambda rev, dest: rev)
    monkeypatch.setattr(ab_bench, "bench", fake_bench)
    assert ab_bench.main(["P", "C", "--workload", "soft_forecast, hard_scan", "--pairs", "3"]) == 0
    assert [c[1] for c in calls] == ["soft_forecast"] * 6 + ["hard_scan"] * 6
    # the parent runs first in even pairs, the change in odd ones
    assert [c[0] for c in calls[:4]] == ["parent", "change", "change", "parent"]
    out = capsys.readouterr().out.splitlines()
    assert sum(line.endswith(": 3 pairs") for line in out) == 2
    assert any(line.startswith("pipeline_s") and line.endswith("3/0/0") for line in out)
    assert out.count("fingerprints equal: 2 of 3 pairs") == 2
    tail = json.loads(out[-1])
    assert tail["commits"] == {"parent": "P", "change": "C"}
    assert list(tail["workloads"]) == ["soft_forecast", "hard_scan"]
    pairs = tail["workloads"]["hard_scan"]["pairs"]
    assert [p["seed"] for p in pairs] == [11, 12, 13]
    assert pairs[0]["change"]["metrics"]["pipeline_s"] == 0.61
    assert [(p["parent"]["fingerprint"], p["change"]["fingerprint"]) for p in pairs] == [
        ({"nse": 0.9}, {"nse": 0.9}), ({"nse": 0.9}, {"nse": 0.8}), ({"nse": 0.9}, {"nse": 0.9})]


def test_bench_reads_the_records_fingerprint(tmp_path, monkeypatch):
    record = tmp_path / ".bench_work" / "hard_scan" / "record.json"
    record.parent.mkdir(parents=True)
    fp = {"final_objective": [1.5], "nse": 0.9, "atom_scan_ranking": [2, 0, 1]}
    record.write_text(json.dumps({"failed_ops_frac": 0.0, "fingerprint": fp,
                                  "metrics": {"pipeline_s": 0.7, "other": 1}}))
    done = subprocess.CompletedProcess([], 0, stdout='{"correct": true}\n', stderr="")
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *a, **k: done)
    got = ab_bench.bench(tmp_path, "hard_scan", 11, 1.0)
    assert got == {"correct": True, "failed_ops_frac": 0.0, "fingerprint": fp,
                   "metrics": {"pipeline_s": 0.7}}


def test_bench_reads_each_stages_peak_over_the_repeats(tmp_path, monkeypatch):
    record = tmp_path / ".bench_work" / "hard_scan" / "record.json"
    record.parent.mkdir(parents=True)

    def info(factorize, forecast, atom_scan=None):
        got = {"factorize": {"peak_rss_mb": factorize, "import_s": 0.1},
               "forecast": {"peak_rss_mb": forecast}}
        if atom_scan is not None:
            got["atom_scan"] = {"peak_rss_mb": atom_scan}
        return {"times": {}, "info": got}

    record.write_text(json.dumps({
        "fingerprint": None, "metrics": {"peak_rss_mb": 61.0},
        # a repeat that stopped after factorize ran no later stage
        "repeats": [info(55.0, 54.0, 50.0), info(56.5, 53.0, 49.0),
                    {"times": {}, "info": {"factorize": {"peak_rss_mb": 54.0}}}]}))
    done = subprocess.CompletedProcess([], 0, stdout='{"correct": true}\n', stderr="")
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *a, **k: done)
    got = ab_bench.bench(tmp_path, "hard_scan", 11, 1.0)
    assert got["metrics"] == {"peak_rss_mb": 61.0, "factorize_peak_mb": 56.5,
                              "forecast_peak_mb": 54.0, "atom_scan_peak_mb": 50.0}


def test_summary_compares_stage_peaks(capsys):
    def run(factorize, forecast):
        return {"correct": True, "fingerprint": None,
                "metrics": {"factorize_peak_mb": factorize, "forecast_peak_mb": forecast}}

    ab_bench.summary("large_sweep", [(run(60.2, 61.0), run(54.8, 61.0)),
                                     (run(60.3, 61.1), run(54.9, 54.4))])
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("factorize_peak_mb") and line.endswith("2/0/0") for line in out)
    assert any(line.startswith("forecast_peak_mb") and line.endswith("1/0/1") for line in out)
    assert not any(line.startswith("atom_scan_peak_mb") for line in out)


def test_summary_quotes_the_fingerprint_drift(capsys):
    def run(objectives, nse, ranking=None):
        fp = {"final_objective": objectives, "nse": nse}
        if ranking is not None:
            fp["atom_scan_ranking"] = ranking
        return {"correct": True, "fingerprint": fp, "metrics": {"pipeline_s": 1.0}}

    runs = [(run([100.0, 200.0], 0.95, [0, 1]), run([100.1, 199.0], 0.951, [0, 1])),
            (run([50.0, 80.0], 0.90, [1, 0]), run([50.0, 80.0], 0.89, [0, 1])),
            (run([10.0, 20.0], 0.80, [0, 1]), run([10.0, 20.0], 0.80, [0, 1])),
            # a failed run has no fingerprint and moves nothing
            (run([1.0], 0.5, [0, 1]), {"correct": False, "metrics": {}})]
    ab_bench.summary("hard_scan", runs)
    out = capsys.readouterr().out.splitlines()
    assert "fingerprints equal: 1 of 4 pairs" in out
    assert "final_objective worst relative change: -5.000e-03" in out
    assert "forecast nse change: median +0.000e+00, worst -1.000e-02" in out
    assert "atom-scan rankings equal: 2 of 3 pairs" in out
    # a workload without an atom scan prints no ranking line
    ab_bench.summary("soft_forecast", [(run([1.0], 0.5), run([1.0], 0.5))])
    out = capsys.readouterr().out.splitlines()
    assert "fingerprints equal: 1 of 1 pairs" in out
    assert not any(line.startswith("atom-scan") for line in out)


@pytest.mark.parametrize("workload", ["soft_forecast,", ",", "a,,b"])
def test_empty_workload_name_is_a_usage_error(workload):
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(["P", "C", "--workload", workload])
    assert exc.value.code == 2


def test_a_failed_side_is_skipped_and_the_json_still_printed(monkeypatch, capsys):
    nan = float("nan")

    def fake_bench(tree, workload, seed, seconds):
        # the change's factorize fails in the pair with seed 12: its other
        # stages never ran, its NSE is None and its pipeline_s sums one stage
        if tree.name == "change" and seed == 12:
            return {"correct": False, "failed_ops_frac": 0.5, "fingerprint": {"nse": None},
                    "metrics": {"pipeline_s": 0.024, "factorize_s": 0.024, "forecast_s": nan,
                                "forecast_nse": None}}
        side = 0.2 if tree.name == "change" else 0.24
        return {"correct": True, "failed_ops_frac": 0.0, "fingerprint": {"nse": 0.9},
                "metrics": {"pipeline_s": side, "factorize_s": side / 2, "forecast_s": side / 2,
                            "forecast_nse": 0.9}}

    monkeypatch.setattr(ab_bench, "export", lambda rev, dest: rev)
    monkeypatch.setattr(ab_bench, "bench", fake_bench)
    assert ab_bench.main(["P", "C", "--workload", "hard_scan", "--pairs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split() for line in out
            if line.split() and line.split()[0] in ab_bench.METRICS}
    # each metric compares the two pairs where both sides read correct
    for name in ("pipeline_s", "factorize_s", "forecast_s"):
        assert rows[name][-2:] == ["1", "2/0/0"], rows[name]
    assert rows["forecast_nse"][-2:] == ["1", "0/0/2"]
    assert "runs not reading correct: 1 of 6" in out
    tail = json.loads(out[-1])
    assert tail["workloads"]["hard_scan"]["pairs"][1]["change"]["correct"] is False


def test_the_json_is_printed_when_a_summary_fails(monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "export", lambda rev, dest: rev)
    monkeypatch.setattr(ab_bench, "bench", lambda tree, workload, seed, seconds: {
        "correct": True, "metrics": {"pipeline_s": 1.0}})

    def failing_summary(workload, runs):
        raise RuntimeError("summary failed")

    monkeypatch.setattr(ab_bench, "summary", failing_summary)
    with pytest.raises(RuntimeError, match="summary failed"):
        ab_bench.main(["P", "C", "--workload", "soft_forecast", "--pairs", "1"])
    tail = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(tail["workloads"]["soft_forecast"]["pairs"]) == 1


SPREAD = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, interquartile range 0.055
WIDE = [1.0] * 5 + [2.0] * 5  # median 1.5, interquartile range 1.0


@pytest.mark.parametrize("better, parent, change, want", [
    # the change's median is 0.3 above the parent's, beyond 0.25 of it
    ("lower", SPREAD, [v + 0.3 for v in SPREAD], "worse"),
    ("higher", [0.9] * 10, [0.6] * 10, "worse"),
    # 9 wins in 10, medians 0.1 apart against a 0.055 range
    ("lower", SPREAD, [v - 0.1 for v in SPREAD[:9]] + [SPREAD[9] + 0.001], "better"),
    ("higher", [0.9 + 0.001 * i for i in range(10)], [0.91 + 0.001 * i for i in range(10)],
     "better"),
    # 8 wins: two pairs lost, or two tied, which count for neither side
    ("lower", SPREAD, [v - 0.1 for v in SPREAD[:8]] + [v + 0.001 for v in SPREAD[8:]],
     "unchanged"),
    ("lower", SPREAD, [v - 0.1 for v in SPREAD[:8]] + SPREAD[8:], "unchanged"),
    # 10 wins, but medians 0.01 apart against the 0.055 range
    ("lower", SPREAD, [v - 0.01 for v in SPREAD], "unchanged"),
    ("lower", SPREAD, SPREAD, "unchanged"),
    # the parent's range 1.0 exceeds 0.25 of its median: overlapping runs
    # stay unresolved, a change below every parent run does not
    ("lower", WIDE, [v - 0.1 for v in WIDE], "unresolved"),
    ("higher", WIDE, [v + 0.1 for v in WIDE], "unresolved"),
    ("lower", WIDE, [0.99] * 10, "unchanged"),
    ("lower", WIDE, [0.1] * 10, "better"),
    # worse wins over unresolved
    ("lower", WIDE, [v + 0.5 for v in WIDE], "worse"),
])
def test_verdict(better, parent, change, want):
    assert ab_bench.verdict(list(zip(parent, change)), better, 0.25) == want


def test_summary_prints_a_verdict_per_end_to_end_metric(capsys):
    def run(pipeline_s, nse, correct=True):
        return {"correct": correct, "fingerprint": None,
                "metrics": {"pipeline_s": pipeline_s, "factorize_s": pipeline_s,
                            "forecast_nse": nse}}

    runs = [(run(1.0 + 0.01 * i, 0.9), run(0.5 + 0.01 * i, 0.9)) for i in range(10)]
    # a pair with a failed side counts for no verdict
    runs.append((run(1.0, 0.9), run(9.0, 0.1, correct=False)))
    ab_bench.summary("soft_forecast", runs)
    out = [line for line in capsys.readouterr().out.splitlines() if line.startswith("verdict")]
    bounds = {m["name"]: m for m in json.loads(ab_bench.BENCHMARK.read_text())["end_to_end"]}
    assert out == [
        f"verdict pipeline_s: better (bound {bounds['pipeline_s']['bound']:g}, lower is better, "
        "10 pairs)",
        f"verdict forecast_nse: unchanged (bound {bounds['forecast_nse']['bound']:g}, higher is "
        "better, 10 pairs)",
    ]
