import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

# A stand-in for freqfact.cli: each subcommand writes one file into --out
# from its argv and config; the "changed" tree writes another forecast, and
# the "broken" one fails its atom-scan.  The "exact" and "loose" trees also
# write a factorize report.json and forecast metrics.json whose figures
# differ, and "exact" predates code_change; "lastbit" writes exact's files
# with a final objective one unit in the last place higher.
FAKE_CLI = """
import json, sys
from pathlib import Path

def main(argv):
    cmd, out = argv[0], Path(argv[argv.index("--out") + 1])
    if cmd == "atom-scan" and TREE == "broken":
        print("freqfact: input error: no scan today", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    config = json.loads(Path(argv[argv.index("--config") + 1]).read_text())
    text = json.dumps({"argv": argv, "config": config}, sort_keys=True)
    if cmd == "forecast" and TREE == "changed":
        text += " "
    (out / f"{cmd}.txt").write_text(text)
    loose = TREE == "loose"
    if cmd == "factorize" and TREE in ("exact", "loose", "lastbit"):
        extras = {"code_iters": [20, 5] if loose else [50, 50]}
        if loose:
            extras["code_change"] = [0.5, 0.004]
        report = {"objective_trace": [9.0, 5.5 if loose else 5.25], "extras": extras}
        (out / "report.json").write_text(json.dumps({"report": report}))
    if cmd == "forecast" and TREE in ("exact", "loose", "lastbit"):
        metrics = {"nse": 0.875 if loose else 0.9,
                   "final_objective": 3.0000000000000004 if TREE == "lastbit" else 3.0}
        (out / "metrics.json").write_text(json.dumps(metrics))
    return 0
"""


def fake_export(rev, dest):
    pkg = dest / "src" / "freqfact"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"TREE = {rev!r}\n" + FAKE_CLI)
    return f"commit-{rev}"


def test_equal_trees_exit_0(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "export", fake_export)
    assert same_outputs.main(["same", "same", "--workload", "hard_scan,soft_forecast",
                              "--seed", "1,17"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("A commit-same and B commit-same exported to ")
    # hard_scan: synth config, three configs and four subcommands' files
    assert "hard_scan seed 1: 7 and 7 files, all sha256-equal" in out
    assert "soft_forecast seed 17: 6 and 6 files, all sha256-equal" in out
    assert out[-1] == "0 of 4 runs differ"


def test_changed_output_is_listed_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "export", fake_export)
    assert same_outputs.main(["same", "changed", "--workload", "hard_scan",
                              "--seed", "1,2"]) == 1
    out = capsys.readouterr().out.splitlines()
    for seed in (1, 2):
        i = out.index(f"hard_scan seed {seed}: 7 and 7 files, differ")
        assert out[i + 1] == "  differs: out/pred/forecast.txt"
    assert out[-1] == "2 of 2 runs differ"


def test_differing_reports_print_both_sides_quality(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "export", fake_export)
    assert same_outputs.main(["exact", "loose", "--workload", "soft_forecast"]) == 1
    out = capsys.readouterr().out.splitlines()
    i = out.index("soft_forecast seed 1: 8 and 8 files, differ")
    assert out[i + 1:] == [
        "  differs: out/model/report.json",
        "    keys: report.extras.code_change, report.extras.code_iters, report.objective_trace",
        "    A: objective 5.25, code_iters 100",
        "    B: objective 5.5, code_iters 25, code_change 0.004",
        "  differs: out/pred/metrics.json",
        "    keys: nse",
        "    A: objective 3.0, nse 0.9",
        "    B: objective 3.0, nse 0.875",
        "1 of 1 runs differ",
    ]


def test_last_bit_differences_show_in_keys_and_figures(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "export", fake_export)
    assert same_outputs.main(["exact", "lastbit", "--workload", "soft_forecast"]) == 1
    out = capsys.readouterr().out.splitlines()
    i = out.index("soft_forecast seed 1: 8 and 8 files, differ")
    assert out[i + 1:] == [
        "  differs: out/pred/metrics.json",
        "    keys: final_objective",
        "    A: objective 3.0, nse 0.9",
        "    B: objective 3.0000000000000004, nse 0.9",
        "1 of 1 runs differ",
    ]


def test_failed_subcommand_is_named_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "export", fake_export)
    assert same_outputs.main(["same", "broken", "--workload", "hard_scan"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "hard_scan seed 1: 7 and 6 files, differ" in out
    assert "  B: atom-scan exited 2: freqfact: input error: no scan today" in out
    assert "  only in A: out/scan/atom-scan.txt" in out


def test_workload_configs_come_from_the_benchmark():
    wl = same_outputs.WORKLOADS["large_sweep"]
    argv, configs = same_outputs.stages(wl)
    assert [a[0] for a in argv] == ["synth", "factorize", "forecast"]
    assert argv[1][-2:] == ["--jobs", "2"]
    assert configs["synth.json"] == wl.synth
    assert configs["factorize.json"]["grid"] == wl.factorize["grid"]
    assert configs["forecast.json"]["model"] == "out/model/point_000"
    assert json.dumps(configs)  # plain JSON


def test_unknown_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        same_outputs.main(["A", "B", "--workload", "hard_scan,nope"])
    assert exc.value.code == 2
    assert "unknown workload(s) ['nope']" in capsys.readouterr().err
