import contextlib
import importlib.util
import io
import json
import logging
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqfact import FrequencyMask, Penalty, SpatioTemporalTensor, cli
from freqfact.cli import check_config, main, penalty_from_dict
from freqfact.io import read_json, read_matrix, read_tensor, write_tensor

from test_forecast import assert_fit_rule_score


def run_cli(*argv):
    return main([str(a) for a in argv])


def synth_dataset(tmp_path, d=10, T=60, freqs=(4, 9), sigma=0.0, x_sigma=0.0, seed=5):
    tmp_path.mkdir(parents=True, exist_ok=True)
    data = tmp_path / "data"
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({
        "d": d, "T": T, "freqs": list(freqs), "sigma": sigma, "x_sigma": x_sigma, "seed": seed,
    }))
    assert run_cli("synth", "--config", cfg, "--out", data) == 0
    return data


def factorize(tmp_path, data, name="model", **overrides):
    cfg = {
        "x": str(data / "X.csv"),
        "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
        "r": 2, "xi": 0.5,
        "penalty": {"kind": "soft_freq", "lambda": 1.0},
        "n_iters": 8, "sub_iters": 20, "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert run_cli("factorize", "--config", path, "--out", out) == 0
    return out


class TestSynth:
    @pytest.mark.parametrize("field, tensor", [("sigma", "Y0"), ("x_sigma", "X")])
    def test_overflow_names_field_and_tensor_and_writes_nothing(self, tmp_path, capfd,
                                                                field, tensor):
        spec = {"d": 16, "T": 40, "freqs": [3, 7], "sigma": 0.5, "x_sigma": 0.5, field: 1e308}
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(spec))
        assert run_cli("synth", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capfd.readouterr().err
        assert err == (f"freqfact: input error: {field}=1e+308 overflows tensor {tensor} "
                       "to non-finite values\n")
        assert not (tmp_path / "o").exists()

    def test_default_spec_has_full_length(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("synth", "--out", out, "--seed", 1) == 0
        t = read_tensor(out / "X.csv")
        assert t.dims == (16, 1, 163)
        prov = read_json(out / "provenance.json")
        assert prov["format"] == "stf-provenance-v1"
        assert prov["spec"]["T"] == 163

    def test_seed_repeat_writes_identical_files(self, tmp_path):
        a = synth_dataset(tmp_path / "a")
        b = synth_dataset(tmp_path / "b")
        assert (a / "X.csv").read_bytes() == (b / "X.csv").read_bytes()
        assert (a / "Y1.csv").read_bytes() == (b / "Y1.csv").read_bytes()

    def test_noise_free_spectra_pass_support_check(self, tmp_path):
        data = synth_dataset(tmp_path, d=6, T=40, freqs=(3, 7))
        y0 = read_tensor(data / "Y0.csv")
        from freqfact import dft_rows, matricize

        s = np.abs(dft_rows(matricize(y0)))
        for row in s:
            assert set(np.flatnonzero(row > 1e-10).tolist()) == {3, 37}

    def test_binary_round_trip(self, tmp_path):
        out = tmp_path / "bin"
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"d": 3, "T": 12, "freqs": [2, 5], "seed": 7}))
        assert run_cli("synth", "--config", cfg, "--out", out, "--binary") == 0
        t = read_tensor(out / "X.bin")
        assert t.dims == (3, 1, 12)
        csv_out = tmp_path / "txt"
        assert run_cli("synth", "--config", cfg, "--out", csv_out) == 0
        t2 = read_tensor(csv_out / "X.csv")
        assert np.allclose(t.values, t2.values, atol=0)


class TestFactorize:
    def test_outputs_and_determinism(self, tmp_path):
        data = synth_dataset(tmp_path)
        m1 = factorize(tmp_path, data, "m1")
        m2 = factorize(tmp_path, data, "m2")
        for name in ("W.csv", "Wp.csv", "H.csv", "report.json"):
            assert (m1 / name).exists()
            assert (m1 / name).read_bytes() == (m2 / name).read_bytes()
        report = read_json(m1 / "report.json")
        assert report["format"] == "stf-report-v1"
        assert len(report["report"]["objective_trace"]) == 8

    def test_train_split(self, tmp_path):
        data = synth_dataset(tmp_path)
        out = factorize(tmp_path, data, "split", train_t=45)
        h = read_matrix(out / "H.csv")
        assert h.shape[1] == 45
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"x": str(data / "X.csv"), "y": str(data / "Y0.csv"),
                                   "train_t": 400}))
        assert run_cli("factorize", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_hard_variant(self, tmp_path):
        data = synth_dataset(tmp_path)
        out = factorize(tmp_path, data, "hard",
                        penalty={"kind": "hard_freq", "lambda": 0.0, "R": 2},
                        variant="hard", R=2, n_iters=5)
        h = read_matrix(out / "H.csv")
        assert np.all(h >= 0.0)

    def test_malformed_csv_exits_2_naming_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("stf-v1,2,1,2\n1.0\nnope\n1.0\n2.0\n")
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"x": str(bad), "y": str(bad)}))
        assert run_cli("factorize", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "column 1" in err

    def test_overflowing_xi_exits_3(self, tmp_path, capsys):
        data = synth_dataset(tmp_path)
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({
            "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "r": 2, "xi": 1e308, "penalty": {"kind": "soft_freq", "lambda": 1.0},
            "n_iters": 4, "sub_iters": 10,
        }))
        out = tmp_path / "o"
        assert run_cli("factorize", "--config", cfg, "--out", out) == 3
        err = capsys.readouterr().err
        assert "numerical failure: ssnmf_bcd: non-finite" in err
        assert "at outer iteration 1" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_unknown_config_field_exits_2(self, tmp_path):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"x": "x.csv", "bogus": 1}))
        assert run_cli("factorize", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_empty_grid_exits_2(self, tmp_path):
        data = synth_dataset(tmp_path)
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"x": str(data / "X.csv"), "y": str(data / "Y0.csv"),
                                   "grid": []}))
        assert run_cli("factorize", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_nested_grid_exits_2_before_any_output(self, tmp_path, capsys):
        # no input file exists: the point is rejected before any is read
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"x": "X.csv", "y": "Y.csv",
                                   "grid": [{"xi": 1.0}, {"xi": 0.5, "grid": [{"xi": 9}]}]}))
        out = tmp_path / "o"
        assert run_cli("factorize", "--config", cfg, "--out", out) == 2
        assert ("input error: grid[1]: a grid point cannot hold a nested 'grid'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_nonfinite_matrix_input_exits_2(self, tmp_path):
        bad = tmp_path / "m"
        bad.mkdir()
        (bad / "W.csv").write_text("stf-matrix-v1,1,2\n1.0,nan\n")
        (bad / "Wp.csv").write_text("stf-matrix-v1,1,1\n1.0\n")
        (bad / "H.csv").write_text("stf-matrix-v1,1,2\n1.0,1.0\n")
        data = synth_dataset(tmp_path / "dd", d=1)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({"model": str(bad), "y": str(tmp_path / "dd" / "data" / "Y0.csv")}))
        assert run_cli("forecast", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        import freqfact.cli as cli
        from freqfact import SingularGramError

        def boom(args):
            raise SingularGramError("code Gram matrix is singular")

        monkeypatch.setattr(cli, "cmd_synth", boom)
        assert run_cli("synth", "--out", tmp_path / "o") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_grid_runs_points_and_writes_index(self, tmp_path):
        data = synth_dataset(tmp_path)
        out = factorize(tmp_path, data, "grid", n_iters=4,
                        grid=[{"xi": 0.1}, {"xi": 1.0}, {"xi": 10.0}])
        index = read_json(out / "index.json")
        assert index["format"] == "stf-index-v1"
        assert len(index["points"]) == 3
        objs = [p["objective"] for p in index["points"]]
        assert np.isclose(index["median_objective"], float(np.median(objs)))
        for i in range(3):
            assert (out / f"point_{i:03d}" / "report.json").exists()

    def test_grid_jobs_parallel_matches_serial(self, tmp_path):
        data = synth_dataset(tmp_path)
        cfg = {
            "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "r": 2, "xi": 0.5, "penalty": {"kind": "ridge", "lambda": 0.0},
            "n_iters": 3, "sub_iters": 10, "seed": 0,
            "grid": [{"xi": 0.1}, {"xi": 1.0}],
        }
        p = tmp_path / "g.json"
        p.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert run_cli("factorize", "--config", p, "--out", out1) == 0
        assert run_cli("factorize", "--config", p, "--out", out2, "--jobs", 2) == 0
        for i in range(2):
            a = (out1 / f"point_{i:03d}" / "H.csv").read_bytes()
            b = (out2 / f"point_{i:03d}" / "H.csv").read_bytes()
            assert a == b


    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("over, code, message", [
        ({"x": "short/data/X.csv"}, 2, "input error: grid[1]: train_t=24 outside [1, 20]"),
        ({"r": 11}, 2, "input error: grid[1]: rank 11 exceeds min(d, T) = 10"),
        ({"xi": 1e308}, 3, "numerical failure: grid[1]: ssnmf_bcd: non-finite"),
    ], ids=["train_t", "rank", "overflow"])
    def test_a_failing_point_is_named(self, tmp_path, capsys, jobs, over, code, message):
        # a point that fails while it runs is named as a point's config error is
        data = synth_dataset(tmp_path)
        synth_dataset(tmp_path / "short", T=20)
        over = {k: str(tmp_path / v) if k == "x" else v for k, v in over.items()}
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({
            "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "r": 2, "penalty": {"kind": "soft_freq", "lambda": 1.0}, "n_iters": 2,
            "sub_iters": 5, "train_t": 24, "grid": [{"xi": 0.5}, over],
        }))
        capsys.readouterr()
        assert run_cli("factorize", "--config", cfg, "--out", tmp_path / "o",
                       "--jobs", jobs) == code
        err = capsys.readouterr().err
        assert f"freqfact: {message}" in err and "Traceback" not in err

    def test_grid_workers_bind_to_distinct_cpus(self, tmp_path, monkeypatch):
        data = synth_dataset(tmp_path)
        cfg = {
            "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "r": 2, "xi": 0.5, "penalty": {"kind": "ridge", "lambda": 0.0},
            "n_iters": 3, "sub_iters": 10, "seed": 0,
            "grid": [{"xi": 0.1}, {"xi": 1.0}],
        }
        p = tmp_path / "g.json"
        p.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        bound, ran = {}, {}

        def setaffinity(pid, cpus):
            assert pid == 0 and threading.current_thread() is not threading.main_thread()
            bound[threading.get_ident()] = list(cpus)

        monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
        assert run_cli("factorize", "--config", p, "--out", out1) == 0
        assert bound == {}
        # both points run at once, so each runs on its own worker thread
        together = threading.Barrier(2, timeout=30)
        run_point = cli._run_factorize_point

        def point(pcfg, out, x, y):
            ran[out.name] = threading.get_ident()
            together.wait()
            return run_point(pcfg, out, x, y)

        monkeypatch.setattr(cli, "_run_factorize_point", point)
        assert run_cli("factorize", "--config", p, "--out", out2, "--jobs", 2) == 0
        assert sorted(bound[ran[f"point_{i:03d}"]] for i in range(2)) == [[0], [1]]
        for i in range(2):
            for name in ("W.csv", "Wp.csv", "H.csv", "report.json"):
                a = (out1 / f"point_{i:03d}" / name).read_bytes()
                assert (out2 / f"point_{i:03d}" / name).read_bytes() == a
        assert (out2 / "index.json").read_bytes() == (out1 / "index.json").read_bytes()


class TestForecastCli:
    def make_pipeline(self, tmp_path):
        # self-consistent noise-free world: X, Y generated from one code
        rng = np.random.default_rng(9)
        d, r, T, Ttot = 8, 2, 40, 52
        t = np.arange(Ttot)
        h = np.vstack([1.0 + np.cos(2 * np.pi * 3 * t / Ttot),
                       1.0 + 0.7 * np.sin(2 * np.pi * 6 * t / Ttot)])
        w = rng.standard_normal((d, r))
        wp = rng.standard_normal((d, r))
        data = tmp_path / "data"
        data.mkdir()
        write_tensor(data / "X_full.csv", SpatioTemporalTensor((w @ h)[:, None, :]))
        write_tensor(data / "Y_full.csv", SpatioTemporalTensor((wp @ h)[:, None, :]))
        model = tmp_path / "model"
        model.mkdir()
        from freqfact.io import write_matrix

        write_matrix(model / "W.csv", w)
        write_matrix(model / "Wp.csv", wp)
        write_matrix(model / "H.csv", h[:, :T])
        return data, model, w, h, T

    def test_forecast_metrics_schema_and_score(self, tmp_path):
        data, model, w, h, T = self.make_pipeline(tmp_path)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model),
            "y": str(data / "Y_full.csv"),
            "x_true": str(data / "X_full.csv"),
            "penalty": {"kind": "ridge", "lambda": 0.0},
            "lam_over_xi": 0.0,
            "seed": 2,
        }))
        out = tmp_path / "fc"
        assert run_cli("forecast", "--config", cfg, "--out", out) == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["format"] == "stf-metrics-v1"
        assert set(metrics) >= {"nse", "mu_median", "mu_inf_count", "columns_predicted"}
        assert isinstance(metrics["columns_predicted"], int)
        assert metrics["nse"] >= 0.95
        h_new = read_matrix(out / "H_new.csv")
        assert h_new.shape == (2, 12)
        slices = sorted((out / "pred").glob("slice_*.csv"))
        assert len(slices) == 12

    @pytest.mark.parametrize("penalty, finite", [({"kind": "ridge", "lambda": 0.0}, True),
                                                 ({"kind": "hard_freq", "R": 2}, False)],
                             ids=["ridge", "band"])
    def test_mu_csv_is_written_only_when_every_ratio_is_finite(self, tmp_path, penalty, finite):
        # a band-limited code leaves bins unused, whose ratios are infinite
        data, model, w, h, T = self.make_pipeline(tmp_path)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({"model": str(model), "y": str(data / "Y_full.csv"),
                                   "penalty": penalty, "lam_over_xi": 0.0, "seed": 2}))
        out = tmp_path / "fc"
        assert run_cli("forecast", "--config", cfg, "--out", out) == 0
        metrics = read_json(out / "metrics.json")
        assert (metrics["mu_inf_count"] == 0) == finite
        assert (out / "mu.csv").exists() == finite
        if finite:
            assert read_matrix(out / "mu.csv").shape == (2, 52)

    @pytest.mark.parametrize("penalty", [Penalty.soft_freq(1.0), Penalty.hard_freq(R=2)],
                             ids=["prox", "heuristic"])
    def test_final_objective_scores_the_written_code(self, tmp_path, penalty):
        # metrics.json's objective is the encode's score of H_new_full.csv, by
        # the fit's rule
        data = synth_dataset(tmp_path, d=8, T=48, freqs=(3, 7), sigma=0.2, x_sigma=0.2)
        model = factorize(tmp_path, data, train_t=36, n_iters=3, sub_iters=10)
        ys = [str(data / "Y0.csv"), str(data / "Y1.csv")]
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": ys, "x_true": str(data / "X.csv"),
            "penalty": {"kind": penalty.kind, "lambda": 1.0, "R": penalty.R},
            "lam_over_xi": 0.2, "sweeps": 3, "sub_iters": 10, "seed": 1,
        }))
        out = tmp_path / "fc"
        assert run_cli("forecast", "--config", cfg, "--out", out) == 0
        (y_full,) = cli._read_matrices(ys)
        wp, h = read_matrix(model / "Wp.csv"), read_matrix(out / "H_new_full.csv")
        scored = Penalty(penalty.kind, 0.2, penalty.R)
        assert_fit_rule_score(read_json(out / "metrics.json")["final_objective"], y_full, wp, h,
                              scored)

    def test_soft_forecast_reruns_are_byte_identical(self, tmp_path):
        data = synth_dataset(tmp_path, d=8, T=48, freqs=(3, 7), sigma=0.2, x_sigma=0.2)
        model = factorize(tmp_path, data, train_t=36, n_iters=3, sub_iters=10)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "x_true": str(data / "X.csv"), "penalty": {"kind": "soft_freq", "lambda": 1.0},
            "lam_over_xi": 0.2, "sweeps": 4, "sub_iters": 25, "seed": 1,
        }))
        outs = [tmp_path / "fc1", tmp_path / "fc2"]
        for out in outs:
            assert run_cli("forecast", "--config", cfg, "--out", out) == 0
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert len(files) > 4
        assert all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)
        assert sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file()) == files

    def test_forecast_does_not_import_numpy_ma(self, tmp_path):
        # numpy's median imports numpy.ma, tens of milliseconds per process
        import subprocess
        import sys

        import freqfact

        data, model, w, h, T = self.make_pipeline(tmp_path)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": str(data / "Y_full.csv"), "x_true": str(data / "X_full.csv"),
            "sweeps": 2, "sub_iters": 10,
        }))
        out = tmp_path / "fc"
        code = ("import sys; import freqfact.cli as cli; rc = cli.main(sys.argv[1:]); "
                "print(rc, 'numpy.ma' in sys.modules)")
        src = str(Path(freqfact.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", code, "forecast", "--config", str(cfg),
                               "--out", str(out)], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == ["0", "False"], proc.stderr
        assert read_json(out / "metrics.json")["mu_median"] is not None

    def test_missing_model_exits_2(self, tmp_path):
        data, model, w, h, T = self.make_pipeline(tmp_path)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(tmp_path / "nope"),
            "y": str(data / "Y_full.csv"),
        }))
        assert run_cli("forecast", "--config", cfg, "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("command, overrides, want, before_encode", [
        ("forecast", {"a": 3, "b": 2}, "a*b = 6 does not match dictionary rows 8", True),
        ("forecast", {"y": "Y_train.csv"}, "auxiliary period (40) does not extend past T=40",
         True),
        ("forecast", {"y": "Y_one.csv"},
         "auxiliary period (41) does not extend two columns past T=40", True),
        ("forecast", {"y": []}, "config needs at least one auxiliary tensor path under 'y'", True),
        ("forecast", {"x_true": "X_short.csv"},
         "{data}/X_short.csv: truth tensor shorter than auxiliary period (46 < 52 columns)\n",
         False),
        ("atom-scan", {"x_true": None}, "atom-scan config needs 'x_true' (truth tensor path)",
         True),
        ("evaluate", None, "prediction (52 cols at offset 5) does not fit inside truth (52 cols)",
         True),
    ], ids=["a-times-b", "aux-not-past-T", "aux-one-past-T", "empty-y", "truth-short",
            "scan-no-truth", "evaluate-offset"])
    def test_input_error_exits_2_without_output(self, tmp_path, capsys, monkeypatch, command,
                                                overrides, want, before_encode):
        data, model, w, h, T = self.make_pipeline(tmp_path)
        y = read_tensor(data / "Y_full.csv").values
        write_tensor(data / "Y_train.csv", SpatioTemporalTensor(y[:, :, :T]))
        write_tensor(data / "Y_one.csv", SpatioTemporalTensor(y[:, :, :T + 1]))
        x = read_tensor(data / "X_full.csv").values
        write_tensor(data / "X_short.csv", SpatioTemporalTensor(x[:, :, :-6]))
        if before_encode:
            def encode(*args, **kwargs):
                raise AssertionError("encoded before checking the inputs")

            monkeypatch.setattr(cli, "encode_new", encode)
            monkeypatch.setattr(cli, "atom_removal_scan", encode)
        out = tmp_path / "o"
        if command == "evaluate":
            argv = ["evaluate", "--truth", data / "X_full.csv", "--pred", data / "X_full.csv",
                    "--offset", 5]
        else:
            cfg = {"model": str(model), "y": str(data / "Y_full.csv"),
                   "x_true": str(data / "X_full.csv"), "sweeps": 2, "sub_iters": 10}
            cfg.update({k: str(data / v) if isinstance(v, str) else v
                        for k, v in overrides.items()})
            (tmp_path / "c.json").write_text(json.dumps(cfg))
            argv = [command, "--config", tmp_path / "c.json"]
        assert run_cli(*argv, "--out", out) == 2
        assert f"input error: {want.format(data=data)}" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_command(self, tmp_path):
        data, model, w, h, T = self.make_pipeline(tmp_path)
        out = tmp_path / "ev"
        assert run_cli("evaluate", "--truth", data / "X_full.csv",
                       "--pred", data / "X_full.csv", "--out", out) == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["nse"] == 1.0

    def test_atom_scan_cli(self, tmp_path):
        # reuse the library fixture through files
        from test_forecast import noise_atom_fixture
        from freqfact.io import write_matrix

        model_obj, x_full, y_full, T = noise_atom_fixture(50)
        data = tmp_path / "d"
        data.mkdir()
        write_tensor(data / "X.csv", SpatioTemporalTensor(x_full[:, None, :]))
        write_tensor(data / "Y.csv", SpatioTemporalTensor(y_full[:, None, :]))
        model = tmp_path / "m"
        model.mkdir()
        write_matrix(model / "W.csv", model_obj.W)
        write_matrix(model / "Wp.csv", model_obj.Wp)
        write_matrix(model / "H.csv", model_obj.H)
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps({
            "model": str(model),
            "y": str(data / "Y.csv"),
            "x_true": str(data / "X.csv"),
            "penalty": {"kind": "ridge", "lambda": 0.0},
            "seed": 0,
        }))
        out = tmp_path / "scan"
        assert run_cli("atom-scan", "--config", cfg, "--out", out) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0].startswith("stf-scan-v1,")
        assert lines[1] == "atom,nse_after,delta"
        assert lines[2].startswith("baseline,")
        assert len(lines) == 2 + 4  # header, columns, baseline + 3 atoms
        top = lines[3].split(",")
        assert top[0] == "2"
        assert float(top[2]) > 0.0

    def test_atom_scan_checks_the_auxiliary_period_before_encoding(self, tmp_path, capsys,
                                                                    monkeypatch):
        import freqfact.forecast as forecast

        data, model, w, h, T = self.make_pipeline(tmp_path)
        y = read_tensor(data / "Y_full.csv").values
        write_tensor(data / "Y_train.csv", SpatioTemporalTensor(y[:, :, :T]))

        def encode(*args, **kwargs):
            raise AssertionError("encoded before checking the inputs")

        monkeypatch.setattr(forecast, "encode_new", encode)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": str(model), "y": str(data / "Y_train.csv"),
                                   "x_true": str(data / "X_full.csv")}))
        out = tmp_path / "o"
        assert run_cli("atom-scan", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert "input error: auxiliary period (40) does not extend two columns past T=40" in err
        assert not out.exists()

    def test_one_column_forecast_without_truth(self, tmp_path):
        data, model, w, h, T = self.make_pipeline(tmp_path)
        y = read_tensor(data / "Y_full.csv").values
        write_tensor(data / "Y_one.csv", SpatioTemporalTensor(y[:, :, :T + 1]))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": str(model), "y": str(data / "Y_one.csv"),
                                   "sweeps": 2, "sub_iters": 10}))
        out = tmp_path / "o"
        assert run_cli("forecast", "--config", cfg, "--out", out) == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["columns_predicted"] == 1 and metrics["nse"] is None

    def test_atom_scan_of_one_atom_exits_2_without_output(self, tmp_path, capsys):
        from freqfact.io import write_matrix

        data, model, w, h, T = self.make_pipeline(tmp_path)
        for name, m in [("W", w[:, :1]), ("Wp", read_matrix(model / "Wp.csv")[:, :1]),
                        ("H", h[:1, :T])]:
            write_matrix(model / f"{name}.csv", m)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": str(model), "y": str(data / "Y_full.csv"),
                                   "x_true": str(data / "X_full.csv")}))
        out = tmp_path / "o"
        assert run_cli("atom-scan", "--config", cfg, "--out", out) == 2
        assert "input error: atom removal needs at least two atoms" in capsys.readouterr().err
        assert not out.exists()

    def test_atom_scan_scores_the_window_forecast_scores(self, tmp_path):
        # an auxiliary period of 46 columns against a 52-column truth: both
        # commands score truth columns T to 46, so the scan's baseline is
        # the forecast's NSE
        data, model, w, h, T = self.make_pipeline(tmp_path)
        y = read_tensor(data / "Y_full.csv").values
        write_tensor(data / "Y_short.csv", SpatioTemporalTensor(y[:, :, :46]))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": str(model), "y": str(data / "Y_short.csv"),
                                   "x_true": str(data / "X_full.csv"),
                                   "penalty": {"kind": "ridge", "lambda": 0.0},
                                   "sweeps": 2, "sub_iters": 10}))
        assert run_cli("forecast", "--config", cfg, "--out", tmp_path / "fc") == 0
        assert run_cli("atom-scan", "--config", cfg, "--out", tmp_path / "scan") == 0
        lines = (tmp_path / "scan" / "scan.csv").read_text().splitlines()
        atom, nse_after, delta = lines[2].split(",")
        assert atom == "baseline" and delta == "0.0"
        assert float(nse_after) == read_json(tmp_path / "fc" / "metrics.json")["nse"]

    def test_atom_scan_with_fixed_mask(self, tmp_path):
        # each removal re-encodes with the removed atom's mask row dropped too
        from test_forecast import noise_atom_fixture
        from freqfact import FrequencyMask
        from freqfact.io import write_matrix

        model_obj, x_full, y_full, T = noise_atom_fixture(50)
        Ttot = y_full.shape[1]
        data = tmp_path / "d"
        data.mkdir()
        write_tensor(data / "X.csv", SpatioTemporalTensor(x_full[:, None, :]))
        write_tensor(data / "Y.csv", SpatioTemporalTensor(y_full[:, None, :]))
        model = tmp_path / "m"
        model.mkdir()
        write_matrix(model / "W.csv", model_obj.W)
        write_matrix(model / "Wp.csv", model_obj.Wp)
        write_matrix(model / "H.csv", model_obj.H)
        mask = FrequencyMask.same(3, Ttot, [0, 4, 7])
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps({
            "model": str(model),
            "y": str(data / "Y.csv"),
            "x_true": str(data / "X.csv"),
            "penalty": {"kind": "hard_freq", "mask": {"T": Ttot, "kept": [list(r) for r in mask.kept]}},
            "sweeps": 4, "sub_iters": 25, "seed": 0,
        }))
        out = tmp_path / "scan"
        assert run_cli("atom-scan", "--config", cfg, "--out", out) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "stf-scan-v1,4"
        assert len(lines) == 2 + 4  # header, columns, baseline + 3 atoms
        assert sorted(ln.split(",")[0] for ln in lines[3:]) == ["0", "1", "2"]

    def test_fixed_mask_hard_pipeline_needs_no_variant(self, tmp_path):
        # a hard_freq penalty with a fixed mask encodes with the prox step by
        # default, as factorize does
        data = synth_dataset(tmp_path, d=8, T=40, freqs=(2, 5), sigma=0.1, x_sigma=0.1)

        def hard_mask(T):
            kept = [list(r) for r in FrequencyMask.same(2, T, [0, 2, 5]).kept]
            return {"kind": "hard_freq", "mask": {"T": T, "kept": kept}}

        model = factorize(tmp_path, data, "hard_mask", variant="hard", penalty=hard_mask(30),
                          train_t=30, n_iters=4, sub_iters=10)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "x_true": str(data / "X.csv"), "penalty": hard_mask(40), "sweeps": 3, "sub_iters": 10,
        }))
        assert run_cli("forecast", "--config", cfg, "--out", tmp_path / "fc") == 0
        assert np.isfinite(read_json(tmp_path / "fc" / "metrics.json")["nse"])
        assert run_cli("atom-scan", "--config", cfg, "--out", tmp_path / "scan") == 0

    def test_empty_model_matrix_exits_2(self, tmp_path, capsys):
        data, model, w, h, T = self.make_pipeline(tmp_path)
        (model / "H.csv").write_text("")
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({"model": str(model), "y": str(data / "Y_full.csv")}))
        assert run_cli("forecast", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{model / 'H.csv'}: line 1: empty file" in err

    def test_empty_text_tensor_exits_2(self, tmp_path, capsys):
        data, model, w, h, T = self.make_pipeline(tmp_path)
        (data / "Y_full.csv").write_text("")
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({"model": str(model), "y": str(data / "Y_full.csv")}))
        assert run_cli("forecast", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{data / 'Y_full.csv'}: line 1: empty file" in err

    def test_atom_scan_single_atom_exits_2(self, tmp_path):
        from freqfact.io import write_matrix

        rng = np.random.default_rng(1)
        model = tmp_path / "m"
        model.mkdir()
        write_matrix(model / "W.csv", rng.standard_normal((4, 1)))
        write_matrix(model / "Wp.csv", rng.standard_normal((4, 1)))
        write_matrix(model / "H.csv", np.abs(rng.standard_normal((1, 6))))
        data = tmp_path / "d"
        data.mkdir()
        write_tensor(data / "Y.csv", SpatioTemporalTensor(np.ones((4, 1, 10))))
        write_tensor(data / "X.csv", SpatioTemporalTensor(np.ones((4, 1, 10))))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": str(data / "Y.csv"), "x_true": str(data / "X.csv"),
        }))
        assert run_cli("atom-scan", "--config", cfg, "--out", tmp_path / "o") == 2


class TestTimeMasks:
    """Inputs that keep different original times over the span they share
    would pair column k of one with a different time in the other."""

    def masked_world(self, tmp_path, masked=("Y0.csv", "Y1.csv")):
        data = synth_dataset(tmp_path, d=8, T=40, freqs=(2, 5), sigma=0.1, x_sigma=0.1)
        for name in masked:
            t = read_tensor(data / name)
            keep = np.ones(t.dims[2], dtype=bool)
            keep[5] = False
            write_tensor(data / name, SpatioTemporalTensor(t.values, keep))
        return data

    def forecast_cfg(self, tmp_path, data, model):
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "x_true": str(data / "X.csv"), "penalty": {"kind": "ridge", "lambda": 0.0},
            "sweeps": 2, "sub_iters": 5,
        }))
        return cfg

    def test_factorize_rejects_mixed_masks(self, tmp_path, capsys):
        data = self.masked_world(tmp_path)
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({
            "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "train_t": 30, "n_iters": 2, "sub_iters": 5,
        }))
        out = tmp_path / "o"
        assert run_cli("factorize", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert str(data / "X.csv") in err and str(data / "Y0.csv") in err
        assert "original time 5" in err
        assert not out.exists()

    def test_grid_rejects_mixed_masks_before_any_point(self, tmp_path, capsys):
        data = self.masked_world(tmp_path)
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({
            "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "train_t": 30, "n_iters": 2, "sub_iters": 5, "grid": [{"xi": 0.5}, {"xi": 1.0}],
        }))
        out = tmp_path / "o"
        assert run_cli("factorize", "--config", cfg, "--out", out, "--jobs", 2) == 2
        assert "original time 5" in capsys.readouterr().err
        assert not out.exists()

    def test_forecast_and_atom_scan_reject_mixed_masks(self, tmp_path, capsys):
        data = self.masked_world(tmp_path)
        model = factorize(tmp_path, data, x=str(data / "Y0.csv"), train_t=30, n_iters=2,
                          sub_iters=5)
        cfg = self.forecast_cfg(tmp_path, data, model)
        for cmd in ("forecast", "atom-scan"):
            out = tmp_path / cmd
            assert run_cli(cmd, "--config", cfg, "--out", out) == 2
            err = capsys.readouterr().err
            assert str(data / "X.csv") in err and str(data / "Y0.csv") in err
            assert not out.exists()

    def test_evaluate_rejects_mixed_masks(self, tmp_path, capsys):
        data = self.masked_world(tmp_path)
        out = tmp_path / "ev"
        assert run_cli("evaluate", "--truth", data / "X.csv", "--pred", data / "Y0.csv",
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert str(data / "X.csv") in err and str(data / "Y0.csv") in err
        assert not out.exists()

    def test_same_masks_and_shorter_unmasked_span_pass(self, tmp_path):
        data = self.masked_world(tmp_path, masked=("X.csv", "Y0.csv", "Y1.csv"))
        model = factorize(tmp_path, data, train_t=30, n_iters=2, sub_iters=5)
        cfg = self.forecast_cfg(tmp_path, data, model)
        assert run_cli("forecast", "--config", cfg, "--out", tmp_path / "fc") == 0
        # an unmasked prediction window placed on unmasked truth times
        values = read_tensor(data / "X.csv").values
        write_tensor(tmp_path / "head.csv", SpatioTemporalTensor(values[:, :, :5]))
        write_tensor(tmp_path / "tail.csv", SpatioTemporalTensor(values[:, :, 30:]))
        assert run_cli("evaluate", "--truth", data / "X.csv", "--pred", tmp_path / "head.csv",
                       "--offset", 0, "--out", tmp_path / "ev") == 0
        assert run_cli("evaluate", "--truth", data / "X.csv", "--pred", tmp_path / "tail.csv",
                       "--out", tmp_path / "ev_tail") == 0
        assert read_json(tmp_path / "ev_tail" / "metrics.json")["nse"] == 1.0
        # the same window placed across the masked time
        assert run_cli("evaluate", "--truth", data / "X.csv", "--pred", tmp_path / "head.csv",
                       "--offset", 3, "--out", tmp_path / "ev_gap") == 2


class TestOverflowingForecast:
    def test_exits_3_without_metrics(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, d=8, T=40, freqs=(2, 5), sigma=0.1, x_sigma=0.1)
        model = factorize(tmp_path, data, train_t=30, n_iters=2, sub_iters=5)
        for name in ("Y0.csv", "Y1.csv"):
            t = read_tensor(data / name)
            write_tensor(data / f"big_{name}", SpatioTemporalTensor(1e160 * t.values))
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": [str(data / "big_Y0.csv"), str(data / "big_Y1.csv")],
            "x_true": str(data / "X.csv"), "penalty": {"kind": "soft_freq", "lambda": 1.0},
            "lam_over_xi": 0.1, "sweeps": 3, "sub_iters": 10,
        }))
        out = tmp_path / "fc"
        assert run_cli("forecast", "--config", cfg, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "numerical failure: encode_new: non-finite objective at outer iteration 1" in err
        assert not (out / "metrics.json").exists()


def section_id(value):
    # a section keeps the test id its config class gave it before the schema
    # replaced the classes, so runs stay comparable by name
    if value in ("factorize", "forecast"):
        return f"{value.capitalize()}Config"
    return None


class TestValidatedInputs:
    """Configs and models that would otherwise run on nonsense exit 2, name
    the field or file, and write nothing."""

    @pytest.mark.parametrize("command", ["forecast", "atom-scan"])
    @pytest.mark.parametrize("field_name", ["sweeps", "sub_iters"])
    def test_zero_encode_iterations_exit_2(self, tmp_path, capsys, command, field_name):
        data, model, w, h, T = TestForecastCli().make_pipeline(tmp_path)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": str(data / "Y_full.csv"),
            "x_true": str(data / "X_full.csv"), field_name: 0,
        }))
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", out) == 2
        assert f"config field '{field_name}' must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["forecast", "atom-scan"])
    @pytest.mark.parametrize("name, axis, want", [
        ("Wp.csv", 1, "Wp.csv has 4 columns, but W.csv has 2"),
        ("H.csv", 0, "H.csv has 4 rows, but W.csv has 2 columns"),
    ])
    def test_model_with_disagreeing_atoms_exits_2(self, tmp_path, capsys, command, name, axis,
                                                  want):
        from freqfact.io import write_matrix

        data, model, w, h, T = TestForecastCli().make_pipeline(tmp_path)
        write_matrix(model / name, np.concatenate([read_matrix(model / name)] * 2, axis=axis))
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": str(data / "Y_full.csv"), "x_true": str(data / "X_full.csv"),
        }))
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", out) == 2
        assert f"{model}/{want}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["forecast", "atom-scan"])
    def test_code_cut_short_of_train_t_exits_2(self, tmp_path, capsys, command):
        from freqfact.io import write_matrix

        data = synth_dataset(tmp_path, d=8, T=40, freqs=(2, 5), sigma=0.1, x_sigma=0.1)
        model = factorize(tmp_path, data, train_t=30, n_iters=2, sub_iters=5)
        write_matrix(model / "H.csv", read_matrix(model / "H.csv")[:, :10])
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(model), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
            "x_true": str(data / "X.csv"), "sweeps": 2, "sub_iters": 5,
        }))
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{model / 'H.csv'} has 10 columns" in err and "train_t = 30" in err
        assert not out.exists()

    @pytest.mark.parametrize("section, name, value, want", [
        ("factorize", "r", "2", "an int"),
        ("factorize", "r", 2.0, "an int"),
        ("factorize", "r", True, "an int"),
        ("factorize", "R", "3", "an int or null"),
        ("factorize", "seed", 1.5, "an int"),
        ("factorize", "n_iters", None, "an int"),
        ("factorize", "xi", "1", "a number"),
        ("factorize", "xi", False, "a number"),
        ("factorize", "tol", "1e-6", "a number or null"),
        ("factorize", "variant", 1, "a string or null"),
        ("factorize", "x", None, "a string"),
        ("factorize", "train_t", 30.0, "an int or null"),
        ("forecast", "sweeps", "3", "an int"),
        ("forecast", "seed", 1.5, "an int"),
        ("forecast", "lam_over_xi", "0.1", "a number"),
        ("forecast", "variant", 2, "a string or null"),
        ("forecast", "x_true", 1, "a string or null"),
        ("forecast", "a", 2.5, "an int or null"),
    ], ids=section_id)
    def test_mistyped_scalar_names_the_field(self, section, name, value, want):
        with pytest.raises(ValueError, match=f"config field '{name}' must be {want}, got"):
            check_config(section, {name: value})

    @pytest.mark.parametrize("section, fields", [
        ("factorize", {"x": "x.csv", "y": "y.csv", "xi": 1, "tol": 0, "lambda1": 2, "R": None,
                       "train_t": None}),
        ("forecast", {"model": "m", "y": "y.csv", "lam_over_xi": 0, "x_true": None,
                      "variant": None, "a": 3}),
    ], ids=section_id)
    def test_ints_stand_for_floats_and_null_for_optionals(self, section, fields):
        cfg = check_config(section, fields)
        assert all(getattr(cfg, k) == v for k, v in fields.items())

    @pytest.mark.parametrize("overrides, want", [
        ({"n_iters": 0}, "config field 'n_iters' must be >= 1, got 0"),
        ({"sub_iters": 0}, "config field 'sub_iters' must be >= 1, got 0"),
        ({"penalty": "soft"}, "config field 'penalty' must be an object, got str 'soft'"),
        ({"penalty": {"kind": "soft_freq", "lambda": "1.0"}},
         "config field 'penalty.lambda' must be a number, got str '1.0'"),
        ({"penalty": {"kind": "hard_freq", "R": 2.5}, "variant": "hard"},
         "config field 'penalty.R' must be an int or null, got float 2.5"),
        ({"penalty": {"kind": "ridge", "lambda": -1}},
         "config field 'penalty.lambda' must be >= 0, got -1"),
        ({"grid": [{"xi": 1.0}, {"sub_iters": 0}]}, "config field 'sub_iters' must be >= 1, got 0"),
        ({"grid": [{"xi": 1.0}, {"penalty": {"kind": "soft"}}]},
         "config field 'penalty.kind' must be one of ('ridge', 'lasso', 'soft_freq', 'hard_freq'), "
         "got 'soft'"),
    ], ids=["n_iters", "sub_iters", "penalty", "penalty.lambda", "penalty.R", "negative-lambda",
            "grid-point", "grid-point-kind"])
    def test_factorize_config_field_exits_2(self, tmp_path, capsys, overrides, want):
        data = synth_dataset(tmp_path, d=8, T=40, freqs=(2, 5))
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"x": str(data / "X.csv"), "y": str(data / "Y0.csv"),
                                   **overrides}))
        out = tmp_path / "o"
        assert run_cli("factorize", "--config", cfg, "--out", out) == 2
        assert want in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, want", [
        ("synth", {"freqs": [3.5, 7]}, "config field 'freqs[0]' must be an int, got float 3.5"),
        ("synth", {"freqs": [7, True]}, "config field 'freqs[1]' must be an int, got bool True"),
        ("synth", {"freqs": 5}, "config field 'freqs' must be a list, got int 5"),
        ("forecast", {"model": "m", "y": [5]}, "config field 'y[0]' must be a string, got int 5"),
        ("forecast", {"model": "m", "y": 5},
         "config field 'y' must be a list or a string, got int 5"),
        ("factorize", {"x": "x.csv", "grid": [5]},
         "config field 'grid[0]' must be an object, got int 5"),
        ("factorize", {"x": "x.csv", "penalty": {"kind": "hard_freq", "mask": {"T": 8.0}}},
         "config field 'penalty.mask.T' must be an int, got float 8.0"),
        ("atom-scan", {"model": "m", "penalty": {"kind": "hard_freq",
                                                 "mask": {"T": 8, "kept": [[0], [0, 1.5]]}}},
         "config field 'penalty.mask.kept[1][1]' must be an int, got float 1.5"),
        ("forecast", {"model": "m", "penalty": {"kind": "hard_freq", "mask": [0]}},
         "config field 'penalty.mask' must be an object or null, got list [0]"),
    ], ids=["freqs-float", "freqs-bool", "freqs-scalar", "y-item", "y-scalar", "grid-item",
            "mask-T", "mask-kept", "mask-list"])
    def test_mistyped_list_field_exits_2_naming_the_index(self, tmp_path, capsys, command,
                                                         config, want):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", out) == 2
        assert want in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["forecast", "atom-scan"])
    def test_removed_code_step_variant_exits_2(self, tmp_path, capsys, command):
        data, model, w, h, T = TestForecastCli().make_pipeline(tmp_path)
        for variant in ("pgd", "tos"):
            cfg = tmp_path / "fc.json"
            cfg.write_text(json.dumps({
                "model": str(model), "y": str(data / "Y_full.csv"),
                "x_true": str(data / "X_full.csv"), "variant": variant,
            }))
            out = tmp_path / "o"
            assert run_cli(command, "--config", cfg, "--out", out) == 2
            assert (f"config field 'variant' must be 'prox' for this penalty, got {variant!r}"
                    in capsys.readouterr().err)
            assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_1_exits_2_naming_the_flag(self, tmp_path, capsys, jobs):
        data = synth_dataset(tmp_path, d=8, T=40, freqs=(2, 5))
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"x": str(data / "X.csv"), "y": str(data / "Y0.csv"),
                                   "n_iters": 2, "sub_iters": 5,
                                   "grid": [{"xi": 0.5}, {"xi": 1.0}]}))
        out = tmp_path / "o"
        assert run_cli("factorize", "--config", cfg, "--out", out, "--jobs", jobs) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_text_exits_2_naming_file_and_line(self, tmp_path, capsys):
        data, model, w, h, T = TestForecastCli().make_pipeline(tmp_path)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({"model": str(model), "y": str(data / "Y_full.csv")}))
        for path in (data / "Y_full.csv", model / "H.csv"):
            good = path.read_bytes()
            lines = good.split(b"\n")
            path.write_bytes(b"\n".join(lines[:2] + [b"1.0\xff"] + lines[3:]))
            out = tmp_path / "o"
            assert run_cli("forecast", "--config", cfg, "--out", out) == 2
            assert f"{path}: line 3: not UTF-8 text" in capsys.readouterr().err
            assert not out.exists()
            path.write_bytes(good)

    NONFINITE = [float("nan"), float("inf"), float("-inf")]

    @staticmethod
    def nonfinite_exits_2(tmp_path, capsys, command, config, field_name, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))  # NaN and Infinity, as JSON parsers accept them
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", out) == 2
        assert (f"config field '{field_name}' must be a finite number, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", NONFINITE, ids=repr)
    @pytest.mark.parametrize("field_name", ["sigma", "x_sigma"])
    def test_nonfinite_synth_field_exits_2(self, tmp_path, capsys, field_name, value):
        self.nonfinite_exits_2(tmp_path, capsys, "synth", {"d": 4, "T": 12, field_name: value},
                               field_name, value)

    @pytest.mark.parametrize("value", NONFINITE, ids=repr)
    @pytest.mark.parametrize("field_name", ["xi", "tol", "lambda1", "lambda2", "penalty.lambda",
                                            "grid-point xi"])
    def test_nonfinite_factorize_field_exits_2(self, tmp_path, capsys, field_name, value):
        data = synth_dataset(tmp_path, d=8, T=40, freqs=(2, 5))
        config = {"x": str(data / "X.csv"), "y": str(data / "Y0.csv"), "n_iters": 2}
        if field_name == "penalty.lambda":
            config["penalty"] = {"kind": "soft_freq", "lambda": value}
        elif field_name == "grid-point xi":
            config["grid"] = [{"xi": 1.0}, {"xi": value}]
            field_name = "xi"
        else:
            config[field_name] = value
        self.nonfinite_exits_2(tmp_path, capsys, "factorize", config, field_name, value)

    @pytest.mark.parametrize("value", NONFINITE, ids=repr)
    @pytest.mark.parametrize("command", ["forecast", "atom-scan"])
    @pytest.mark.parametrize("field_name", ["lam_over_xi", "penalty.lambda"])
    def test_nonfinite_encode_field_exits_2(self, tmp_path, capsys, command, field_name, value):
        data, model, w, h, T = TestForecastCli().make_pipeline(tmp_path)
        config = {"model": str(model), "y": str(data / "Y_full.csv"),
                  "x_true": str(data / "X_full.csv")}
        if field_name == "penalty.lambda":
            config["penalty"] = {"kind": "ridge", "lambda": value}
        else:
            config[field_name] = value
        self.nonfinite_exits_2(tmp_path, capsys, command, config, field_name, value)

    def test_negative_tol_exits_2(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, d=8, T=40, freqs=(2, 5))
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"x": str(data / "X.csv"), "y": str(data / "Y0.csv"),
                                   "tol": -1e-6}))
        assert run_cli("factorize", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "config field 'tol' must be >= 0, got -1e-06" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mistyped_seed_exits_2_naming_the_field(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, d=8, T=40, freqs=(2, 5))
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"x": str(data / "X.csv"), "y": str(data / "Y0.csv"),
                                   "seed": 1.5}))
        assert run_cli("factorize", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "config field 'seed' must be an int, got float 1.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRestatedFields:
    """``variant`` and ``R`` only restate what the penalty fixes: agreeing
    they change nothing, disagreeing they exit 2 naming the field."""

    HARD = {"kind": "hard_freq", "R": 2}

    def world(self, tmp_path):
        data = synth_dataset(tmp_path, d=8, T=48, freqs=(3, 7), sigma=0.2, x_sigma=0.2)
        ys = [str(data / "Y0.csv"), str(data / "Y1.csv")]
        fac = {"x": str(data / "X.csv"), "y": ys, "r": 3, "xi": 0.5, "penalty": self.HARD,
               "variant": "hard", "train_t": 36, "n_iters": 3, "sub_iters": 10, "seed": 0}
        fc = {"y": ys, "x_true": str(data / "X.csv"), "penalty": self.HARD, "sweeps": 3,
              "sub_iters": 10, "seed": 1}
        return fac, fc

    def run(self, tmp_path, command, cfg, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        return run_cli(command, "--config", path, "--out", out), out

    def test_restating_changes_no_output(self, tmp_path):
        fac, fc = self.world(tmp_path)
        models = []
        for name, extra in (("plain", {}), ("restated", {"R": 2})):
            code, model = self.run(tmp_path, "factorize", {**fac, **extra}, f"model_{name}")
            assert code == 0
            models.append(model)
        for f in ("W.csv", "Wp.csv", "H.csv"):
            assert (models[0] / f).read_bytes() == (models[1] / f).read_bytes()
        # report.json records the config, R included, and otherwise agrees
        reports = [read_json(m / "report.json") for m in models]
        assert reports[0]["report"] == reports[1]["report"]
        assert reports[0]["report"]["extras"]["variant"] == "heuristic"
        for command in ("forecast", "atom-scan"):
            outs = []
            for name, extra in (("plain", {}), ("restated", {"variant": "heuristic", "R": 2})):
                code, out = self.run(tmp_path, command, {**fc, **extra, "model": str(models[0])},
                                     f"{command}_{name}")
                assert code == 0
                outs.append(out)
            files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
            assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                                   if p.is_file())
            assert all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)

    def test_hard_factorize_needs_no_variant(self, tmp_path):
        # the penalty picks the driver: "variant": "hard" only restates it
        fac, _ = self.world(tmp_path)
        models = []
        for name, extra in (("plain", {}), ("restated", {"variant": "hard"})):
            cfg = {k: v for k, v in fac.items() if k != "variant"}
            code, model = self.run(tmp_path, "factorize", {**cfg, **extra}, f"model_{name}")
            assert code == 0
            models.append(model)
        for f in ("W.csv", "Wp.csv", "H.csv"):
            assert (models[0] / f).read_bytes() == (models[1] / f).read_bytes()
        reports = [read_json(m / "report.json") for m in models]
        assert [r["config"]["variant"] for r in reports] == [None, "hard"]
        assert reports[0]["report"] == reports[1]["report"]

    @pytest.mark.parametrize("command, extra, want", [
        ("factorize", {"variant": "bcd"}, "config field 'variant' must be 'hard' for this "
                                          "penalty, got 'bcd'"),
        ("factorize", {"penalty": {"kind": "soft_freq", "lambda": 1.0}},
         "config field 'variant' must be 'bcd' for this penalty, got 'hard'"),
        ("factorize", {"R": 3}, "config field 'R' must equal penalty.R (2), got 3"),
        ("factorize", {"grid": [{"xi": 1.0}, {"R": 3}]},
         "config field 'R' must equal penalty.R (2), got 3"),
        ("forecast", {"variant": "prox"}, "config field 'variant' must be 'heuristic' for this "
                                          "penalty, got 'prox'"),
        ("forecast", {"penalty": {"kind": "soft_freq", "lambda": 1.0}, "variant": "heuristic",
                      "R": 2}, "config field 'variant' must be 'prox' for this penalty, "
                               "got 'heuristic'"),
        ("forecast", {"R": 3}, "config field 'R' must equal penalty.R (2), got 3"),
        ("atom-scan", {"variant": "prox"}, "config field 'variant' must be 'heuristic' for "
                                           "this penalty, got 'prox'"),
        ("atom-scan", {"penalty": {"kind": "ridge", "lambda": 0.0}, "R": 2},
         "config field 'R' must equal penalty.R (None), got 2"),
    ], ids=["factorize-variant", "factorize-soft-hard", "factorize-R", "factorize-grid-R",
            "forecast-variant", "forecast-soft-heuristic", "forecast-R", "atom-scan-variant",
            "atom-scan-R"])
    def test_disagreement_exits_2_naming_the_field(self, tmp_path, capsys, command, extra, want):
        fac, fc = self.world(tmp_path)
        if command != "factorize":
            code, model = self.run(tmp_path, "factorize", fac, "model")
            assert code == 0
            fac = {**fc, "model": str(model)}
        code, out = self.run(tmp_path, command, {**fac, **extra}, "o")
        assert code == 2
        assert want in capsys.readouterr().err
        assert not out.exists()


def test_benchmark_workload_configs_load_and_agree():
    # the benchmark's configs are read here, never edited: a config format
    # change that would break a workload fails this test first
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    names = {w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    assert set(workloads.WORKLOADS) == names
    paths = {"x": "X.csv", "y": ["Y0.csv", "Y1.csv"]}
    for w in workloads.WORKLOADS.values():
        check_config("synth", w.synth)
        cfg = cli._factorize_config({**w.factorize, **paths})
        base = {k: v for k, v in vars(cfg).items() if k != "grid"}
        for over in cfg.grid or []:
            cli._factorize_config({**base, **over})
        fc = check_config("forecast", {**w.forecast, "model": "model", "y": paths["y"],
                                       "x_true": "X.csv"})
        cli._encode_penalty(fc)


class TestConfigRoundTrip:
    @staticmethod
    def round_trips(section, d):
        cfg = check_config(section, d)
        assert check_config(section, vars(cfg)) == cfg
        assert {k: v for k, v in vars(cfg).items() if k in d} == d

    def test_factorize_config(self):
        self.round_trips("factorize", {"x": "a.csv", "y": ["b.csv"], "r": 3, "xi": 2.0,
                                       "penalty": {"kind": "lasso", "lambda": 0.5},
                                       "n_iters": 7, "sub_iters": 9, "seed": 42,
                                       "variant": "bcd"})

    def test_forecast_config(self):
        self.round_trips("forecast", {"model": "m", "y": "y.csv", "x_true": None,
                                      "penalty": {"kind": "soft_freq", "lambda": 2.0},
                                      "lam_over_xi": 0.125, "sweeps": 10, "sub_iters": 20,
                                      "seed": 3})

    def test_synth_config(self):
        self.round_trips("synth", {"d": 4, "T": 20, "freqs": [2, 7], "sigma": 0.5,
                                   "x_sigma": 0.0, "seed": 9})

    def test_penalty_round_trip_with_mask(self):
        from freqfact import Penalty

        p = penalty_from_dict({"kind": "hard_freq", "lambda": 0.0,
                               "mask": {"T": 8, "kept": [[0, 2, 6]]}})
        assert p == Penalty.hard_freq(mask=FrequencyMask(8, ((0, 2, 6),)))
        assert penalty_from_dict({"kind": "lasso"}) == Penalty.lasso(0.0)
        with pytest.raises(ValueError):
            penalty_from_dict({"kind": "ridge", "lambda": 0.0, "gamma": 1.0})


SCHEMA = json.loads((Path(cli.__file__).parent / "config_schema.json").read_text())
SECTIONS = {k for k, v in SCHEMA.items() if isinstance(v, dict)}


def test_config_schema_checks_itself():
    # config_schema.json is the one statement of every config field, so it
    # must be well formed by its own rules
    from freqfact.regularization import KINDS

    assert SCHEMA["format"] == "stf-config-schema-v2"
    assert SECTIONS == {"penalty", "mask", "factorize", "forecast", "synth"}
    assert tuple(SCHEMA["penalty"]["kind"]["enum"]) == KINDS

    def passes(section, name, value):
        # present fields are checked before required ones are looked for
        try:
            check_config(section, {name: value})
        except ValueError as exc:
            assert str(exc).endswith("is required"), f"{section}.{name}: {exc}"

    for section in SECTIONS:
        for name, spec in SCHEMA[section].items():
            where = f"{section}.{name}"
            assert set(spec) <= {"type", "default", "min", "max", "enum", "doc"}, where
            assert spec["type"] and spec["doc"], where
            alts = spec["type"].split("|")
            for kind in alts:
                kind = kind.strip("[]")
                kinds = {"int", "number", "string", "path", "object", "null"} | SECTIONS
                assert kind in kinds, where
            if "default" in spec:
                passes(section, name, spec["default"])
            if "min" in spec or "max" in spec:
                assert set(alts) - {"null"} <= {"int", "number"}, where
            if "min" in spec and "max" in spec:
                assert spec["min"] <= spec["max"], where
            for value in spec.get("enum", []):
                passes(section, name, value)
    assert list(vars(check_config("synth", {}))) == list(SCHEMA["synth"])
    with pytest.raises(ValueError, match="config field 'x' is required"):
        check_config("factorize", {})


COMMANDS = ("synth", "factorize", "forecast", "atom-scan")


@pytest.mark.parametrize("text, want", [
    (b'{"seed":\n  x}', "line 2, column 3: Expecting value"),
    (b"\xff{}", "line 1: not UTF-8 text"),
    (b"5", "a config must be a JSON object, got int"),
    (b"[1, 2]", "a config must be a JSON object, got list"),
    (b'{"seed": 2, "seed": 3}', "duplicate key 'seed'"),
], ids=["malformed", "non-utf8", "scalar", "list", "duplicate-key"])
@pytest.mark.parametrize("seed", [None, 4], ids=["", "seed"])
@pytest.mark.parametrize("command", COMMANDS)
def test_broken_config_file_exits_2_naming_it(tmp_path, capsys, command, seed, text, want):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(text)
    out = tmp_path / "o"
    argv = [command, "--config", cfg, "--out", out] + ([] if seed is None else ["--seed", seed])
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: {want}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, field_name", [
    ("factorize", {"x": "X.csv"}, "y"),
    ("factorize", {"y": "Y0.csv"}, "x"),
    ("forecast", {"model": "model"}, "y"),
    ("forecast", {"y": "Y0.csv"}, "model"),
    ("atom-scan", {"model": "model", "x_true": "X.csv"}, "y"),
])
def test_missing_input_path_names_the_field(tmp_path, capsys, command, config, field_name):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    assert f"config field '{field_name}' is required" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, field_name", [
    ("factorize", {"x": "", "y": "Y0.csv"}, "x"),
    ("factorize", {"x": "X.csv", "y": ""}, "y"),
    ("factorize", {"x": "X.csv", "y": ["Y0.csv", ""]}, "y[1]"),
    ("forecast", {"model": "", "y": "Y0.csv"}, "model"),
    ("forecast", {"model": "model", "y": ["", "Y1.csv"]}, "y[0]"),
    ("forecast", {"model": "model", "y": "Y0.csv", "x_true": ""}, "x_true"),
    ("atom-scan", {"model": "model", "y": "Y0.csv", "x_true": ""}, "x_true"),
])
def test_empty_input_path_names_the_field(tmp_path, capsys, command, config, field_name):
    # the empty path is the working directory, which read as "Is a directory"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    assert f"config field '{field_name}' must be a nonempty path, got ''" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--config", "", "--out", "o"], "config"),
    (["synth", "--out", ""], "out"),
    (["factorize", "--config", "", "--out", "o"], "config"),
    (["evaluate", "--truth", "", "--pred", "p.csv", "--out", "o"], "truth"),
    (["evaluate", "--truth", "t.csv", "--pred", "", "--out", "o"], "pred"),
    (["evaluate", "--truth", "t.csv", "--pred", "t.csv", "--out", ""], "out"),
], ids=["synth-config", "synth-out", "factorize-config", "evaluate-truth", "evaluate-pred",
        "evaluate-out"])
def test_empty_path_flag_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv, flag):
    # the empty path names the working directory: synth --out "" wrote its
    # files there, and synth --config "" ran the default spec
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    assert f"input error: --{flag} must be a nonempty path, got ''" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, config, want", [
    (["synth", "--seed", "-1"], {}, "config field 'seed' must be >= 0, got -1"),
    (["synth", "--seed", "99999999999999999999999"], {},
     "config field 'seed' must be <= 18446744073709551615, got 99999999999999999999999"),
    (["synth"], {"seed": 2**64},
     "config field 'seed' must be <= 18446744073709551615, got 18446744073709551616"),
    (["factorize", "--seed", "-1"], {"x": "X.csv", "y": "Y.csv"},
     "config field 'seed' must be >= 0, got -1"),
    (["factorize"], {"x": "X.csv", "y": "Y.csv", "grid": [{"xi": 1.0}, {"seed": -5}]},
     "grid[1]: config field 'seed' must be >= 0, got -5"),
    (["forecast"], {"model": "m", "y": "Y.csv", "seed": -3},
     "config field 'seed' must be >= 0, got -3"),
    (["atom-scan", "--seed", str(2**64)], {"model": "m", "y": "Y.csv", "x_true": "X.csv"},
     "config field 'seed' must be <= 18446744073709551615"),
], ids=["synth-flag-negative", "synth-flag-huge", "synth-config-2^64", "factorize-flag-negative",
        "grid-point-negative", "forecast-negative", "atom-scan-flag-2^64"])
def test_seed_outside_64_bits_exits_2_naming_the_field(tmp_path, capsys, argv, config, want):
    # no input file exists: the seed is checked before any is read
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli(*argv, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert want in err
    assert "Traceback" not in err and not out.exists()


def test_largest_64_bit_seed_runs(tmp_path):
    assert run_cli("synth", "--seed", 2**64 - 1, "--out", tmp_path / "o") == 0


VALID = {
    "synth": {"d": 4, "T": 12, "freqs": [2, 5], "sigma": 0.0, "x_sigma": 0.5, "seed": 1},
    "factorize": {"x": "X.csv", "y": ["Y0.csv", "Y1.csv"], "r": 2, "xi": 0.5,
                  "penalty": {"kind": "hard_freq", "lambda": 0.0, "R": 2}, "n_iters": 2,
                  "sub_iters": 5, "seed": 0, "variant": "hard", "R": 2, "priority": "nonneg",
                  "lambda1": 0.0, "lambda2": 0.0, "tol": 1e-6, "train_t": 10,
                  "grid": [{"xi": 1.0}]},
    "forecast": {"model": "model", "y": "Y.csv", "x_true": "X.csv",
                 "penalty": {"kind": "soft_freq", "lambda": 1.0}, "lam_over_xi": 0.1,
                 "sweeps": 2, "sub_iters": 5, "seed": 0, "variant": "prox", "R": None,
                 "a": 2, "b": 2},
}
VALID["atom-scan"] = VALID["forecast"]
BAD_VALUES = ["x", 0.5, True, [1], {"a": 1}, float("nan"), float("inf"), float("-inf"), -1,
              "bogus", "", [""], 2**64]


def breaks(spec, value) -> bool:
    """Whether ``value`` breaks a schema field's type, min or enum, decided
    apart from the checker: no candidate dict fits a section."""
    def fits(kinds, v):
        for kind in kinds.split("|"):
            if kind.startswith("["):
                if type(v) is list and all(fits(kind[1:-1], item) for item in v):
                    return True
            elif {"int": type(v) is int, "string": type(v) is str, "null": v is None,
                  "path": type(v) is str and v != "",
                  "number": type(v) in (int, float) and math.isfinite(v),
                  "object": type(v) is dict}.get(kind, False):
                return True
        return False

    if not fits(spec["type"], value):
        return True
    return value is not None and ("min" in spec and value < spec["min"]
                                  or "max" in spec and value > spec["max"]
                                  or "enum" in spec and value not in spec["enum"])


@st.composite
def broken_configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    config = json.loads(json.dumps(VALID[command]))
    section = "forecast" if command == "atom-scan" else command
    mode = draw(st.sampled_from(["replace", "unknown", "truncate"]))
    if mode == "unknown":
        key = draw(st.sampled_from(["bogus", "lamda", "Seed"]))
        config[key] = 1
        return command, json.dumps(config).encode(), key
    if mode == "truncate":
        text = json.dumps(config).encode()
        return command, text[: draw(st.integers(0, len(text) - 1))], None
    fields = [(name, spec, config) for name, spec in SCHEMA[section].items()]
    if "penalty" in config:
        fields += [(f"penalty.{name}", spec, config["penalty"])
                   for name, spec in SCHEMA["penalty"].items()]
    path, spec, where = draw(st.sampled_from(fields))
    value = draw(st.sampled_from([v for v in BAD_VALUES if breaks(spec, v)]))
    where[path.rsplit(".", 1)[-1]] = value
    return command, json.dumps(config).encode(), path


@settings(max_examples=100, deadline=None)
@given(case=broken_configs())
def test_fuzzed_config_exits_2_naming_the_field_or_file(tmp_path_factory, case):
    # every case fails before any input is read, so no input file exists
    command, text, field_name = case
    d = tmp_path_factory.mktemp("fuzz")
    cfg, out = d / "c.json", d / "o"
    cfg.write_bytes(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli(command, "--config", cfg, "--out", out) == 2
    err = err.getvalue()
    assert "Traceback" not in err
    if field_name is None:
        assert f"{cfg}: line 1, column " in err
    else:
        assert f"'{field_name}" in err or f"for {field_name}:" in err
    assert not out.exists()


def test_env_log_level_tolerates_unknown(tmp_path, monkeypatch):
    monkeypatch.setenv("STF_LOG", "noisy")
    out = tmp_path / "o"
    assert run_cli("synth", "--out", out, "--seed", 3) == 0


def test_mu_summary_of_an_all_zero_code_is_empty():
    # no live row: no ratio matrix, no median and no infinite entries
    assert cli._mu_summary(np.zeros((3, 8))) == (None, None, 0)


class TestOutputPaths:
    """An output path that is a regular file, and inputs whose row counts
    disagree, exit 2 with one stderr line before any file is written."""

    def pipeline(self, tmp_path):
        """The forecast pipeline's data and model, and an argv per
        subcommand that writes to ``--out``."""
        data, model, w, h, T = TestForecastCli().make_pipeline(tmp_path)
        fc = tmp_path / "fc.json"
        fc.write_text(json.dumps({"model": str(model), "y": str(data / "Y_full.csv"),
                                  "x_true": str(data / "X_full.csv"), "sweeps": 2,
                                  "sub_iters": 5}))
        fz = tmp_path / "fz.json"
        fz.write_text(json.dumps({"x": str(data / "X_full.csv"), "y": str(data / "Y_full.csv"),
                                  "r": 2, "xi": 0.5, "penalty": {"kind": "ridge", "lambda": 0.1},
                                  "n_iters": 2, "sub_iters": 5}))
        sy = tmp_path / "sy.json"
        sy.write_text(json.dumps({"d": 4, "T": 20, "freqs": [3]}))
        return data, model, {
            "synth": ["synth", "--config", sy],
            "factorize": ["factorize", "--config", fz],
            "forecast": ["forecast", "--config", fc],
            "evaluate": ["evaluate", "--truth", data / "X_full.csv",
                         "--pred", data / "X_full.csv"],
            "atom-scan": ["atom-scan", "--config", fc],
        }

    @pytest.mark.parametrize("command", ["synth", "factorize", "forecast", "evaluate",
                                         "atom-scan"])
    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys, command):
        data, model, argv = self.pipeline(tmp_path)
        out = tmp_path / "o"
        out.write_bytes(b"keep")
        assert run_cli(*argv[command], "--out", out) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("freqfact: input error: ") and str(out) in line
        assert out.read_bytes() == b"keep"

    def test_pred_that_is_a_file_exits_2(self, tmp_path, capsys):
        data, model, argv = self.pipeline(tmp_path)
        out = tmp_path / "o"
        out.mkdir()
        (out / "pred").write_bytes(b"keep")
        assert run_cli(*argv["forecast"], "--out", out) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("freqfact: input error: ") and str(out / "pred") in line
        assert [p.name for p in out.rglob("*")] == ["pred"]

    def test_grid_point_that_is_a_file_exits_2(self, tmp_path, capsys):
        data, model, argv = self.pipeline(tmp_path)
        grid = tmp_path / "grid.json"
        cfg = json.loads((tmp_path / "fz.json").read_text())
        grid.write_text(json.dumps({**cfg, "grid": [{"xi": 0.5}, {"xi": 1.0}]}))
        out = tmp_path / "o"
        out.mkdir()
        (out / "point_001").write_bytes(b"keep")
        assert run_cli("factorize", "--config", grid, "--out", out) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("freqfact: input error: ") and str(out / "point_001") in line
        assert [p.name for p in out.rglob("*") if p.is_file()] == ["point_001"]

    @pytest.mark.parametrize("command", ["forecast", "atom-scan"])
    @pytest.mark.parametrize("field", ["y", "x_true"])
    def test_row_mismatch_names_both_files(self, tmp_path, capsys, monkeypatch, command, field):
        data, model, argv = self.pipeline(tmp_path)
        source = data / ("Y_full.csv" if field == "y" else "X_full.csv")
        short = data / "short.csv"
        write_tensor(short, SpatioTemporalTensor(read_tensor(source).values[:4]))
        cfg = json.loads((tmp_path / "fc.json").read_text())
        (tmp_path / "fc.json").write_text(json.dumps({**cfg, field: str(short)}))

        def encode(*args, **kwargs):
            raise AssertionError("encoded before checking the rows")

        monkeypatch.setattr(cli, "encode_new", encode)
        monkeypatch.setattr(cli, "atom_removal_scan", encode)
        out = tmp_path / "o"
        assert run_cli(*argv[command], "--out", out) == 2
        if field == "y":
            want = (f"{short}: the auxiliary tensors stack to 4 rows, "
                    f"but {model / 'Wp.csv'} has 8")
        else:
            want = f"{short}: the truth tensor has 4 rows, but {model / 'W.csv'} has 8"
        assert capsys.readouterr().err == f"freqfact: input error: {want}\n"
        assert not out.exists()

    def test_evaluate_row_mismatch_names_both_files(self, tmp_path, capsys):
        data, model, argv = self.pipeline(tmp_path)
        truth = data / "X_full.csv"
        pred = data / "pred.csv"
        write_tensor(pred, SpatioTemporalTensor(read_tensor(truth).values[:4]))
        out = tmp_path / "o"
        assert run_cli("evaluate", "--truth", truth, "--pred", pred, "--out", out) == 2
        want = f"{pred}: the prediction has 4 rows, but {truth} has 8"
        assert capsys.readouterr().err == f"freqfact: input error: {want}\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["forecast", "atom-scan"])
def test_ignored_penalty_lambda_logs_one_warning(tmp_path, caplog, command):
    # encoding weighs its penalty by lam_over_xi, so penalty.lambda moves no output
    data, model, argv = TestOutputPaths().pipeline(tmp_path)
    cfg = json.loads((tmp_path / "fc.json").read_text())
    outputs, warnings = [], []
    for lam in (0.0, 1.5):
        (tmp_path / "fc.json").write_text(json.dumps(
            {**cfg, "penalty": {"kind": "ridge", "lambda": lam}, "lam_over_xi": 0.1}))
        out = tmp_path / f"o{lam}"
        caplog.clear()
        assert run_cli(*argv[command], "--out", out) == 0
        warnings.append([r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING])
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert warnings == [[], ["config field 'penalty.lambda' (1.5) is ignored: encoding weighs "
                             "its penalty by 'lam_over_xi' (0.1)"]]
    assert outputs[0] == outputs[1]
