import json

import numpy as np
import pytest

from freqfact import FrequencyMask, SpatioTemporalTensor
from freqfact.cli import (
    FactorizeConfig,
    ForecastConfig,
    SynthConfig,
    main,
    penalty_from_dict,
    penalty_to_dict,
)
from freqfact.io import read_json, read_matrix, read_tensor, write_tensor


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
            "r": 2, "xi": 1e300, "penalty": {"kind": "soft_freq", "lambda": 1.0},
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

    def test_missing_model_exits_2(self, tmp_path):
        data, model, w, h, T = self.make_pipeline(tmp_path)
        cfg = tmp_path / "fc.json"
        cfg.write_text(json.dumps({
            "model": str(tmp_path / "nope"),
            "y": str(data / "Y_full.csv"),
        }))
        assert run_cli("forecast", "--config", cfg, "--out", tmp_path / "o") == 2

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
            "variant": "tos", "sweeps": 4, "sub_iters": 25, "seed": 0,
        }))
        out = tmp_path / "scan"
        assert run_cli("atom-scan", "--config", cfg, "--out", out) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "stf-scan-v1,4"
        assert len(lines) == 2 + 4  # header, columns, baseline + 3 atoms
        assert sorted(ln.split(",")[0] for ln in lines[3:]) == ["0", "1", "2"]

    def test_fixed_mask_hard_pipeline_needs_no_variant(self, tmp_path):
        # a hard_freq penalty with a fixed mask encodes with the splitting
        # solver by default, as factorize does
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


class TestConfigRoundTrip:
    def test_factorize_config(self):
        cfg = FactorizeConfig(x="a.csv", y=["b.csv"], r=3, xi=2.0,
                              penalty={"kind": "lasso", "lambda": 0.5},
                              n_iters=7, sub_iters=9, seed=42, variant="bcd")
        assert FactorizeConfig.from_dict(cfg.to_dict()) == cfg

    def test_forecast_config(self):
        cfg = ForecastConfig(model="m", y="y.csv", x_true=None,
                             penalty={"kind": "soft_freq", "lambda": 2.0},
                             lam_over_xi=0.125, sweeps=10, sub_iters=20, seed=3)
        assert ForecastConfig.from_dict(cfg.to_dict()) == cfg

    def test_synth_config(self):
        cfg = SynthConfig(d=4, T=20, freqs=[2, 7], sigma=0.5, x_sigma=0.0, seed=9)
        assert SynthConfig.from_dict(cfg.to_dict()) == cfg

    def test_penalty_round_trip_with_mask(self):
        from freqfact import FrequencyMask

        p = penalty_from_dict({"kind": "hard_freq", "lambda": 0.0,
                               "mask": {"T": 8, "kept": [[0, 2, 6]]}})
        assert p.mask == FrequencyMask(8, ((0, 2, 6),))
        assert penalty_from_dict(penalty_to_dict(p)) == p
        with pytest.raises(ValueError):
            penalty_from_dict({"kind": "ridge", "lambda": 0.0, "gamma": 1.0})


def test_env_log_level_tolerates_unknown(tmp_path, monkeypatch):
    monkeypatch.setenv("STF_LOG", "noisy")
    out = tmp_path / "o"
    assert run_cli("synth", "--out", out, "--seed", 3) == 0
