import numpy as np
import pytest

from freqfact import (
    EncodeConfig,
    FactorModel,
    FrequencyMask,
    Hyper,
    Penalty,
    atom_removal_scan,
    encode_new,
    nse,
    predict,
)

from helpers import nnls_columns


def noise_atom_fixture(seed):
    """Two clean periodic atoms plus one pure-noise atom whose auxiliary
    column is orthogonal to the signal span; the auxiliary data carries a
    nonnegative noise series through that column, so encoding loads it and
    the main-side noise column corrupts the prediction until removed."""
    rng = np.random.default_rng(seed)
    d, T, Ttot = 15, 48, 60
    t = np.arange(Ttot)
    h_sig = np.vstack(
        [1.0 + np.cos(2 * np.pi * 4 * t / Ttot), 0.8 + 0.8 * np.cos(2 * np.pi * 7 * t / Ttot)]
    )
    w_sig = rng.standard_normal((d, 2))
    wp_sig = rng.standard_normal((d, 2))
    x_full = w_sig @ h_sig
    wn = rng.standard_normal((d, 1))
    wpn = rng.standard_normal((d, 1))
    q, _ = np.linalg.qr(wp_sig)
    wpn = wpn - q @ (q.T @ wpn)
    wpn *= np.sqrt(d) / np.linalg.norm(wpn)
    eta = np.abs(rng.standard_normal((1, Ttot)))
    y_full = wp_sig @ h_sig + 0.8 * wpn @ eta + 0.02 * rng.standard_normal((d, Ttot))
    w = np.hstack([w_sig, wn])
    wp = np.hstack([wp_sig, wpn])
    h_train = np.abs(rng.standard_normal((3, T)))  # placeholder training code
    model = FactorModel(w, wp, h_train, Hyper(3, 1.0, Penalty.ridge(0.0)))
    return model, x_full, y_full, T


class TestEncode:
    def test_identity_dictionary_clamps(self):
        rng = np.random.default_rng(60)
        y = rng.standard_normal((3, 7))
        h, _ = encode_new(y, np.eye(3), Penalty.ridge(0.0), 0.0, EncodeConfig(seed=1))
        assert np.allclose(h, np.maximum(y, 0.0), atol=1e-10)

    def test_recovers_nonnegative_code(self):
        rng = np.random.default_rng(61)
        wp = rng.standard_normal((8, 3))
        h_true = np.abs(rng.standard_normal((3, 20)))
        y = wp @ h_true
        h, _ = encode_new(y, wp, Penalty.ridge(0.0), 0.0, EncodeConfig(seed=2))
        assert np.linalg.norm(y - wp @ h) / np.linalg.norm(y) <= 1e-3

    def test_vanishing_penalty_matches_reference_nnls(self):
        rng = np.random.default_rng(62)
        wp = rng.standard_normal((8, 3))
        y = wp @ np.abs(rng.standard_normal((3, 12))) + 0.1 * rng.standard_normal((8, 12))
        h, _ = encode_new(y, wp, Penalty.soft_freq(1.0), 1e-300, EncodeConfig(sweeps=200, seed=3))
        ref = nnls_columns(wp, y)
        assert np.linalg.norm(h - ref) / np.linalg.norm(ref) <= 1e-6

    def test_output_nonnegative_all_variants(self):
        rng = np.random.default_rng(63)
        wp = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 16))
        for penalty, cfg in [
            (Penalty.soft_freq(0.5), EncodeConfig(sweeps=5, seed=4)),
            (Penalty.hard_freq(R=2), EncodeConfig(sweeps=5, seed=4)),
            (
                Penalty.hard_freq(R=2, mask=FrequencyMask.same(2, 16, [0, 2])),
                EncodeConfig(sweeps=5, seed=4, variant="tos"),
            ),
        ]:
            h, _ = encode_new(y, wp, penalty, 0.3, cfg)
            assert np.all(h >= 0.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(64)
        wp = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 9))
        h1, _ = encode_new(y, wp, Penalty.lasso(0.1), 0.1, EncodeConfig(sweeps=3, seed=9))
        h2, _ = encode_new(y, wp, Penalty.lasso(0.1), 0.1, EncodeConfig(sweeps=3, seed=9))
        assert np.array_equal(h1, h2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            encode_new(np.ones((2, 2)), np.ones((2, 1)), Penalty.ridge(0.0), -0.1)


class TestPredict:
    def test_zero_code_gives_zero_tensor(self):
        t = predict(np.ones((6, 2)), np.zeros((2, 4)), 3, 2)
        assert t.dims == (3, 2, 4)
        assert np.all(t.values == 0.0)

    def test_single_atom_traces_code(self):
        w = np.array([[1.0], [0.0]])
        t = predict(w, np.array([[1.0, 2.0]]), 2, 1)
        assert t.values[0, 0].tolist() == [1.0, 2.0]
        assert np.all(t.values[1] == 0.0)

    def test_compose_with_encode_on_consistent_data(self):
        rng = np.random.default_rng(65)
        A, B, r, T, Ttot = 4, 2, 2, 30, 40
        d = A * B
        tgrid = np.arange(Ttot)
        h_true = np.vstack(
            [1.0 + np.cos(2 * np.pi * 3 * tgrid / Ttot), 1.0 + np.sin(2 * np.pi * 5 * tgrid / Ttot)]
        )
        w = rng.standard_normal((d, r))
        wp = rng.standard_normal((d, r))
        x_full = w @ h_true
        y_full = wp @ h_true
        h_new, _ = encode_new(y_full, wp, Penalty.ridge(0.0), 0.0, EncodeConfig(seed=5))
        pred = predict(w, h_new[:, T:], A, B)
        truth = x_full[:, T:]
        rel = np.linalg.norm(pred.values.reshape(d, -1) - truth) / np.linalg.norm(truth)
        assert rel <= 1e-2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            predict(np.ones((4, 2)), np.ones((3, 5)), 2, 2)


class TestNse:
    def test_perfect_prediction_scores_exactly_one(self):
        rng = np.random.default_rng(66)
        x = rng.standard_normal((5, 8))
        assert nse(x, x) == 1.0

    def test_temporal_mean_predictor_scores_zero(self):
        rng = np.random.default_rng(67)
        x = rng.standard_normal((5, 8))
        rec = np.repeat(x.mean(axis=(0, 1)).reshape(1, 1), 8, axis=1)
        rec = np.repeat(rec, 5, axis=0)
        assert abs(nse(x, rec)) <= 1e-12

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(68)
        x = rng.standard_normal((4, 9))
        rec = rng.standard_normal((4, 9))
        m, mr = x.mean(axis=0), rec.mean(axis=0)
        want = 1.0 - np.sum((m - mr) ** 2) / np.sum((m - m.mean()) ** 2)
        assert np.isclose(nse(x, rec), want, rtol=1e-12)

    def test_invariant_to_common_shift(self):
        rng = np.random.default_rng(69)
        x = rng.standard_normal((4, 9))
        rec = rng.standard_normal((4, 9))
        assert np.isclose(nse(x + 5.0, rec + 5.0), nse(x, rec), rtol=1e-9)

    def test_constant_truth_rejected(self):
        with pytest.raises(ValueError):
            nse(np.ones((3, 5)), np.zeros((3, 5)))
        with pytest.raises(ValueError):
            nse(np.ones((3, 1)), np.ones((3, 1)))


class TestAtomRemovalScan:
    def test_noise_atom_tops_the_ranking(self):
        model, x_full, y_full, T = noise_atom_fixture(50)
        entries = atom_removal_scan(model, x_full, y_full, Penalty.ridge(0.0), 0.0,
                                    EncodeConfig(seed=0))
        assert len(entries) == model.hyper.r + 1
        baseline = entries[0]
        assert baseline.atom is None and baseline.delta == 0.0
        top = entries[1]
        assert top.atom == 2  # the injected noise atom
        assert top.delta > 0.0

    def test_all_signal_atoms_only_hurt(self):
        rng = np.random.default_rng(70)
        d, T, Ttot = 10, 30, 40
        t = np.arange(Ttot)
        h_true = np.vstack(
            [1.0 + np.cos(2 * np.pi * 3 * t / Ttot), 1.0 + 0.6 * np.sin(2 * np.pi * 5 * t / Ttot)]
        )
        w = rng.standard_normal((d, 2))
        wp = rng.standard_normal((d, 2))
        model = FactorModel(w, wp, np.abs(rng.standard_normal((2, T))),
                            Hyper(2, 1.0, Penalty.ridge(0.0)))
        entries = atom_removal_scan(model, w @ h_true, wp @ h_true, Penalty.ridge(0.0), 0.0,
                                    EncodeConfig(seed=1))
        baseline = entries[0].nse_after
        for e in entries[1:]:
            assert e.nse_after < baseline
            assert e.delta < 0.0

    def test_baseline_equals_unmodified_pipeline(self):
        model, x_full, y_full, T = noise_atom_fixture(51)
        cfg = EncodeConfig(seed=3)
        entries = atom_removal_scan(model, x_full, y_full, Penalty.ridge(0.0), 0.0, cfg)
        h_new, _ = encode_new(y_full, model.Wp, Penalty.ridge(0.0), 0.0, cfg)
        want = nse(x_full[:, T:], (model.W @ h_new)[:, T:])
        assert entries[0].nse_after == want

    def test_single_atom_rejected(self):
        rng = np.random.default_rng(71)
        model = FactorModel(rng.standard_normal((4, 1)), rng.standard_normal((4, 1)),
                            np.abs(rng.standard_normal((1, 6))), Hyper(1, 1.0, Penalty.ridge(0.0)))
        with pytest.raises(ValueError):
            atom_removal_scan(model, np.ones((4, 10)), np.ones((4, 10)), Penalty.ridge(0.0))
