import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqfact.forecast as forecast
import freqfact.solvers as solvers
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


def assert_fit_rule_score(got, y, wp, h, penalty):
    """``got``, an encode's score of code ``h``, against the fit's rule for
    ||Y - Wp H||_F^2 plus the scored ``penalty``: within 1e-12 relative of
    the exact residual above _GRAM_EXACT_BELOW ||Y||^2, where the Gram form
    scores it, and bit for bit at or below.  Returns whether the residual
    was above that fraction."""
    exact = solvers._sq_residual(y, wp, h)
    want = exact + solvers._scored_penalty(h, penalty)
    above = exact > solvers._GRAM_EXACT_BELOW * float(np.sum(y**2))
    if above:
        assert abs(got - want) <= 1e-12 * want
    else:
        assert got == want
    return above


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
    @pytest.mark.parametrize("widths", [(3,), (3, 2, 2)], ids=["flat", "sequence"])
    @pytest.mark.parametrize("kind", ["ridge", "lasso", "soft_freq", "heuristic", "fixed_mask"])
    def test_objective_is_the_exact_score_of_the_code(self, kind, widths):
        # one value per encode, by the rule the fit keeps its codes by; a
        # sequence of dictionaries of unequal widths encodes one call each,
        # as the atom scan does
        rng = np.random.default_rng(67)
        y = np.abs(rng.standard_normal((9, 24)))  # noisy: no exact fit exists
        cfg = EncodeConfig(sweeps=3, sub_iters=10, seed=8)
        for wp in [rng.standard_normal((9, k)) for k in widths]:
            penalty = {
                "ridge": Penalty.ridge(1.0),
                "lasso": Penalty.lasso(1.0),
                "soft_freq": Penalty.soft_freq(1.0),
                "heuristic": Penalty.hard_freq(R=2),
                "fixed_mask": Penalty.hard_freq(mask=FrequencyMask.same(wp.shape[1], 24, [0, 2])),
            }[kind]
            h, report = encode_new(y, wp, penalty, 0.7, cfg)
            assert len(report.objective_trace) == 1
            assert assert_fit_rule_score(report.objective_trace[0], y, wp, h,
                                         replace(penalty, lam=0.7))
            # the encode keeps nothing else its code step reports
            assert report.extras == {} and len(report.step_trace) == 1

    @pytest.mark.parametrize("flat", [True, False], ids=["flat", "sequence"])
    def test_an_exact_rank_encode_is_scored_by_the_exact_rule(self, flat):
        # Y in the cone of Wp: the code fits it to rounding, far below the
        # fraction, where the Gram form would read cancellation noise; a
        # sequence also encodes against a reordered, rescaled Wp
        rng = np.random.default_rng(5)
        wp = np.abs(rng.standard_normal((12, 3)))
        y = wp @ np.abs(rng.standard_normal((3, 30)))
        for w in [wp] if flat else [wp, 2.0 * wp[:, ::-1]]:
            h, report = encode_new(y, w, Penalty.ridge(0.0), 0.0,
                                   EncodeConfig(sweeps=20, sub_iters=50, seed=1))
            assert not assert_fit_rule_score(report.objective_trace[0], y, w, h,
                                             Penalty.ridge(0.0))
            assert solvers._sq_residual(y, w, h) < 1e-20 * np.sum(y**2)

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
                EncodeConfig(sweeps=5, seed=4),
            ),
        ]:
            h, _ = encode_new(y, wp, penalty, 0.3, cfg)
            assert np.all(h >= 0.0)

    @pytest.mark.parametrize("penalty", [Penalty.ridge(1.0), Penalty.lasso(1.0),
                                         Penalty.soft_freq(1.0)], ids=lambda p: p.kind)
    def test_convex_penalties_encode_in_one_prox_round(self, penalty):
        rng = np.random.default_rng(66)
        wp = rng.standard_normal((12, 3))
        t = np.arange(64)
        h_true = 1.0 + np.vstack([np.cos(2 * np.pi * f * t / 64) for f in (3, 7, 11)])
        y = wp @ h_true + 0.3 * rng.standard_normal((12, 64))
        cfg = EncodeConfig(sweeps=20, sub_iters=50, seed=6)
        variant, _ = solvers.code_step(penalty)
        assert variant == "prox"
        _, long = encode_new(y, wp, penalty, 2.0, cfg)
        _, short = encode_new(y, wp, penalty, 2.0, replace(cfg, sweeps=1))
        # sweeps * sub_iters caps the one round; the residual stop ends it sooner
        assert len(long.objective_trace) == 1 and long.wall_iters < 1000
        assert short.wall_iters <= 50
        # both may have converged, to rounding
        assert long.objective_trace[-1] <= short.objective_trace[-1] * (1.0 + 1e-12)

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

    @pytest.mark.parametrize("field_name", ["sweeps", "sub_iters"])
    def test_zero_iterations_rejected(self, field_name):
        with pytest.raises(ValueError, match=f"{field_name} must be >= 1, got 0"):
            EncodeConfig(**{field_name: 0})


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
    @pytest.mark.parametrize("rec_shape", [(2, 4), (3, 3)])
    def test_shapes_must_agree(self, rec_shape):
        want = re.escape(f"shape mismatch: (2, 3) vs {rec_shape}")
        with pytest.raises(ValueError, match=f"^{want}$"):
            nse(np.zeros((2, 3)), np.zeros(rec_shape))

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

    @pytest.mark.parametrize("penalty, step", [
        (Penalty.hard_freq(R=2), "heuristic"),
        (Penalty.hard_freq(mask=FrequencyMask.same(3, 60, [0, 4, 7])), "prox"),
    ])
    def test_baseline_equals_unmodified_pipeline_hard(self, penalty, step):
        assert solvers.code_step(penalty)[0] == step
        model, x_full, y_full, T = noise_atom_fixture(52)
        cfg = EncodeConfig(sweeps=4, sub_iters=20, seed=3)
        entries = atom_removal_scan(model, x_full, y_full, penalty, 0.0, cfg)
        h_new, _ = encode_new(y_full, model.Wp, penalty, 0.0, cfg)
        want = nse(x_full[:, T:], (model.W @ h_new)[:, T:])
        assert entries[0].nse_after == want

    def test_scores_truth_columns_up_to_the_auxiliary_period(self):
        model, x_full, y_full, T = noise_atom_fixture(53)
        cfg = EncodeConfig(seed=3)
        end = T + (y_full.shape[1] - T) // 2
        want = atom_removal_scan(model, x_full[:, :end], y_full[:, :end], Penalty.ridge(0.0),
                                 0.0, cfg)
        assert atom_removal_scan(model, x_full, y_full[:, :end], Penalty.ridge(0.0), 0.0,
                                 cfg) == want

    @pytest.mark.parametrize("x_end, y_end, want", [
        (None, 0, "auxiliary period (48) does not extend two columns past T=48"),
        (None, 1, "auxiliary period (49) does not extend two columns past T=48"),
        (-1, None, "truth tensor shorter than auxiliary period (59 < 60 columns)"),
    ], ids=["aux-at-T", "aux-one-past-T", "truth-short"])
    def test_short_inputs_raise_before_encoding(self, monkeypatch, x_end, y_end, want):
        model, x_full, y_full, T = noise_atom_fixture(54)
        assert (T, y_full.shape[1]) == (48, 60)

        def encode(*args, **kwargs):
            raise AssertionError("encoded before checking the inputs")

        monkeypatch.setattr(forecast, "encode_new", encode)
        y_end = None if y_end is None else T + y_end
        with pytest.raises(ValueError, match=re.escape(want)):
            atom_removal_scan(model, x_full[:, :x_end], y_full[:, :y_end], Penalty.ridge(0.0))

    def test_single_atom_rejected(self):
        rng = np.random.default_rng(71)
        model = FactorModel(rng.standard_normal((4, 1)), rng.standard_normal((4, 1)),
                            np.abs(rng.standard_normal((1, 6))), Hyper(1, 1.0, Penalty.ridge(0.0)))
        with pytest.raises(ValueError):
            atom_removal_scan(model, np.ones((4, 10)), np.ones((4, 10)), Penalty.ridge(0.0))


def separate_scan(model, x_full, y_full, penalty, lam, cfg):
    """The scan as r + 1 separate 2-D encodes: baseline NSE and the NSE
    after removing each atom."""
    T = model.H.shape[1]

    def score(w, wp, pen):
        h, _ = encode_new(y_full, wp, pen, lam, cfg)
        return nse(x_full[:, T:], w @ h[:, T:])

    removed = []
    for s in range(model.hyper.r):
        pen = penalty if penalty.mask is None else replace(penalty, mask=penalty.mask.without_row(s))
        removed.append(score(np.delete(model.W, s, axis=1), np.delete(model.Wp, s, axis=1), pen))
    return score(model.W, model.Wp, penalty), removed


SCAN_KINDS = ["ridge", "lasso", "soft_freq", "heuristic", "fixed_mask"]


@st.composite
def scan_problems(draw, kinds=tuple(SCAN_KINDS)):
    """A model of r in 2..4 atoms trained on T in 8..40 columns, full-period
    data 2..8 columns longer, and an encode penalty of one of ``kinds``
    with its config."""
    r, T = draw(st.integers(2, 4)), draw(st.integers(8, 40))
    Ttot = T + draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = r + 3
    w, wp = rng.standard_normal((d, r)), rng.standard_normal((d, r))
    h_true = np.abs(rng.standard_normal((r, Ttot)))
    x_full = w @ h_true + 0.1 * rng.standard_normal((d, Ttot))
    y_full = wp @ h_true + 0.1 * rng.standard_normal((d, Ttot))
    model = FactorModel(w, wp, np.abs(rng.standard_normal((r, T))), Hyper(r, 1.0, Penalty.ridge(0.0)))
    kind = draw(st.sampled_from(kinds))
    penalty = {
        "ridge": Penalty.ridge(0.1),
        "lasso": Penalty.lasso(0.1),
        "soft_freq": Penalty.soft_freq(0.1),
        "heuristic": Penalty.hard_freq(R=2),
        "fixed_mask": Penalty.hard_freq(mask=FrequencyMask.same(r, Ttot, [0, 2])),
    }[kind]
    cfg = EncodeConfig(sweeps=draw(st.integers(1, 3)), sub_iters=draw(st.integers(1, 8)),
                       seed=draw(st.integers(0, 9)))
    return model, x_full, y_full, penalty, cfg


class TestStackedScan:
    """The scan encodes the baseline and each of the r removals, one encode
    per dictionary."""

    @pytest.mark.parametrize("kind", ["heuristic", "soft_freq", "fixed_mask"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_encode_per_dictionary_and_separate_results(self, kind, data):
        model, x_full, y_full, penalty, cfg = data.draw(scan_problems(kinds=(kind,)))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forecast, "encode_new", lambda *a, **kw: calls.append(
                np.shape(a[1])) or encode_new(*a, **kw))
            entries = atom_removal_scan(model, x_full, y_full, penalty, 0.2, cfg)
        d, r = model.Wp.shape
        assert calls == [(d, r)] + [(d, r - 1)] * r
        baseline, removed = separate_scan(model, x_full, y_full, penalty, 0.2, cfg)
        assert entries[0] == forecast.ScanEntry(None, baseline, 0.0)
        assert {e.atom: e.nse_after for e in entries[1:]} == dict(enumerate(removed))
        assert {e.atom: e.delta for e in entries[1:]} == {
            s: v - baseline for s, v in enumerate(removed)}
        assert [e.nse_after for e in entries[1:]] == sorted(removed, reverse=True)

    @settings(max_examples=30, deadline=None)
    @given(problem=scan_problems(kinds=("ridge", "lasso")))
    def test_time_domain_scan_equals_separate_encodes(self, problem):
        model, x_full, y_full, penalty, cfg = problem
        entries = atom_removal_scan(model, x_full, y_full, penalty, 0.2, cfg)
        baseline, removed = separate_scan(model, x_full, y_full, penalty, 0.2, cfg)
        assert entries[0].nse_after == baseline
        assert {e.atom: e.nse_after for e in entries[1:]} == dict(enumerate(removed))


def test_encode_scores_without_a_residual_block():
    # the Gram-form score forms no (S * d, T) residual while a fit leaves
    # more than the fraction of ||Y||^2; the exact rule forms one
    rng = np.random.default_rng(9)
    y = np.abs(rng.standard_normal((2 * 2000, 200)))
    wp = np.abs(rng.standard_normal((y.shape[0], 4)))
    tracemalloc.start()
    try:
        h, report = encode_new(y, wp, Penalty.ridge(0.1), 0.1, EncodeConfig(sweeps=2, sub_iters=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solvers._sq_residual(y, wp, h) > solvers._GRAM_EXACT_BELOW * np.sum(y**2)
    assert peak < y.nbytes
