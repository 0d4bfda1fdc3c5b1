import re

import numpy as np
import pytest

from freqfact import (
    ConvergenceError,
    SingularGramError,
    SyntheticSpec,
    closed_form_code,
    dft_rows,
    gen_cosine_mixture,
    norm_descent_experiment,
)


class TestCosineMixture:
    def test_noise_free_auxiliaries_are_rank_one(self):
        spec = SyntheticSpec(d=6, T=40, freqs=(5, 3), sigma=0.0, x_sigma=0.0, seed=1)
        _, (y0, y1) = gen_cosine_mixture(spec)
        assert np.linalg.matrix_rank(y0) == 1
        assert np.linalg.matrix_rank(y1) == 1

    def test_noise_free_spectral_support(self):
        spec = SyntheticSpec(d=4, sigma=0.0, x_sigma=0.0, seed=2)  # T=163, freqs (14, 6)
        _, (y0, _) = gen_cosine_mixture(spec)
        s = np.abs(dft_rows(y0))
        support = {14, 163 - 14}
        for row in s:
            live = set(np.flatnonzero(row > 1e-10).tolist())
            assert live == support

    def test_noise_free_main_psd_peaks(self):
        spec = SyntheticSpec(d=5, sigma=0.0, x_sigma=0.0, seed=3)
        x, _ = gen_cosine_mixture(spec)
        s = np.abs(dft_rows(x))
        for row in s:
            live = set(np.flatnonzero(row > 1e-10).tolist())
            assert live == {6, 14, 163 - 14, 163 - 6}

    def test_seed_reproducibility(self):
        spec = SyntheticSpec(d=7, T=50, freqs=(4, 9), sigma=1.5, x_sigma=1.0, seed=11)
        x1, ys1 = gen_cosine_mixture(spec)
        x2, ys2 = gen_cosine_mixture(spec)
        assert np.array_equal(x1, x2)
        for a, b in zip(ys1, ys2):
            assert np.array_equal(a, b)

    def test_one_auxiliary_per_cycle(self):
        spec = SyntheticSpec(d=3, T=30, freqs=(2, 5, 7), sigma=0.0, x_sigma=0.0, seed=4)
        _, ys = gen_cosine_mixture(spec)
        assert len(ys) == 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(d=0)
        with pytest.raises(ValueError):
            SyntheticSpec(d=2, freqs=())
        with pytest.raises(ValueError):
            SyntheticSpec(d=2, T=20, freqs=(10,))
        with pytest.raises(ValueError):
            SyntheticSpec(d=2, sigma=-0.5)


class TestClosedFormCode:
    def test_mismatch_vanishes_when_aux_equals_main(self):
        rng = np.random.default_rng(50)
        w = rng.standard_normal((5, 2))
        x = rng.standard_normal((5, 8))
        out = closed_form_code(w, w, x, x, xi=2.0)
        # both solves run on the same stack, so the terms agree to the bit
        assert not out.mismatch.any()
        assert np.array_equal(out.code, out.x_term)

    def test_terms_sum_to_direct_solve(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            d, r, T = 4, 2, 9
            S = int(rng.integers(1, 4))
            w = rng.standard_normal((d, r))
            wp = rng.standard_normal((S * d, r))
            x = rng.standard_normal((d, T))
            y = rng.standard_normal((S * d, T))
            xi = float(rng.random() * 5)
            out = closed_form_code(w, wp, x, y, xi)
            sq = np.sqrt(xi)
            wbar = np.vstack([w, sq * wp])
            xbar = np.vstack([x, sq * y])
            direct = np.linalg.solve(wbar.T @ wbar, wbar.T @ xbar)
            assert np.allclose(out.code, direct, atol=1e-8)
            assert np.allclose(out.x_term + out.mismatch, direct, atol=1e-8)

    @pytest.mark.parametrize("S", [0, 1, 2, 3])
    def test_x_term_solves_the_stack_with_x_for_every_auxiliary(self, S):
        rng = np.random.default_rng(53 + S)
        d, r, T, xi = 4, 3, 9, 1.7
        w = rng.standard_normal((d, r))
        wp = rng.standard_normal((S * d, r))
        x = rng.standard_normal((d, T))
        y = rng.standard_normal((S * d, T))
        out = closed_form_code(w, wp, x, y, xi)
        wbar = np.vstack([w, np.sqrt(xi) * wp])
        xbar = np.vstack([x] + [np.sqrt(xi) * x] * S)
        want = np.linalg.solve(wbar.T @ wbar, wbar.T @ xbar)
        assert np.max(np.abs(out.x_term - want)) <= 1e-10

    def test_zero_supervision_reduces_to_main_fit(self):
        rng = np.random.default_rng(52)
        w = rng.standard_normal((6, 2))
        wp = rng.standard_normal((6, 2))
        x = rng.standard_normal((6, 7))
        y = rng.standard_normal((6, 7))
        out = closed_form_code(w, wp, x, y, xi=0.0)
        direct = np.linalg.solve(w.T @ w, w.T @ x)
        assert np.allclose(out.code, direct, atol=1e-10)
        assert not out.mismatch.any()

    def test_singular_stack_rejected(self):
        w = np.ones((3, 2))  # duplicated atoms
        with pytest.raises(SingularGramError, match="^code Gram matrix is singular"):
            closed_form_code(w, w, np.ones((3, 4)), np.ones((3, 4)), 1.0)

    def test_block_shape_validated(self):
        with pytest.raises(ValueError):
            closed_form_code(np.ones((3, 1)), np.ones((4, 1)), np.ones((3, 2)), np.ones((4, 2)), 1.0)


INPUT_CHECKS = {
    "closed_form_xi": (lambda: closed_form_code(np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 2)),
                                                np.ones((3, 2)), -1.0),
                       "xi must be nonnegative"),
    "closed_form_widths": (lambda: closed_form_code(np.ones((3, 2)), np.ones((3, 3)),
                                                    np.ones((3, 4)), np.ones((3, 4)), 1.0),
                           "W has 2 atoms and Wp has 3; both dictionaries need one column per "
                           "atom"),
    "descent_threshold": (lambda: norm_descent_experiment(np.ones((1, 4)), "l1", 0.0, 10),
                          "threshold must be positive"),
}


@pytest.mark.parametrize("name", list(INPUT_CHECKS))
def test_input_check_raises_its_message(name):
    call, message = INPUT_CHECKS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestNormDescent:
    def test_stops_exactly_at_max_steps(self):
        # ||H||_F halves each step: 2, 1, 0.5, then 0.25 < 0.3 after the last
        h0 = np.ones((1, 4))
        res = norm_descent_experiment(h0, "frobenius", 0.3, 3, rate=0.5)
        assert res.steps_taken == 3 and len(res.trajectory) == 4
        assert np.array_equal(res.final, 0.125 * h0)
        with pytest.raises(ConvergenceError, match=r"still above 0\.3 after 2 steps$"):
            norm_descent_experiment(h0, "frobenius", 0.3, 2, rate=0.5)

    def test_final_spectrum_is_the_last_iterates(self):
        res = norm_descent_experiment(np.arange(1.0, 7.0).reshape(1, 6), "l1", 1.0, 100)
        assert np.array_equal(res.final_spectrum, dft_rows(res.trajectory[-1]))

    def test_zero_start_returns_immediately(self):
        res = norm_descent_experiment(np.zeros((1, 8)), "frobenius", 0.5, 100)
        assert len(res.trajectory) == 1
        assert res.steps_taken == 0

    def test_frobenius_rule_decays_geometrically(self):
        h0 = np.full((1, 6), 4.0)
        res = norm_descent_experiment(h0, "frobenius", 0.1, 200, rate=0.1)
        for j, h in enumerate(res.trajectory):
            assert np.allclose(h, 0.9**j * h0, rtol=1e-10)

    def test_trajectories_stay_nonnegative(self):
        rng = np.random.default_rng(53)
        h0 = np.abs(rng.standard_normal((1, 30))) + 0.5
        for norm in ("frobenius", "l1", "minkowski"):
            res = norm_descent_experiment(h0, norm, 2.0, 5000)
            for h in res.trajectory[1:]:
                assert np.all(h >= 0.0)

    def test_minkowski_rule_suppresses_nondominant_frequencies(self):
        # single noisy tone, descend each norm until ||H||_F < 3, compare the
        # spectral mass left outside {DC, +-tone}.  The ordering is a
        # qualitative, noise-realization-dependent effect (roughly 6/10 seeds
        # at the default rates), so this pins one strong-margin fixture.
        rng = np.random.default_rng(4)
        T = 30
        k = np.arange(T)
        h0 = (np.cos(10 * np.pi * k / 30) + rng.random(T)).reshape(1, T)

        def offtone_mass(h):
            amps = np.abs(dft_rows(h))[0]
            keep = {0, 5, 25}
            return sum(a for i, a in enumerate(amps) if i not in keep)

        frob = norm_descent_experiment(h0, "frobenius", 3.0, 10000)
        mink = norm_descent_experiment(h0, "minkowski", 3.0, 10000)
        assert offtone_mass(mink.final) < offtone_mass(frob.final)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError):
            norm_descent_experiment(np.full((1, 4), 100.0), "frobenius", 1e-6, 3, rate=0.01)

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            norm_descent_experiment(np.ones((1, 4)), "nuclear", 1.0, 10)
