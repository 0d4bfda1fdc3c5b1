import math
import re

import numpy as np
import pytest

import freqfact.solvers as solvers
from freqfact import (
    ConvergenceError,
    EncodeConfig,
    FactorModel,
    FrequencyMask,
    Hyper,
    Penalty,
    SingularGramError,
    SyntheticSpec,
    band_pursuit,
    code_step,
    encode_new,
    gen_cosine_mixture,
    inverse_usage_ratio,
    mask_distance,
    objective,
    offmask_ratio,
    penalty_value,
    project_frequency_mask,
    solve_H_band,
    solve_H_prox,
    solve_W,
    ssnmf_bcd,
    ssnmf_hard,
    three_operator_splitting,
)
from freqfact.regularization import HARD_FEASIBILITY_RTOL

from helpers import dft_definitional, minkowski_definitional, nnls_columns, normal_terms
from test_acceptance import _tos_instance, _tos_reference_optimum


def make_example_data(d=16, T=163, freqs=(14, 6), seed=42):
    from freqfact import SyntheticSpec, gen_cosine_mixture

    x, ys = gen_cosine_mixture(SyntheticSpec(d, T, freqs, sigma=0.0, x_sigma=0.0, seed=seed))
    return x, np.vstack(ys)


class TestObjective:
    def test_zero_model(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        hyper = Hyper(2, 3.0, Penalty.ridge(0.0))
        model = FactorModel(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((2, 6)), hyper)
        want = np.sum(x**2) + 3.0 * np.sum(y**2)
        assert np.isclose(objective(x, y, model), want, rtol=1e-12)

    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(31)
        w = rng.standard_normal((5, 2))
        wp = rng.standard_normal((5, 2))
        h = np.abs(rng.standard_normal((2, 7)))
        hyper = Hyper(2, 2.0, Penalty.lasso(0.0))
        model = FactorModel(w, wp, h, hyper)
        assert objective(w @ h, wp @ h, model) <= 1e-20

    def test_matches_term_by_term_recomputation(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((4, 8))
        y = rng.standard_normal((6, 8))
        w = rng.standard_normal((4, 3))
        wp = rng.standard_normal((6, 3))
        h = np.abs(rng.standard_normal((3, 8)))
        hyper = Hyper(3, 1.5, Penalty.soft_freq(0.3), lambda1=0.1, lambda2=0.2)
        model = FactorModel(w, wp, h, hyper)
        want = (
            np.sum((x - w @ h) ** 2)
            + 1.5 * np.sum((y - wp @ h) ** 2)
            + penalty_value(h, hyper.penalty)
            + 0.1 * np.sum(w**2)
            + 0.2 * np.sum(wp**2)
        )
        assert np.isclose(objective(x, y, model), want, rtol=1e-12)

    def test_residual_norm_is_bitwise_the_plain_expression(self):
        from freqfact.solvers import _sq_residual

        rng = np.random.default_rng(33)
        for d, r, T in ((1, 1, 1), (7, 3, 40), (300, 8, 257)):
            full = rng.standard_normal((d, T + 5))
            w = rng.standard_normal((d, r))
            h = np.abs(rng.standard_normal((r, T)))
            # a contiguous matrix and a leading-column view, as the drivers pass
            for x in (np.ascontiguousarray(full[:, :T]), full[:, :T]):
                assert _sq_residual(x, w, h) == float(np.sum((x - w @ h) ** 2))

    def test_hard_infeasible_is_infinite(self):
        rng = np.random.default_rng(33)
        h = rng.standard_normal((2, 8))
        hyper = Hyper(2, 1.0, Penalty.hard_freq(mask=FrequencyMask.same(2, 8, [0])))
        model = FactorModel(np.zeros((3, 2)), np.zeros((3, 2)), h, hyper)
        assert objective(np.zeros((3, 8)), np.zeros((3, 8)), model) == math.inf


class TestSolveW:
    def test_identity_code_returns_data(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((4, 3))
        assert np.allclose(solve_W(x, np.eye(3)), x, atol=1e-12)

    def test_residual_orthogonal_to_code_rows(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((6, 10))
        h = rng.standard_normal((3, 10))
        w = solve_W(x, h)
        resid = (x - w @ h) @ h.T
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(x) * np.linalg.norm(h)

    def test_rank_deficient_code_raises(self):
        h = np.ones((2, 5))  # duplicated rows
        with pytest.raises(SingularGramError):
            solve_W(np.ones((3, 5)), h)

    def test_ridge_handles_rank_deficiency(self):
        h = np.ones((2, 5))
        w = solve_W(np.ones((3, 5)), h, ridge=0.1)
        assert np.all(np.isfinite(w))

    def test_minimizes_ridge_objective_against_perturbations(self):
        rng = np.random.default_rng(36)
        x = rng.standard_normal((5, 9))
        h = rng.standard_normal((2, 9))
        for ridge in (0.0, 0.3):
            w = solve_W(x, h, ridge)
            base = np.sum((x - w @ h) ** 2) + ridge * np.sum(w**2)
            for _ in range(20):
                delta = rng.standard_normal(w.shape)
                delta *= 1e-3 / np.linalg.norm(delta)
                perturbed = np.sum((x - (w + delta) @ h) ** 2) + ridge * np.sum((w + delta) ** 2)
                assert perturbed >= base - 1e-12


class TestSolveHProx:
    @staticmethod
    def instance(seed=51, m=9, k=3, T=17):
        rng = np.random.default_rng(seed)
        wbar = rng.standard_normal((m, k))
        xbar = rng.standard_normal((m, T))  # noisy: no exact fit exists
        return xbar, wbar, np.abs(rng.standard_normal((k, T)))

    @staticmethod
    def fsub(xbar, wbar, h, p):
        return float(np.sum((xbar - wbar @ h) ** 2)) + p.lam * minkowski_definitional(
            dft_definitional(h))

    def test_report_records_steps_and_no_objective(self):
        xbar, wbar, h0 = self.instance()
        h, report = solve_H_prox(*normal_terms(xbar, wbar), h0, Penalty.soft_freq(1.3), 40)
        assert np.all(h >= 0.0)
        # the caller scores the code it keeps
        assert report.objective_trace == []
        # one step 1/rho per iteration run, the first at 1/L
        gamma = 1.0 / (2.0 * np.linalg.norm(wbar.T @ wbar, 2))
        assert report.step_trace[0] == pytest.approx(gamma, rel=1e-12)
        assert len(report.step_trace) == report.wall_iters == 40

    def test_no_feasible_perturbation_does_better(self):
        xbar, wbar, h0 = self.instance(52, m=6, k=2, T=16)
        p = Penalty.soft_freq(0.8)
        h, _ = solve_H_prox(*normal_terms(xbar, wbar), h0, p, 4000)
        best = self.fsub(xbar, wbar, h, p)
        rng = np.random.default_rng(53)
        for _ in range(300):
            eps = 10.0 ** rng.uniform(-4.0, -1.0)
            moved = np.maximum(h + eps * rng.standard_normal(h.shape), 0.0)
            assert best <= self.fsub(xbar, wbar, moved, p) + 1e-9 * best

    def test_nonneg_ridge_matches_augmented_nnls(self):
        # lam ||H||^2 is the fit of sqrt(lam) I H against zero rows
        xbar, wbar, h0 = self.instance(57)
        lam = 0.7
        h, _ = solve_H_prox(*normal_terms(xbar, wbar), h0, Penalty.ridge(lam), 3000)
        k, T = h0.shape
        ref = nnls_columns(np.vstack([wbar, np.sqrt(lam) * np.eye(k)]),
                           np.vstack([xbar, np.zeros((k, T))]))
        assert np.max(np.abs(h - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))

    def test_nonneg_lasso_matches_bounded_reference(self):
        # on H >= 0 the l1 norm is sum(H), so the problem is smooth under bounds
        from scipy.optimize import minimize

        xbar, wbar, h0 = self.instance(58)
        lam = 2.0
        gram, cross = wbar.T @ wbar, wbar.T @ xbar

        def fun(flat):
            m = flat.reshape(h0.shape)
            return (float(np.sum((xbar - wbar @ m) ** 2)) + lam * float(np.sum(m)),
                    (2.0 * (gram @ m - cross) + lam).ravel())

        res = minimize(fun, h0.ravel(), jac=True, method="L-BFGS-B",
                       bounds=[(0.0, None)] * h0.size,
                       options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-12})
        assert res.success
        h, _ = solve_H_prox(*normal_terms(xbar, wbar), h0, Penalty.lasso(lam), 3000)
        assert fun(h.ravel())[0] <= res.fun + 1e-9 * res.fun
        assert np.max(np.abs(h - res.x.reshape(h0.shape))) <= 1e-5

    def test_unconstrained_ridge_reaches_closed_form(self):
        xbar, wbar, h0 = self.instance(59)
        lam = 0.7
        gram, cross = wbar.T @ wbar, wbar.T @ xbar
        h, _ = solve_H_prox(*normal_terms(xbar, wbar), h0, Penalty.ridge(lam), 3000, nonneg=False)
        ref = np.linalg.solve(gram + lam * np.eye(len(gram)), cross)
        assert np.min(ref) < 0.0  # the orthant would bind
        assert np.max(np.abs(h - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_kkt_on_smooth_instance(self):
        # lam = 0, orthonormal dictionary: at the solution, entries with
        # H > 0 must have (near) zero gradient and the others a nonnegative one
        rng = np.random.default_rng(37)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        x = rng.standard_normal((8, 6))
        h0 = np.abs(rng.standard_normal((3, 6)))
        h, _ = solve_H_prox(*normal_terms(x, q), h0, Penalty.ridge(0.0), 200)
        grad = 2 * (q.T @ q @ h - q.T @ x)
        active = h > 1e-12
        assert np.max(np.abs(grad[active])) <= 1e-10
        assert np.all(grad[~active] >= -1e-10)

    def test_optimal_start_stays_put(self):
        # separable diagonal instance that H0 already solves
        rng = np.random.default_rng(48)
        wbar = np.diag([1.0, 2.0])
        h0 = np.abs(rng.standard_normal((2, 5)))
        h, report = solve_H_prox(*normal_terms(wbar @ h0, wbar), h0, Penalty.ridge(0.0), 25)
        assert np.allclose(h, h0, rtol=0.0, atol=1e-14)
        assert report.extras["primal_residual"] <= 1e-14
        assert report.extras["dual_residual"] <= 1e-14
        # the first residual check stops it
        assert report.terminated == "tol_reached" and report.wall_iters == solvers._ADMM_CHECK

    def test_scalar_soft_instance_descends_to_zero(self):
        # 1x1 data and dictionary both zero: the fit is flat, so one prox
        # step of weight 1 takes H = 1 to 0
        h, _ = solve_H_prox(*normal_terms(np.zeros((1, 1)), np.zeros((1, 1))), np.array([[1.0]]),
                            Penalty.soft_freq(1.0), 20)
        assert h[0, 0] == 0.0

    def test_residuals_fall_until_the_stop(self):
        xbar, wbar, h0 = self.instance(55)
        p = Penalty.soft_freq(0.5)
        reports = [solve_H_prox(*normal_terms(xbar, wbar), h0, p, n)[1] for n in (10, 50, 5000)]
        for key in ("primal_residual", "dual_residual"):
            residuals = [r.extras[key] for r in reports]
            assert all(b < a for a, b in zip(residuals, residuals[1:]))
            assert residuals[-1] <= 1e-6 * residuals[0]
        assert [r.terminated for r in reports] == ["max_iters"] * 2 + ["tol_reached"]
        assert reports[-1].wall_iters < 5000
        assert all(len(r.step_trace) == r.wall_iters for r in reports)

    def test_residual_checks_hold_few_code_sized_arrays(self):
        # each check forms dUi and d(Z1 + Z2) in copies of U and W taken at
        # its start: about 15 (k, T) arrays at the peak, where stacking the
        # previous and changed state at each check held about 22
        import tracemalloc

        xbar, wbar, h0 = self.instance(60, m=64, k=8, T=768)
        terms = normal_terms(xbar, wbar)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, report = solve_H_prox(*terms, h0, Penalty.ridge(0.1), 400)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.wall_iters > solvers._ADMM_CHECK  # several checks ran
        assert peak <= 17 * h0.nbytes

    def test_validation(self):
        # a band's code steps are in freqfact.band, a fixed mask's as well
        args = *normal_terms(np.zeros((2, 4)), np.ones((2, 2))), np.zeros((2, 4))
        for band in (Penalty.hard_freq(R=1), Penalty.hard_freq(mask=FrequencyMask.same(2, 4, [0]))):
            with pytest.raises(ValueError, match="hard_freq has no prox step: a band's code step "
                                                 "is band.solve_H_band"):
                solve_H_prox(*args, band, 3)
        with pytest.raises(ValueError, match="n_iters must be >= 1"):
            solve_H_prox(*args, Penalty.soft_freq(0.1), 0)

    def test_rejects_hard_penalty_and_bad_n_iters_on_a_stack(self):
        # a stack of problems is rejected whatever the penalty, naming its
        # shapes, and the iteration check comes first
        gram, cross, h0 = np.zeros((3, 2, 2)), np.zeros((3, 2, 2)), np.zeros((3, 2, 2))
        for p in (Penalty.hard_freq(R=1), Penalty.ridge(0.0)):
            with pytest.raises(ValueError, match=re.escape(
                    "got Gram (3, 2, 2), cross term (3, 2, 2) and code (3, 2, 2)")):
                solve_H_prox(gram, cross, h0, p, 1, nonneg=False)
            with pytest.raises(ValueError, match=re.escape("got Gram a sequence of 3")):
                solve_H_prox(list(gram), list(cross), list(h0), p, 1)
        with pytest.raises(ValueError, match="n_iters must be >= 1"):
            solve_H_prox(gram, cross, h0, Penalty.ridge(0.0), -1)


def soft_forecast_encode():
    """The soft-spectral forecast encode at the benchmark's soft_forecast
    size: a 4-atom fit of 64 x 192 data with two 64-row auxiliaries
    (xi = 0.5, soft_freq 1.0, 20 x 50), and its auxiliary dictionary with the
    full 256-column auxiliary data."""
    from freqfact import SyntheticSpec, gen_cosine_mixture

    x, ys = gen_cosine_mixture(SyntheticSpec(64, 256, (14, 6), 0.5, 0.5, seed=1))
    y = np.vstack(ys)
    model, _ = ssnmf_bcd(x[:, :192], y, Hyper(4, 0.5, Penalty.soft_freq(1.0)), 20, 50)
    return y, model.Wp


class TestResidualStop:
    """The prox step stops on its primal and dual residuals; n_iters caps it."""

    def test_stop_fires_before_the_cap_on_the_forecast_encode(self):
        y, wp = soft_forecast_encode()
        h0 = np.abs(np.random.default_rng(0).standard_normal((4, y.shape[1])))
        h, report = solve_H_prox(*normal_terms(y, wp), h0, Penalty.soft_freq(0.1), 3000)
        assert report.terminated == "tol_reached" and report.wall_iters < 1000
        assert len(report.step_trace) == report.wall_iters
        # the residual check before the stop did not fire
        _, capped = solve_H_prox(*normal_terms(y, wp), h0, Penalty.soft_freq(0.1),
                                 report.wall_iters - solvers._ADMM_CHECK)
        assert capped.terminated == "max_iters"
        # encode_new's wall_iters counts the iterations used, not sweeps * sub_iters
        _, enc = encode_new(y, wp, Penalty.soft_freq(1.0), 0.1, EncodeConfig(60, 50))
        assert enc.wall_iters < 3000

    def test_one_iteration(self):
        xbar, wbar, h0 = TestSolveHProx.instance(60)
        h, report = solve_H_prox(*normal_terms(xbar, wbar), h0, Penalty.lasso(0.3), 1)
        assert report.wall_iters == len(report.step_trace) == 1
        assert report.terminated == "max_iters"
        assert set(report.extras) == {"primal_residual", "dual_residual", "rho"}
        assert np.all(np.isfinite(h)) and np.all(h >= 0.0)

    @pytest.mark.parametrize("dead", [[0], [0, 1, 2]], ids=["one_zero_column", "zero_dictionary"])
    def test_zero_gram_eigenvalue_gives_a_finite_positive_rho(self, dead):
        # a dead atom's dictionary column is zero, so G has a zero eigenvalue
        xbar, wbar, h0 = TestSolveHProx.instance(61)
        wbar[:, dead] = 0.0
        h, report = solve_H_prox(*normal_terms(xbar, wbar), h0, Penalty.soft_freq(0.4), 50)
        steps = np.array(report.step_trace)
        assert 0.0 < report.extras["rho"] < math.inf
        assert np.all(np.isfinite(steps)) and np.all(steps > 0.0)
        assert np.all(np.isfinite(h)) and report.wall_iters <= 50


class TestSsnmfBcd:
    def test_unsupervised_degenerate_matches_plain_fit_trace(self):
        rng = np.random.default_rng(40)
        x = np.abs(rng.standard_normal((6, 12)))
        y = np.zeros((3, 12))
        hyper = Hyper(2, 0.0, Penalty.ridge(0.0))
        model, report = ssnmf_bcd(x, y, hyper, n_iters=5, sub_iters=30, seed=1)
        fit = np.sum((x - model.W @ model.H) ** 2)
        assert np.isclose(report.objective_trace[-1], fit, rtol=1e-10)

    def test_objective_never_increases_across_exact_steps(self):
        x, y = make_example_data(d=8, seed=0)
        hyper = Hyper(2, 0.5, Penalty.soft_freq(1.0))
        _, report = ssnmf_bcd(x, y, hyper, n_iters=6, sub_iters=20, seed=3)
        for after_h, after_w, after_wp in report.extras["phase_objectives"]:
            assert after_w <= after_h + 1e-10
            assert after_wp <= after_w + 1e-10

    def test_code_nonnegative_every_outer_iteration(self):
        x, y = make_example_data(d=8, seed=1)
        hyper = Hyper(2, 1.0, Penalty.lasso(0.5))
        model, report = ssnmf_bcd(x, y, hyper, n_iters=5, sub_iters=20, seed=4)
        assert all(v >= 0.0 for v in report.extras["h_min_trace"])
        assert np.all(model.H >= 0.0)

    @pytest.mark.parametrize("penalty", [Penalty.hard_freq(R=2),
                                         Penalty.hard_freq(mask=FrequencyMask.same(2, 20, [0, 2]))],
                             ids=["top_r", "fixed_mask"])
    def test_rejects_every_hard_band(self, penalty):
        # its objective scores the band as an indicator, +inf off it
        x, y = make_example_data(d=6, T=20, freqs=(2, 5), seed=7)
        with pytest.raises(ValueError, match="fit a hard_freq band with ssnmf_hard"):
            ssnmf_bcd(x, y, Hyper(2, 1.0, penalty), n_iters=2, sub_iters=5)

    def test_deterministic_given_seed(self):
        x, y = make_example_data(d=6, seed=2)
        hyper = Hyper(2, 1.0, Penalty.soft_freq(0.3))
        m1, r1 = ssnmf_bcd(x, y, hyper, n_iters=4, sub_iters=15, seed=7)
        m2, r2 = ssnmf_bcd(x, y, hyper, n_iters=4, sub_iters=15, seed=7)
        assert r1.objective_trace == r2.objective_trace
        assert r1.step_trace == r2.step_trace
        assert np.array_equal(m1.H, m2.H)
        assert np.array_equal(m1.W, m2.W)

    def test_tolerance_stop(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((8, 2))
        h = np.abs(rng.standard_normal((2, 24)))
        x, y = w @ h, rng.standard_normal((8, 2)) @ h
        hyper = Hyper(2, 1.0, Penalty.ridge(0.0))
        _, report = ssnmf_bcd(x, y, hyper, n_iters=300, sub_iters=30, seed=5, tol=1e-8)
        assert report.terminated == "tol_reached"
        assert report.wall_iters < 300

    def test_overflow_raises_naming_solver_and_iteration(self):
        # xi = 1e308 weights the auxiliary fit past the float range, so the
        # objective overflows on the first outer iteration
        x, y = make_example_data(d=6, T=30, freqs=(2, 5), seed=3)
        hyper = Hyper(2, 1e308, Penalty.soft_freq(1.0))
        with pytest.raises(ConvergenceError, match=r"ssnmf_bcd: non-finite .*objective"
                                                   r" at outer iteration 1$"):
            ssnmf_bcd(x, y, hyper, n_iters=3, sub_iters=5, seed=0)

    def test_dead_atom_keeps_its_dictionary_column(self):
        # the first lasso prox step zeroes atom 0's whole code row; with no
        # ridge on W its column is free, so the dictionary step keeps it
        # rather than failing on the singular Gram
        x, y = make_example_data(d=8, seed=1)
        hyper = Hyper(2, 1.0, Penalty.lasso(0.5))
        model, report = ssnmf_bcd(x, y, hyper, n_iters=4, sub_iters=20, seed=4)
        assert (~model.H.any(axis=1)).tolist() == [True, False]
        w0, wp0, _ = solvers._init_factors(x, y[:, : x.shape[1]], hyper, 4)
        assert np.array_equal(model.W[:, 0], w0[:, 0])
        assert np.array_equal(model.Wp[:, 0], wp0[:, 0])
        for after_h, after_w, after_wp in report.extras["phase_objectives"]:
            assert after_wp <= after_w + 1e-10 and after_w <= after_h + 1e-10
        assert all(b <= a for a, b in zip(report.objective_trace, report.objective_trace[1:]))

    def test_near_dead_atom_keeps_its_dictionary_column(self, monkeypatch):
        # a code row left near zero makes the Gram singular as surely as a
        # zero row: its column is kept and the others solved exactly against
        # what it leaves of X, so the fit does not rise
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 40))
        h = 10.0 * np.abs(rng.standard_normal((3, 40)))
        h[1] = 1e-6
        w = rng.standard_normal((8, 3))
        with pytest.raises(SingularGramError):
            solve_W(x, h)
        w_new = solvers._dictionary_step(x, h, w, 0.0)
        assert np.array_equal(w_new[:, 1], w[:, 1])
        rest = np.linalg.lstsq(h[[0, 2]].T, (x - np.outer(w[:, 1], h[1])).T, rcond=None)[0].T
        assert np.allclose(w_new[:, [0, 2]], rest, rtol=1e-10, atol=1e-12)
        assert np.sum((x - w_new @ h) ** 2) <= np.sum((x - w @ h) ** 2)
        # the loop's W phase scores that W in Gram form, as any other: the
        # exact rule is not called, and the score matches it
        exact = solvers._sq_residual(x, w_new, h)
        side = solvers._FitSide(x, w, 0.0)
        side.set(w_new)
        monkeypatch.setattr(solvers, "_sq_residual", None)
        sq, ridge_sq = side.terms(h)
        assert ridge_sq == 0.0 and exact > solvers._GRAM_EXACT_BELOW * np.sum(x**2)
        assert abs(sq - exact) <= 1e-12 * exact

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            ssnmf_bcd(np.zeros((2, 3)), np.zeros((2, 3)), Hyper(5, 1.0, Penalty.ridge(0.0)), 1)


class TestThreeOperatorSplitting:
    def test_reduces_to_clamp_with_full_mask(self):
        rng = np.random.default_rng(41)
        v = rng.standard_normal((2, 8))
        mask = FrequencyMask.full(2, 8)
        grad = lambda h: 2.0 * (h - v)
        hbar, _ = three_operator_splitting(grad, mask, np.zeros_like(v), 3000, gamma0=0.5)
        assert np.allclose(hbar, np.maximum(v, 0.0), atol=2e-3)

    def test_zero_gradient_fixed_point_at_feasible_start(self):
        rng = np.random.default_rng(42)
        mask = FrequencyMask.same(2, 8, [0, 2])
        v = np.abs(rng.standard_normal((2, 8)))
        v = project_frequency_mask(v + 2.0, mask)
        assert np.all(v >= 0)  # large DC keeps the projection nonnegative
        hbar, report = three_operator_splitting(lambda h: np.zeros_like(h), mask, v, 50)
        assert np.allclose(hbar, v, atol=1e-12)
        assert all(g == report.step_trace[0] for g in report.step_trace)

    def test_ergodic_average_nonnegative(self):
        rng = np.random.default_rng(43)
        wbar = rng.standard_normal((6, 2))
        xbar = rng.standard_normal((6, 8))
        gram, cross = wbar.T @ wbar, wbar.T @ xbar
        mask = FrequencyMask.same(2, 8, [0, 1])
        hbar, _ = three_operator_splitting(
            lambda h: 2 * (gram @ h - cross), mask, rng.standard_normal((2, 8)), 200
        )
        assert np.all(hbar >= 0.0)


class TestFixedMaskCodeStep:
    """A fixed mask is a convex penalty: it runs on the prox step at the step
    1/L, so a dictionary with ||G||_2 >> 1 reaches the optimum as well."""

    @pytest.fixture(scope="class")
    def scaled_instance(self):
        # c05's instance with dictionary columns of norm 3
        wbar, xbar, mask, y0 = _tos_instance()
        wbar = 3.0 * wbar
        assert np.linalg.norm(wbar.T @ wbar, 2) > 9.0
        return wbar, xbar, mask, y0, _tos_reference_optimum(wbar, xbar, mask)

    def check(self, h, wbar, xbar, mask, fstar):
        fit = float(np.sum((xbar - wbar @ h) ** 2))
        assert abs(fit - fstar) <= 1e-6 * fstar
        assert np.all(h >= 0.0)
        assert mask_distance(h, mask) <= 1e-6 * np.linalg.norm(h)

    def test_code_step_reaches_the_optimum(self, scaled_instance):
        wbar, xbar, mask, y0, fstar = scaled_instance
        _, step = code_step(Penalty.hard_freq(mask=mask))
        h, _ = step(*normal_terms(xbar, wbar), y0, 1000)
        self.check(h, wbar, xbar, mask, fstar)

    def test_encode_reaches_the_optimum(self, scaled_instance):
        wbar, xbar, mask, _, fstar = scaled_instance
        h, report = encode_new(xbar, wbar, Penalty.hard_freq(mask=mask), 0.0,
                               EncodeConfig(sweeps=20, sub_iters=50, seed=5))
        assert report.wall_iters <= 1000
        # the encode scores its code exactly; a hard band scores the fit alone
        assert report.objective_trace == [solvers._sq_residual(xbar, wbar, h)]
        self.check(h, wbar, xbar, mask, fstar)


class TestSsnmfHard:
    def test_mu_grows_as_r_shrinks(self):
        # fewer retained frequencies => more strongly suppressed bins; the
        # suppressed fraction is robust where the raw median would compare
        # rounding leakage between dead zones
        x, y = make_example_data(d=12, seed=9)
        fracs = []
        medians = []
        for R in (20, 10, 5, 1):
            hyper = Hyper(3, 100.0, Penalty.hard_freq(R=R), lambda1=1e-10, lambda2=1e-10)
            model, _ = ssnmf_hard(x, y, hyper, R, n_iters=10, seed=2, sub_iters=30)
            # a row the band zeroes (R = 1 keeps a constant at most) uses no bin
            mu = inverse_usage_ratio(model.H[np.any(model.H != 0.0, axis=1)])
            fracs.append(float(np.mean(mu >= 1e3)))
            medians.append(float(np.median(mu)))
        assert all(b >= a for a, b in zip(fracs, fracs[1:])), fracs
        # exact bands suppress more than half the bins to rounding for every R,
        # so the medians only compare rounding leakage: each is at that floor
        assert min(medians) >= 1e12, medians

    def test_recovers_band_limited_factorization(self):
        rng = np.random.default_rng(23)
        d, r, T = 12, 2, 32
        t = np.arange(T)
        h_true = np.vstack(
            [1.5 + np.cos(2 * np.pi * 3 * t / T), 1.0 + 0.7 * np.cos(2 * np.pi * 5 * t / T)]
        )
        w0 = rng.standard_normal((d, r))
        wp0 = rng.standard_normal((d, r))
        x, y = w0 @ h_true, wp0 @ h_true
        hyper = Hyper(r, 1.0, Penalty.hard_freq(R=2))
        model, report = ssnmf_hard(x, y, hyper, R=2, n_iters=200, seed=0, sub_iters=50)
        rel = np.linalg.norm(x - model.W @ model.H) / np.linalg.norm(x)
        assert rel <= 1e-2
        assert max(report.extras["offmask_after_projection"]) <= 1e-8
        assert all(v >= 0.0 for v in report.extras["h_min_trace"])

    def test_full_mask_matches_unregularized_bcd(self, monkeypatch):
        # every bin kept: the band is the whole space and pursuit's exact solve
        # is nonnegative least squares, so the hard cycle is the unregularized
        # one with an exact code step
        def exact_nnls(gram, cross, h, p, iters, nonneg, rtol=None):
            # ||Xbar - Wbar H||^2 is ||L^-1 C - L^T H||^2 plus a constant, G = L L^T
            chol = np.linalg.cholesky(gram)
            return nnls_columns(chol.T, np.linalg.solve(chol, cross)), solvers.SolveReport([], [1.0])

        monkeypatch.setattr(solvers, "solve_H_prox", exact_nnls)
        x, y = make_example_data(d=8, T=24, freqs=(3, 7), seed=5)
        T = x.shape[1]
        r_full = T // 2 + 1
        hyper_hard = Hyper(2, 1.0, Penalty.hard_freq(R=r_full))
        hyper_bcd = Hyper(2, 1.0, Penalty.ridge(0.0))
        m_hard, rep_hard = ssnmf_hard(x, y, hyper_hard, r_full, n_iters=8, seed=11, sub_iters=25)
        m_bcd, rep_bcd = ssnmf_bcd(x, y, hyper_bcd, n_iters=8, sub_iters=25, seed=11)
        for a, b in zip(rep_hard.objective_trace, rep_bcd.objective_trace, strict=True):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    def test_fixed_mask_runs_prox_and_records_offmask_final(self):
        x, y = make_example_data(d=8, T=24, freqs=(3, 7), seed=6)
        mask = FrequencyMask.same(2, 24, [0, 3, 7])
        # the mask wins over the R the call passes
        model, report = ssnmf_hard(x, y, Hyper(2, 1.0, Penalty.hard_freq(mask=mask)), 2,
                                   n_iters=5, seed=0, sub_iters=40)
        assert report.extras["variant"] == "prox"
        assert np.all(model.H >= 0.0)
        assert len(report.objective_trace) == 5
        assert report.extras["offmask_final"] == float(offmask_ratio(model.H, mask).max())

    def test_fixed_mask_fit_ends_on_its_band(self):
        # hard_scan's synthetic data with a fixed band: the orthant does not
        # bind at the returned code, so it is Z2, on the band
        from freqfact import SyntheticSpec, gen_cosine_mixture

        x, ys = gen_cosine_mixture(SyntheticSpec(64, 256, (14, 6), 0.5, 0.5, seed=1))
        x, y = x[:, :192], np.vstack(ys)
        mask = FrequencyMask.same(4, 192, [0, 4, 10])
        model, report = ssnmf_hard(x, y, Hyper(4, 0.5, Penalty.hard_freq(mask=mask)), None, 20)
        assert report.extras["offmask_final"] <= HARD_FEASIBILITY_RTOL
        assert math.isfinite(objective(x, y, model)) and np.all(model.H >= 0.0)

    @pytest.mark.parametrize("sub_iters", [50, 1000])
    def test_fixed_mask_fit_records_its_band_residual(self, sub_iters):
        # where the orthant binds, a step capped at 50 iterations may end off
        # the band, which offmask_final records; steps run to their stop meet it
        x, y = make_example_data(d=8, T=40, freqs=(3, 7), seed=6)
        mask = FrequencyMask.same(2, 40, [0, 3, 7])
        model, report = ssnmf_hard(x, y, Hyper(2, 1.0, Penalty.hard_freq(mask=mask)), None, 2,
                                   sub_iters=sub_iters)
        off = report.extras["offmask_final"]
        assert off == float(offmask_ratio(model.H, mask).max())
        assert math.isfinite(objective(x, y, model)) == (off <= HARD_FEASIBILITY_RTOL)
        if sub_iters == 1000:
            assert max(report.extras["code_iters"]) < 1000 and off <= HARD_FEASIBILITY_RTOL

    def test_overflow_raises_naming_solver_and_iteration(self):
        x, y = make_example_data(d=6, T=20, freqs=(2, 5), seed=7)
        mask = FrequencyMask.same(2, 20, [0, 2, 5])
        # data near the top of the float range overflows the Gram matrix of
        # the prox step (fixed mask) and of the heuristic (top-R band)
        with pytest.raises(ConvergenceError, match=r"ssnmf_hard: non-finite H, W, Wp "
                                                   r"at outer iteration 1$"):
            ssnmf_hard(1e160 * x, y, Hyper(2, 1.0, Penalty.hard_freq(mask=mask)), None, n_iters=3,
                       seed=0, sub_iters=5)
        with pytest.raises(ConvergenceError, match=r"ssnmf_hard: non-finite H, W, Wp "
                                                   r"at outer iteration 1$"):
            ssnmf_hard(1e160 * x, y, Hyper(2, 1.0, Penalty.hard_freq(R=2)), 2, n_iters=3,
                       seed=0, sub_iters=5)

    def test_deterministic(self):
        x, y = make_example_data(d=6, T=20, freqs=(2, 5), seed=7)
        hyper = Hyper(2, 1.0, Penalty.hard_freq(R=2))
        _, r1 = ssnmf_hard(x, y, hyper, 2, n_iters=4, seed=3, sub_iters=15)
        _, r2 = ssnmf_hard(x, y, hyper, 2, n_iters=4, seed=3, sub_iters=15)
        assert r1.objective_trace == r2.objective_trace
        assert r1.extras["offmask_after_projection"] == r2.extras["offmask_after_projection"]


MASK16 = FrequencyMask.same(2, 16, [0, 2])


class TestCodeStep:
    @pytest.mark.parametrize("penalty, want", [
        (Penalty.ridge(0.1), "prox"),
        (Penalty.lasso(0.1), "prox"),
        (Penalty.soft_freq(0.1), "prox"),
        (Penalty.hard_freq(R=2), "heuristic"),
        (Penalty.hard_freq(mask=MASK16), "prox"),
        (Penalty.hard_freq(R=2, mask=MASK16), "prox"),
    ])
    def test_choice_and_solver(self, penalty, want):
        rng = np.random.default_rng(48)
        wbar = rng.standard_normal((7, 2))
        xbar = np.abs(rng.standard_normal((7, 16)))
        h0 = np.abs(rng.standard_normal((2, 16)))
        got, step = code_step(penalty)
        assert got == want
        h, sub = step(*normal_terms(xbar, wbar), h0, 6)
        if penalty.kind != "hard_freq":
            ref, ref_sub = solve_H_prox(*normal_terms(xbar, wbar), h0, penalty, 6)
        elif penalty.mask is not None:
            ref, ref_sub = solve_H_band(*normal_terms(xbar, wbar), h0, penalty.mask)
        else:
            ref, ref_sub = band_pursuit(*normal_terms(xbar, wbar), h0, penalty.R, 6)
        assert np.array_equal(h, ref)
        assert sub.step_trace == ref_sub.step_trace
        # code steps return codes, not scores
        assert sub.objective_trace == ref_sub.objective_trace == []

    def test_prox_nonneg_reaches_the_solver(self):
        rng = np.random.default_rng(49)
        wbar = rng.standard_normal((5, 2))
        xbar = rng.standard_normal((5, 8))
        h0 = rng.standard_normal((2, 8))
        _, step = code_step(Penalty.lasso(0.2), nonneg=False)
        h, sub = step(*normal_terms(xbar, wbar), h0, 4)
        ref, ref_sub = solve_H_prox(*normal_terms(xbar, wbar), h0, Penalty.lasso(0.2), 4, nonneg=False)
        assert np.array_equal(h, ref) and sub.step_trace == ref_sub.step_trace
        assert np.min(h) < 0.0

    def test_heuristic_priority_reaches_the_solver(self):
        # pursuit's codes are nonnegative and in band at once: either priority
        # gives the one code, and any other is rejected
        rng = np.random.default_rng(50)
        wbar = rng.standard_normal((6, 2))
        xbar = rng.standard_normal((6, 16))
        h0 = np.abs(rng.standard_normal((2, 16)))
        codes = [code_step(Penalty.hard_freq(R=3), priority=priority)[1](
            *normal_terms(xbar, wbar), h0, 5)[0]
                 for priority in ("nonneg", "frequency")]
        assert np.array_equal(codes[0], codes[1])
        assert np.array_equal(codes[0], band_pursuit(*normal_terms(xbar, wbar), h0, 3, 5)[0])
        with pytest.raises(ValueError, match="priority must be 'nonneg' or 'frequency'"):
            code_step(Penalty.hard_freq(R=3), priority="x")

    def test_no_step_override_remains(self):
        # only the penalty picks the step: no argument puts a soft penalty on a top-R band
        with pytest.raises(TypeError):
            code_step(Penalty.soft_freq(0.1), "heuristic", 2)
        with pytest.raises(TypeError):
            EncodeConfig(variant="heuristic", R=2)
        x, y = make_example_data(d=6, T=16, freqs=(2, 5), seed=6)
        with pytest.raises(TypeError):
            ssnmf_hard(x, y, Hyper(2, 1.0, Penalty.hard_freq(R=2)), None, 2, variant="prox")
        with pytest.raises(TypeError):
            ssnmf_hard(x, y, Hyper(2, 1.0, Penalty.hard_freq(R=2)), None, 2, mask=MASK16)

    def test_tos_mask_length_must_match_the_code(self):
        _, step = code_step(Penalty.hard_freq(mask=MASK16))
        with pytest.raises(ValueError, match="mask is for T=16, H has 12 columns"):
            step(*normal_terms(np.ones((3, 12)), np.ones((3, 2))), np.ones((2, 12)), 3)

    def test_ssnmf_hard_without_variant_follows_the_band(self):
        x, y = make_example_data(d=8, T=16, freqs=(2, 5), seed=6)
        # a fixed mask needs no R: it runs the prox step
        _, rep = ssnmf_hard(x, y, Hyper(2, 1.0, Penalty.hard_freq(mask=MASK16)), None, 2)
        assert rep.extras["variant"] == "prox"
        _, rep = ssnmf_hard(x, y, Hyper(2, 1.0, Penalty.hard_freq(R=3)), 2, n_iters=2, sub_iters=5)
        assert rep.extras["variant"] == "heuristic"
        # R replaces a hard band's R, but turns no other penalty into a band
        with pytest.raises(ValueError, match="fit a convex penalty .* with ssnmf_bcd"):
            ssnmf_hard(x, y, Hyper(2, 1.0, Penalty.ridge(0.0)), 2, n_iters=2, sub_iters=5)


class TestBcdLoop:
    """Both drivers run one loop that records the same things for every
    penalty; only a hard band adds its step's name and off-band ratios."""

    FITS = {
        "soft": (Penalty.soft_freq(0.5), ssnmf_bcd, set()),
        "top_r": (Penalty.hard_freq(R=2), ssnmf_hard,
                  {"variant", "offmask_final", "offmask_after_projection"}),
        "fixed_mask": (Penalty.hard_freq(mask=MASK16), ssnmf_hard, {"variant", "offmask_final"}),
    }

    def fit(self, name, **kwargs):
        penalty, driver, _ = self.FITS[name]
        x, y = make_example_data(d=8, T=16, freqs=(2, 5), seed=6)
        hyper = Hyper(2, 1.0, penalty)
        if driver is ssnmf_hard:
            return driver(x, y, hyper, None, seed=1, sub_iters=20, **kwargs)
        return driver(x, y, hyper, sub_iters=20, seed=1, **kwargs)

    @pytest.mark.parametrize("name", list(FITS))
    def test_every_fit_records_the_same_things(self, name):
        _, report = self.fit(name, n_iters=4)
        common = {"initial_objective", "phase_objectives", "h_min_trace", "code_iters",
                  "code_change"}
        assert set(report.extras) == common | self.FITS[name][2]
        assert report.objective_trace == [p[-1] for p in report.extras["phase_objectives"]]
        assert len(report.extras["h_min_trace"]) == len(report.step_trace) == 4
        # every step may stop before sub_iters: the prox step on its residuals,
        # pursuit on a repeated support, a fixed band after its exact solve
        iters = report.extras["code_iters"]
        assert len(iters) == 4 and all(1 <= n <= 20 for n in iters)
        assert np.isfinite(report.extras["initial_objective"])
        if name == "top_r":
            # one off-band ratio per exact solve, each round but a repeating last
            offmask = report.extras["offmask_after_projection"]
            assert 4 <= len(offmask) <= sum(iters) and max(offmask) <= 1e-12

    @pytest.mark.parametrize("name", ["top_r", "fixed_mask"])
    def test_exact_steps_never_increase_a_hard_objective(self, name):
        # c03's exact-step inequality, on the smooth part a hard fit scores
        for seed in range(5):
            x, y = make_example_data(d=8, T=16, freqs=(2, 5), seed=seed)
            _, report = ssnmf_hard(x, y, Hyper(2, 1.0, self.FITS[name][0]), None, 6,
                                   seed=seed, sub_iters=20)
            for after_h, after_w, after_wp in report.extras["phase_objectives"]:
                assert after_w <= after_h + 1e-10
                assert after_wp <= after_w + 1e-10

    def test_the_fit_holds_no_stacked_copy_of_its_inputs(self):
        # the code steps take G = W^T W + xi Wp^T Wp and C = W^T X + xi Wp^T Y,
        # formed from the inputs: the fit's working set is (k, T) state and,
        # where this noise-free fit is scored exactly, one (S d, T) product for
        # the auxiliaries' residual, under the (1 + S) d x T stack
        # [X; sqrt(xi) Y] a code step once took (1.75x it)
        import tracemalloc

        x, y = make_example_data(d=200, T=320, freqs=(14, 6), seed=1)
        x = x[:, :300]  # a leading-column view, as the CLI passes with train_t
        stack_bytes = (x.shape[0] + y.shape[0]) * x.shape[1] * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ssnmf_bcd(x, y, Hyper(4, 0.5, Penalty.ridge(0.1)), 5, 20, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert y.shape[0] == 2 * x.shape[0]  # S = 2 auxiliaries
        assert peak < stack_bytes

    def test_the_fit_holds_no_residual_block(self):
        # phases are scored from W^T W, W^T X and H H^T, not from X - W H:
        # an S = 2 fit of noisy data, each score in Gram form, peaks at 0.32x
        # one (S d, T) block beyond its inputs (1.14x when each phase score
        # formed W H and X - W H)
        import tracemalloc

        x, ys = gen_cosine_mixture(SyntheticSpec(200, 320, (14, 6), 0.5, 0.5, seed=1))
        x, y = x[:, :300], np.vstack(ys)
        block_bytes = y.shape[0] * x.shape[1] * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ssnmf_bcd(x, y, Hyper(4, 0.5, Penalty.ridge(0.1)), 5, 20, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert y.shape[0] == 2 * x.shape[0]  # S = 2 auxiliaries
        assert peak < block_bytes

    @pytest.mark.parametrize("name", list(FITS))
    def test_tol_starts_from_the_initial_objective(self, name):
        # a tolerance every change meets stops every fit after one iteration
        _, report = self.fit(name, n_iters=5, tol=1e300)
        assert report.terminated == "tol_reached" and report.wall_iters == 1


class TestGramScores:
    """The loop scores a fit term in Gram form, ||X||^2 - 2 <W^T X, H> +
    <W^T W, H H^T>, and by the exact rule at or below _GRAM_EXACT_BELOW
    ||X||^2, where cancellation costs the form its digits: the two agree
    within 1e-12 relative above that fraction and bit for bit below it."""

    @pytest.mark.parametrize("frac", [0.5, 1e-1, 2e-2, 5e-3, 1e-6, 1e-12, 1e-20, 0.0])
    def test_both_sides_of_the_fraction(self, frac):
        # a least-squares fit of rank-4 positive data plus noise scaled to
        # leave ``frac`` of ||X||^2: the form's worst case, at the fit
        rng = np.random.default_rng(11)
        w0 = np.abs(rng.standard_normal((64, 4))) + 1.0
        clean = w0 @ (np.abs(rng.standard_normal((4, 192))) + 1.0)
        noise = rng.standard_normal(clean.shape)
        x = clean + noise * math.sqrt(frac * np.sum(clean**2) / np.sum(noise**2))
        h = np.linalg.lstsq(w0, x, rcond=None)[0]
        w = solve_W(x, h)
        exact = solvers._sq_residual(x, w, h)
        sq, _ = solvers._FitSide(x, w, 0.0).terms(h)
        assert sq >= 0.0
        if exact > solvers._GRAM_EXACT_BELOW * np.sum(x**2):
            assert abs(sq - exact) <= 1e-12 * exact
        else:
            assert sq == exact

    def test_a_noise_free_fit_to_exact_rank_reports_the_exact_rule(self, monkeypatch):
        # each squared residual the loop scores, beside the exact rule's
        seen = []
        terms = solvers._FitSide.terms

        def recording(side, h):
            out = terms(side, h)
            seen.append((out[0], solvers._sq_residual(side.x, side.w, h), side.xx))
            return out

        monkeypatch.setattr(solvers._FitSide, "terms", recording)
        rng = np.random.default_rng(0)
        h0 = np.abs(rng.standard_normal((2, 40)))
        x = np.abs(rng.standard_normal((12, 2))) @ h0
        y = np.abs(rng.standard_normal((24, 2))) @ h0
        model, report = ssnmf_bcd(x, y, Hyper(2, 1.0, Penalty.ridge(0.0)), 60, 50, seed=0)
        frac = solvers._GRAM_EXACT_BELOW
        above = [(sq, e) for sq, e, xx in seen if e > frac * xx * (1 + 1e-9)]
        below = [(sq, e) for sq, e, xx in seen if e < frac * xx * (1 - 1e-9)]
        assert above and below and len(above) + len(below) == len(seen)
        assert all(abs(sq - e) <= 1e-12 * e for sq, e in above)
        assert all(sq == e for sq, e in below)
        # the fit ends at exact rank, where the form alone would read noise
        assert min(e / xx for _, e, xx in seen) < 1e-18
        phases = [v for p in report.extras["phase_objectives"] for v in p]
        assert min(phases + [report.extras["initial_objective"]]) >= 0.0
        assert report.objective_trace[-1] == objective(x, y, model)


class TestStackedCodeStep:
    """Every code step and the encode take one problem; a stack of them is
    rejected, naming its shapes."""

    PENALTIES = [Penalty.hard_freq(R=1), Penalty.ridge(0.0),
                 Penalty.hard_freq(mask=FrequencyMask.same(2, 8, [0]))]

    @staticmethod
    def rejects(step, shapes, *args):
        with pytest.raises(ValueError, match=re.escape(f"; got {shapes}")):
            step(*args, 2)

    def test_mismatched_blocks_rejected(self):
        for penalty in self.PENALTIES:
            _, step = code_step(penalty)
            # sequences of blocks, of equal or unequal widths
            self.rejects(step, "Gram a sequence of 2, cross term a sequence of 2 and code a "
                         "sequence of 1", [np.eye(2), np.eye(1)], [np.ones((2, 8)), np.ones((1, 8))],
                         [np.ones((2, 8))])
            self.rejects(step, "Gram a sequence of 1, cross term (2, 8) and code (2, 8)",
                         [np.eye(2)], np.ones((2, 8)), np.ones((2, 8)))
            # terms that do not match the code
            self.rejects(step, "Gram (2, 2), cross term (1, 8) and code (1, 8)",
                         np.eye(2), np.ones((1, 8)), np.ones((1, 8)))

    def test_mismatched_stacks_rejected(self):
        # a (B, k, T) array is not a sequence of blocks either
        stack = np.ones((2, 1, 1)), np.ones((2, 1, 8)), np.ones((2, 1, 8))
        for penalty in self.PENALTIES:
            self.rejects(code_step(penalty)[1],
                         "Gram (2, 1, 1), cross term (2, 1, 8) and code (2, 1, 8)", *stack)
        rng = np.random.default_rng(72)
        y, wp = rng.standard_normal((6, 12)), rng.standard_normal((3, 6, 2))
        for dictionaries, got in ((wp, "(3, 6, 2)"), (list(wp), "a sequence of 3"),
                                  ([wp[0], wp[1, :, :1]], "a sequence of 2")):
            with pytest.raises(ValueError, match=re.escape(f"got Wp {got} and Y_full (6, 12)")):
                encode_new(y, dictionaries, Penalty.ridge(0.0), 0.0)

    def test_stacked_tos_mask_needs_every_block_row(self):
        # two 2-row blocks stacked into one 4-row code: the mask needs every row
        _, step = code_step(Penalty.hard_freq(mask=MASK16))
        with pytest.raises(ValueError, match="mask has 2 rows, H has 4"):
            step(*normal_terms(np.ones((3, 16)), np.ones((3, 4))), np.ones((4, 16)), 3)


def fixed_cadence_prox(xbar, wbar, z0, p, n_iters, nonneg=True):
    """The prox step's ADMM as it ran before it took a stopping tolerance:
    residuals every ``_ADMM_CHECK`` iterations and at the last, a stop at
    ``_ADMM_RTOL``, balancing at every check.  A frozen copy: the oracle for
    a step at the default tolerance.  Returns the code and (iterations run,
    steps, terminated, primal, dual, rho)."""
    from freqfact.regularization import penalty_prox

    z0 = np.asarray(z0, dtype=float).copy()
    gram, cross = wbar.T @ wbar, wbar.T @ xbar
    two_c = 2.0 * cross
    n_z = 2 if nonneg else 1
    eig = solvers._gram_eig(gram, two_c)
    rho = lip = float(eig[0][-1]) if eig[0][-1] > 0.0 else 1.0
    mat, offset = solvers._h_step(eig, rho, n_z)
    grad0 = math.sqrt(solvers._sq_norms(two_c))
    code0 = grad0 / lip
    if nonneg:
        np.maximum(z0, 0.0, out=z0)
    u = np.zeros((n_z,) + z0.shape)
    u1, u2 = u[0] if nonneg else None, u[-1]
    w = n_z * z0
    h = np.empty_like(z0)
    steps, last_check = [], 0
    for it in range(n_iters):
        check = (it + 1) % solvers._ADMM_CHECK == 0 or it == n_iters - 1
        if check:
            prev = np.concatenate((u, w[None]))
        np.matmul(mat, w, out=h)
        h += offset
        if nonneg:
            u1 += h
            np.abs(u1, out=w)
            np.minimum(u1, 0.0, out=u1)
        u2 += h
        z2 = penalty_prox(u2, p, 1.0 / rho)
        u2 -= z2
        if nonneg:
            w += z2
            w -= u2
        else:
            np.subtract(z2, u2, out=w)
        if not check:
            continue
        change = np.concatenate((u, w[None], h[None], u2[None]))
        change[: n_z + 1] -= prev
        for du in change[:n_z]:
            change[n_z] += du
        if nonneg:
            change[-1] += u1
        *sq_du, sq_dz, sq_h, sq_u = solvers._sq_norms(change).tolist()
        steps.extend([1.0 / rho] * (it + 1 - last_check))
        last_check = it + 1
        primal, dual = math.sqrt(sum(sq_du)), rho * math.sqrt(sq_dz)
        rel_p = primal / max(math.sqrt(n_z * sq_h), code0, 1e-300)
        rel_d = dual / max(rho * math.sqrt(sq_u), grad0, 1e-300)
        done = rel_p <= solvers._ADMM_RTOL and rel_d <= solvers._ADMM_RTOL
        if done or it == n_iters - 1:
            break
        if rel_p > solvers._ADMM_MU * rel_d or rel_d > solvers._ADMM_MU * rel_p:
            factor = solvers._ADMM_TAU if rel_p > rel_d else 1.0 / solvers._ADMM_TAU
            w += u.sum(axis=0) * (1.0 - 1.0 / factor)
            u /= factor
            rho *= factor
            mat, offset = solvers._h_step(eig, rho, n_z)
    if nonneg:
        z2 *= (h + prev[0]) > 0.0
        np.maximum(z2, 0.0, out=z2)
    return z2, (it + 1, steps, "tol_reached" if done else "max_iters", primal, dual, rho)


class TestInexactCodeSteps:
    """A convex fit's code steps stop at a tolerance tied to the outer
    progress; hard bands and the default tolerance keep the exact stop."""

    CONVEX = {"ridge": Penalty.ridge(1.0), "lasso": Penalty.lasso(1.0),
              "soft_freq": Penalty.soft_freq(1.0)}

    @pytest.mark.parametrize("seed", range(8))
    def test_default_tolerance_matches_the_fixed_cadence_step(self, seed):
        rng = np.random.default_rng(seed)
        k, T = int(rng.integers(1, 5)), int(rng.integers(8, 48))
        m = k + int(rng.integers(1, 6))
        xbar = rng.standard_normal((m, T)) + 1.0
        wbar = rng.standard_normal((m, k))
        h0 = np.abs(rng.standard_normal((k, T)))
        for p, nonneg in [(Penalty.ridge(0.3), True), (Penalty.lasso(0.2), True),
                          (Penalty.lasso(0.2), False), (Penalty.soft_freq(0.5), True),
                          (Penalty.soft_freq(0.5), False)]:
            for cap in (1, 7, 20, 21, 45, 300):
                want, (iters, steps, terminated, primal, dual, rho) = fixed_cadence_prox(
                    xbar, wbar, h0, p, cap, nonneg)
                for kwargs in ({}, {"rtol": solvers._ADMM_RTOL}):
                    got, report = solve_H_prox(*normal_terms(xbar, wbar), h0, p, cap, nonneg, **kwargs)
                    assert got.tobytes() == want.tobytes()
                    assert (report.wall_iters, report.step_trace, report.terminated) == (
                        iters, steps, terminated)
                    assert report.extras == {"primal_residual": primal, "dual_residual": dual,
                                             "rho": rho}

    def test_a_loose_step_stops_at_a_stop_check_and_balances_on_its_cadence(self):
        y, wp = soft_forecast_encode()
        h0 = np.abs(np.random.default_rng(0).standard_normal((4, y.shape[1])))
        p = Penalty.soft_freq(0.1)
        _, exact = solve_H_prox(*normal_terms(y, wp), h0, p, 300)
        _, loose = solve_H_prox(*normal_terms(y, wp), h0, p, 300, rtol=1e-3)
        assert loose.terminated == "tol_reached" and loose.wall_iters < exact.wall_iters
        assert loose.wall_iters % solvers._ADMM_STOP_CHECK == 0
        assert max(loose.extras["primal_residual"], loose.extras["dual_residual"]) > 0.0
        # rho, and so the step, changes only at multiples of _ADMM_CHECK
        steps = loose.step_trace
        for j in range(1, len(steps)):
            assert steps[j] == steps[j - 1] or j % solvers._ADMM_CHECK == 0
        assert steps == exact.step_trace[: len(steps)]

    @pytest.mark.parametrize("kind", list(CONVEX))
    def test_convex_objective_traces_never_increase(self, kind):
        x_all, ys = make_example_data(d=10, T=60, freqs=(4, 9), seed=300)
        for seed in range(20):
            _, report = ssnmf_bcd(x_all, ys, Hyper(2, 1.0, self.CONVEX[kind]), n_iters=10,
                                  sub_iters=30, seed=seed)
            trace = [report.extras["initial_objective"]] + report.objective_trace
            for a, b in zip(trace, trace[1:]):
                assert b <= a

    def test_step_tolerance_follows_the_code_change(self, monkeypatch):
        tolerances = []
        prox = solvers.solve_H_prox

        def recording(*args, rtol, **kwargs):
            tolerances.append(rtol)
            return prox(*args, rtol=rtol, **kwargs)

        monkeypatch.setattr(solvers, "solve_H_prox", recording)
        x, y = make_example_data(d=8, T=24, freqs=(3, 7), seed=5)
        _, report = ssnmf_bcd(x, y, Hyper(2, 1.0, Penalty.soft_freq(0.5)), 12, 40, seed=2)
        change = report.extras["code_change"]
        assert len(change) == len(tolerances) == 12
        want = [min(max(solvers._CODE_RTOL_KAPPA * c, solvers._ADMM_RTOL),
                    solvers._CODE_RTOL_MAX) for c in [1.0] + change[:-1]]
        assert tolerances == want
        assert tolerances[0] == solvers._CODE_RTOL_MAX
        assert sum(report.extras["code_iters"]) < 12 * 40

    def test_code_change_is_the_successive_difference(self, monkeypatch):
        codes = []
        prox = solvers.solve_H_prox

        def recording(gram, cross, h0, *args, **kwargs):
            codes.append(np.array(h0))
            return prox(gram, cross, h0, *args, **kwargs)

        monkeypatch.setattr(solvers, "solve_H_prox", recording)
        x, y = make_example_data(d=8, T=24, freqs=(3, 7), seed=5)
        model, report = ssnmf_bcd(x, y, Hyper(2, 1.0, Penalty.ridge(0.5)), 5, 40, seed=2)
        codes.append(model.H)
        for change, old, new in zip(report.extras["code_change"], codes, codes[1:]):
            assert change == np.linalg.norm(new - old) / np.linalg.norm(new)

    def worsened_fit(self, monkeypatch, worse, tol=None):
        """A lasso fit whose code steps numbered in ``worse`` (from 1) return
        a worse code; returns its report and each step's tolerance."""
        tolerances = []
        prox = solvers.solve_H_prox

        def worsening(gram, cross, h0, p, n_iters, nonneg, rtol):
            tolerances.append(rtol)
            h, report = prox(gram, cross, h0, p, n_iters, nonneg, rtol=rtol)
            return (h + 5.0 if len(tolerances) in worse else h), report

        monkeypatch.setattr(solvers, "solve_H_prox", worsening)
        x, y = make_example_data(d=8, T=24, freqs=(3, 7), seed=5)
        _, report = ssnmf_bcd(x, y, Hyper(2, 1.0, Penalty.lasso(0.5)), 9, 40, seed=2, tol=tol)
        return report, tolerances

    def test_a_code_that_raises_the_objective_is_dropped(self, monkeypatch):
        # the loop keeps the old code, records no change and runs the next
        # step at the exact stop
        report, tolerances = self.worsened_fit(monkeypatch, {3, 6, 9})
        change, trace = report.extras["code_change"], report.objective_trace
        for it in (2, 5, 8):
            assert tolerances[it] > solvers._ADMM_RTOL
            assert change[it] == 0.0 and trace[it] == trace[it - 1]
            assert report.extras["phase_objectives"][it][0] == trace[it - 1]
        assert tolerances[3] == tolerances[6] == solvers._ADMM_RTOL
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_tol_stops_at_a_dropped_exact_step_only(self, monkeypatch):
        # step 3 is loose and dropped, step 4 exact and dropped
        report, tolerances = self.worsened_fit(monkeypatch, {3, 4}, tol=1e-12)
        assert tolerances[2] > solvers._ADMM_RTOL and tolerances[3] == solvers._ADMM_RTOL
        assert report.terminated == "tol_reached" and report.wall_iters == 4

    @pytest.mark.parametrize("penalty", [Penalty.hard_freq(R=2), Penalty.hard_freq(mask=MASK16)],
                             ids=["top_r", "fixed_mask"])
    def test_hard_fits_keep_the_exact_stop(self, monkeypatch, penalty):
        x, y = make_example_data(d=8, T=16, freqs=(2, 5), seed=6)

        def fit(kappa):
            with monkeypatch.context() as mp:
                mp.setattr(solvers, "_CODE_RTOL_KAPPA", kappa)
                return ssnmf_hard(x, y, Hyper(2, 1.0, penalty), None, 6, seed=1, sub_iters=40)

        # kappa 0 runs every step at the default tolerance, a huge kappa at the
        # loosest: a hard fit is the same bit for bit
        (exact, exact_report), (loose, loose_report) = fit(0.0), fit(1e12)
        for a, b in zip((exact.W, exact.Wp, exact.H), (loose.W, loose.Wp, loose.H)):
            assert a.tobytes() == b.tobytes()
        assert exact_report.to_dict() == loose_report.to_dict()


RIDGE = Penalty.ridge(0.0)

# (call, message): each input check of the solvers module that no other test
# reaches, with the full message it raises
INPUT_CHECKS = {
    "hyper_rank": (lambda: Hyper(0, 1.0, RIDGE), "rank must be >= 1"),
    "hyper_xi": (lambda: Hyper(1, -1.0, RIDGE), "xi, lambda1, lambda2 must be nonnegative"),
    "hyper_lambda1": (lambda: Hyper(1, 1.0, RIDGE, lambda1=-1.0),
                      "xi, lambda1, lambda2 must be nonnegative"),
    "hyper_lambda2": (lambda: Hyper(1, 1.0, RIDGE, lambda2=-1.0),
                      "xi, lambda1, lambda2 must be nonnegative"),
    "model_shapes": (lambda: FactorModel(np.zeros((4, 2)), np.zeros((3, 2)), np.zeros((3, 5)),
                                         Hyper(2, 1.0, RIDGE)),
                     "factor shapes disagree with hyper.r"),
    "model_nonfinite": (lambda: FactorModel(np.full((4, 2), np.inf), np.zeros((3, 2)),
                                            np.zeros((2, 5)), Hyper(2, 1.0, RIDGE)),
                        "dictionaries must be finite"),
    "objective_x_columns": (lambda: objective(np.zeros((4, 4)), np.zeros((3, 5)), FactorModel(
        np.zeros((4, 2)), np.zeros((3, 2)), np.zeros((2, 5)), Hyper(2, 1.0, RIDGE))),
        "X has 4 columns, H has 5"),
    "objective_y_columns": (lambda: objective(np.zeros((4, 5)), np.zeros((3, 4)), FactorModel(
        np.zeros((4, 2)), np.zeros((3, 2)), np.zeros((2, 5)), Hyper(2, 1.0, RIDGE))),
        "Y has 4 columns, needs at least 5"),
    "solve_W_ridge": (lambda: solve_W(np.zeros((3, 4)), np.ones((2, 4)), -1.0),
                      "ridge must be nonnegative"),
    "bcd_n_iters": (lambda: ssnmf_bcd(np.ones((4, 5)), np.ones((3, 5)), Hyper(2, 1.0, RIDGE), 0),
                    "n_iters must be >= 1"),
    "bcd_narrow_aux": (lambda: ssnmf_bcd(np.ones((4, 5)), np.ones((3, 4)),
                                         Hyper(2, 1.0, RIDGE), 1),
                       "auxiliary data spans 4 < T=5 columns"),
    "splitting_n_iters": (lambda: three_operator_splitting(
        lambda h: h, FrequencyMask.full(1, 4), np.zeros((1, 4)), 0), "n_iters must be >= 1"),
    "splitting_gamma0": (lambda: three_operator_splitting(
        lambda h: h, FrequencyMask.full(1, 4), np.zeros((1, 4)), 1, gamma0=0.0),
        "gamma0 must be positive"),
    # the heuristic top-R step that code_step builds
    "heuristic_n_iters": (lambda: code_step(Penalty.hard_freq(R=1))[1](
        np.ones((1, 1)), np.ones((1, 4)), np.ones((1, 4)), 0), "n_rounds must be >= 1"),
}


@pytest.mark.parametrize("name", list(INPUT_CHECKS))
def test_input_check_raises_its_message(name):
    call, message = INPUT_CHECKS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
