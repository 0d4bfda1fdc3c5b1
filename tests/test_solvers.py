import math

import numpy as np
import pytest

import freqfact.solvers as solvers
from freqfact import (
    ConvergenceError,
    FactorModel,
    FrequencyMask,
    Hyper,
    Penalty,
    SingularGramError,
    StepSchedule,
    alternating_pgd,
    code_step,
    dft_rows,
    inverse_usage_ratio,
    objective,
    penalty_value,
    project_frequency_mask,
    solve_H_pgd,
    solve_W,
    ssnmf_bcd,
    ssnmf_hard,
    three_operator_splitting,
)

from helpers import dft_definitional, minkowski_definitional


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


class TestSolveHPgd:
    def test_kkt_on_smooth_instance(self):
        # lam = 0, orthonormal dictionary: at the solution, entries with
        # H > 0 must have (near) zero gradient
        rng = np.random.default_rng(37)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        x = rng.standard_normal((8, 6))
        h0 = np.abs(rng.standard_normal((3, 6)))
        p = Penalty.ridge(0.0)
        h = h0
        for _ in range(40):  # restarted sweeps sharpen the solution
            h, _ = solve_H_pgd(x, q, h, p, L=50)
        grad = 2 * (q.T @ q @ h - q.T @ x)
        active = h > 1e-12
        assert np.max(np.abs(grad[active])) <= 1e-4
        assert np.all(grad[~active] >= -1e-4)

    def test_warm_start_never_worsened(self):
        rng = np.random.default_rng(38)
        wbar = rng.standard_normal((6, 2))
        xbar = rng.standard_normal((6, 5))
        h0 = np.abs(rng.standard_normal((2, 5)))
        p = Penalty.soft_freq(0.5)
        h, report = solve_H_pgd(xbar, wbar, h0, p, L=30)
        fsub = lambda m: np.sum((xbar - wbar @ m) ** 2) + penalty_value(m, p)
        assert fsub(h) <= fsub(h0) + 1e-12
        assert report.objective_trace[0] >= min(report.objective_trace)

    def test_scalar_soft_instance_descends_to_zero(self):
        # 1x1 data and dictionary both zero: iterates H <- max{0, H - step*sign(H)}
        x = np.zeros((1, 1))
        w = np.zeros((1, 1))
        h0 = np.array([[1.0]])
        h, _ = solve_H_pgd(x, w, h0, Penalty.soft_freq(1.0), L=20)
        assert h[0, 0] == 0.0

    def test_optimal_start_is_returned_unchanged(self):
        # separable diagonal instance: H0 already solves it, so the best
        # iterate is the start point and the best-value trace is flat
        rng = np.random.default_rng(48)
        wbar = np.diag([1.0, 2.0])
        h0 = np.abs(rng.standard_normal((2, 5)))
        xbar = wbar @ h0
        h, report = solve_H_pgd(xbar, wbar, h0, Penalty.ridge(0.0), L=25)
        assert np.array_equal(h, h0)
        assert min(report.objective_trace) >= 0.0
        assert report.extras["best_objective"] <= report.objective_trace[0]

    def test_nonneg_output_and_projection_disable(self):
        rng = np.random.default_rng(39)
        wbar = rng.standard_normal((5, 2))
        xbar = rng.standard_normal((5, 4))
        h0 = np.abs(rng.standard_normal((2, 4)))
        h, _ = solve_H_pgd(xbar, wbar, h0, Penalty.ridge(0.0), L=40)
        assert np.all(h >= 0.0)
        h_free, _ = solve_H_pgd(xbar, wbar, h0, Penalty.ridge(0.0), L=200, nonneg=False)
        # unconstrained best iterate approaches the plain least-squares fit
        ls = np.linalg.lstsq(wbar, xbar, rcond=None)[0]
        assert np.sum((xbar - wbar @ h_free) ** 2) <= np.sum((xbar - wbar @ ls) ** 2) * 1.05 + 1e-9

    @staticmethod
    def iterates(monkeypatch, *args, **kwargs):
        """Run solve_H_pgd and return its report with every iterate, taken
        from the one penalty evaluation each iterate gets."""
        seen = []
        real = solvers.penalty_value

        def spy(h, p, spec=None):
            seen.append(np.array(h))
            return real(h, p, spec)

        monkeypatch.setattr(solvers, "penalty_value", spy)
        _, report = solve_H_pgd(*args, **kwargs)
        monkeypatch.undo()
        return report, seen

    @pytest.mark.parametrize(
        "p", [Penalty.ridge(0.7), Penalty.lasso(0.4), Penalty.soft_freq(1.3)], ids=lambda p: p.kind
    )
    def test_trace_matches_exact_objective_at_every_iterate(self, monkeypatch, p):
        rng = np.random.default_rng(49)
        wbar = rng.standard_normal((9, 3))
        xbar = rng.standard_normal((9, 17))  # noisy: no exact fit exists
        h0 = np.abs(rng.standard_normal((3, 17)))
        report, seen = self.iterates(monkeypatch, xbar, wbar, h0, p, L=30)
        assert len(seen) == len(report.objective_trace) == 31
        assert np.array_equal(seen[0], h0)
        for hk, val in zip(seen, report.objective_trace):
            if p.kind == "ridge":
                pen = p.lam * np.sum(hk**2)
            elif p.kind == "lasso":
                pen = p.lam * np.sum(np.abs(hk))
            else:
                pen = p.lam * minkowski_definitional(dft_definitional(hk))
            exact = float(np.sum((xbar - wbar @ hk) ** 2)) + pen
            assert abs(val - exact) <= 1e-9 * exact
        assert report.extras["best_objective"] == min(report.objective_trace)

    def test_exact_fit_trace_takes_exact_fallback(self, monkeypatch):
        # noise-free and started at the solution: every iterate fits Xbar
        # to rounding, far below the Gram form's resolution
        rng = np.random.default_rng(50)
        wbar = rng.standard_normal((7, 2))
        h0 = np.abs(rng.standard_normal((2, 12)))
        xbar = wbar @ h0
        report, seen = self.iterates(monkeypatch, xbar, wbar, h0, Penalty.ridge(0.0), L=6)
        for hk, val in zip(seen, report.objective_trace):
            exact = float(np.sum((xbar - wbar @ hk) ** 2))
            assert exact <= 1e-6 * float(np.sum(xbar**2))
            assert val == exact

    def test_rejects_hard_penalty_and_bad_l(self):
        with pytest.raises(ValueError):
            solve_H_pgd(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), Penalty.hard_freq(R=1))
        with pytest.raises(ValueError):
            solve_H_pgd(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), Penalty.ridge(0.0), L=0)


def test_step_schedule_kinds_and_validation():
    lip = 2.0
    assert StepSchedule("diminishing_c_over_j", c=3.0).stepper(lip)(0, 0.0) == 3.0
    assert StepSchedule("diminishing_c_over_j", c=3.0).stepper(lip)(2, 0.0) == 1.0
    assert np.isclose(StepSchedule("lipschitz_scaled").stepper(lip)(0, 0.0), 1 / 5.0)
    ada = StepSchedule("adagrad_like", gamma0=0.5).stepper(lip)
    assert ada(0, 0.0) == 0.5
    assert np.isclose(ada(3, 16.0), 0.25)
    with pytest.raises(ValueError):
        StepSchedule("constant")
    with pytest.raises(ValueError):
        StepSchedule(c=-1.0)


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
        # sqrt(xi) = 1e150 scales the auxiliary rows; the code step's
        # squared gradient norms overflow on the first outer iteration
        x, y = make_example_data(d=6, T=30, freqs=(2, 5), seed=3)
        hyper = Hyper(2, 1e300, Penalty.soft_freq(1.0))
        with pytest.raises(ConvergenceError, match=r"ssnmf_bcd: non-finite .*grad_sq_sum"
                                                   r".* at outer iteration 1$"):
            ssnmf_bcd(x, y, hyper, n_iters=3, sub_iters=5, seed=0)

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


class TestAlternatingPgd:
    def test_fixed_point_when_feasible_and_optimal(self):
        rng = np.random.default_rng(44)
        T, R = 16, 2
        t = np.arange(T)
        h0 = np.vstack([1.5 + np.cos(2 * np.pi * 2 * t / T), 1.2 + np.cos(2 * np.pi * 5 * t / T)])
        wbar = rng.standard_normal((7, 2))
        xbar = wbar @ h0  # exact fit: gradient vanishes at h0
        h, _ = alternating_pgd(h0, wbar, xbar, R, n_iters=5)
        assert np.max(np.abs(h - h0)) <= 1e-10

    @pytest.mark.parametrize("priority", ["nonneg", "frequency"])
    def test_trace_matches_exact_residual_at_every_iterate(self, priority):
        rng = np.random.default_rng(47)
        wbar = rng.standard_normal((9, 3))
        xbar = np.abs(rng.standard_normal((9, 20)))  # noisy: no exact fit exists
        h0 = np.abs(rng.standard_normal((3, 20)))
        n = 12
        _, report = alternating_pgd(h0, wbar, xbar, 3, n, priority)
        for k in range(1, n + 1):
            # the first k iterates of any run are the same, so this is iterate k
            hk, _ = alternating_pgd(h0, wbar, xbar, 3, k, priority)
            exact = float(np.sum((xbar - wbar @ hk) ** 2))
            assert abs(report.objective_trace[k - 1] - exact) <= 1e-9 * exact

    def test_exact_fit_trace_takes_exact_fallback(self):
        # the instance of test_fixed_point_when_feasible_and_optimal
        rng = np.random.default_rng(44)
        T, R = 16, 2
        t = np.arange(T)
        h0 = np.vstack([1.5 + np.cos(2 * np.pi * 2 * t / T), 1.2 + np.cos(2 * np.pi * 5 * t / T)])
        wbar = rng.standard_normal((7, 2))
        xbar = wbar @ h0
        _, report = alternating_pgd(h0, wbar, xbar, R, n_iters=5)
        for k in range(1, 6):
            hk, _ = alternating_pgd(h0, wbar, xbar, R, n_iters=k)
            exact = float(np.sum((xbar - wbar @ hk) ** 2))
            assert exact <= 1e-6 * float(np.sum(xbar**2))
            assert report.objective_trace[k - 1] == exact

    def test_pure_tone_concentrates_after_projection(self):
        T = 32
        t = np.arange(T)
        target = 2.0 + np.cos(2 * np.pi * 5 * t / T)
        wbar = np.ones((4, 1))
        xbar = np.outer(np.ones(4), target)
        rng = np.random.default_rng(45)
        h0 = np.abs(rng.standard_normal((1, T)))
        h, report = alternating_pgd(h0, wbar, xbar, R=2, n_iters=60)
        # measured immediately after each projection, off-mask mass is dust
        assert max(report.extras["offmask_after_projection"]) <= 1e-12
        spec = np.abs(dft_rows(h))[0]
        kept = np.sort(np.argsort(-spec)[:3])  # DC + the +-5 pair
        assert np.sum(spec[kept] ** 2) >= 0.99 * np.sum(spec**2)

    def test_frequency_priority_leaves_band_limited_code(self):
        rng = np.random.default_rng(46)
        wbar = rng.standard_normal((6, 2))
        xbar = rng.standard_normal((6, 16))
        h0 = np.abs(rng.standard_normal((2, 16)))
        h, report = alternating_pgd(h0, wbar, xbar, R=3, n_iters=20, priority="frequency")
        assert report.extras["offmask_final"] <= 1e-12

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
            mu = inverse_usage_ratio(model.H)
            fracs.append(float(np.mean(mu >= 1e3)))
            medians.append(float(np.median(mu)))
        assert all(b >= a for a, b in zip(fracs, fracs[1:])), fracs
        assert medians[-1] >= medians[0]  # R=1 vs R=20 end-to-end ordering

    def test_validation(self):
        with pytest.raises(ValueError):
            alternating_pgd(np.zeros((1, 8)), np.zeros((2, 1)), np.zeros((2, 8)), 1, 5, priority="x")
        with pytest.raises(ValueError):
            alternating_pgd(np.zeros((1, 8)), np.zeros((2, 1)), np.zeros((2, 8)), 9, 5)


class TestSsnmfHard:
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

    def test_full_mask_matches_unregularized_bcd(self):
        x, y = make_example_data(d=8, T=24, freqs=(3, 7), seed=5)
        T = x.shape[1]
        r_full = T // 2 + 1
        hyper_hard = Hyper(2, 1.0, Penalty.hard_freq(R=r_full))
        hyper_bcd = Hyper(2, 1.0, Penalty.ridge(0.0))
        m_hard, rep_hard = ssnmf_hard(x, y, hyper_hard, r_full, n_iters=8, seed=11, sub_iters=25)
        m_bcd, rep_bcd = ssnmf_bcd(x, y, hyper_bcd, n_iters=8, sub_iters=25, seed=11)
        for a, b in zip(rep_hard.objective_trace, rep_bcd.objective_trace):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    def test_tos_variant_needs_mask_and_runs(self):
        x, y = make_example_data(d=8, T=24, freqs=(3, 7), seed=6)
        hyper = Hyper(2, 1.0, Penalty.hard_freq(R=2))
        with pytest.raises(ValueError):
            ssnmf_hard(x, y, hyper, 2, 3, variant="tos", seed=0)
        mask = FrequencyMask.same(2, 24, [0, 3, 7])
        model, report = ssnmf_hard(
            x, y, hyper, 2, n_iters=5, variant="tos", seed=0, sub_iters=40, mask=mask
        )
        assert np.all(model.H >= 0.0)
        assert len(report.objective_trace) == 5

    def test_overflow_raises_naming_solver_and_iteration(self):
        x, y = make_example_data(d=6, T=20, freqs=(2, 5), seed=7)
        mask = FrequencyMask.same(2, 20, [0, 2, 5])
        with pytest.raises(ConvergenceError, match=r"ssnmf_hard: non-finite H, W, Wp, "
                                                   r"grad_sq_sum at outer iteration 1$"):
            ssnmf_hard(x, y, Hyper(2, 1e300, Penalty.hard_freq(mask=mask)), 2, n_iters=3,
                       variant="tos", seed=0, sub_iters=5, mask=mask)
        # the heuristic keeps no gradient sum; data near the top of the
        # float range overflows its Gram matrix instead
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
    @pytest.mark.parametrize("penalty, variant, R, want", [
        (Penalty.ridge(0.1), None, None, "pgd"),
        (Penalty.lasso(0.1), None, None, "pgd"),
        (Penalty.soft_freq(0.1), None, None, "pgd"),
        (Penalty.hard_freq(R=2), None, None, "heuristic"),
        (Penalty.hard_freq(mask=MASK16), None, None, "tos"),
        (Penalty.hard_freq(R=2, mask=MASK16), None, None, "tos"),
        (Penalty.hard_freq(R=2, mask=MASK16), "heuristic", None, "heuristic"),
        (Penalty.hard_freq(mask=MASK16), "heuristic", 3, "heuristic"),
        (Penalty.hard_freq(R=2), "heuristic", 3, "heuristic"),
        (Penalty.ridge(0.1), "heuristic", 2, "heuristic"),
        (Penalty("ridge", 0.1, mask=MASK16), "tos", None, "tos"),
        (Penalty.soft_freq(0.1), "pgd", None, "pgd"),
    ])
    def test_choice_and_solver(self, penalty, variant, R, want):
        rng = np.random.default_rng(48)
        wbar = rng.standard_normal((7, 2))
        xbar = np.abs(rng.standard_normal((7, 16)))
        h0 = np.abs(rng.standard_normal((2, 16)))
        got, step = code_step(penalty, variant, R)
        assert got == want
        h, sub = step(xbar, wbar, h0, 6)
        if want == "pgd":
            ref, ref_sub = solve_H_pgd(xbar, wbar, h0, penalty, None, 6)
        elif want == "heuristic":
            ref, ref_sub = alternating_pgd(h0, wbar, xbar, R if R is not None else penalty.R, 6)
        else:
            gram, cross = wbar.T @ wbar, wbar.T @ xbar
            ref, ref_sub = three_operator_splitting(lambda m: 2.0 * (gram @ m - cross), MASK16,
                                                    h0, 6)
            last = ref_sub.extras["last_iterate"]
            ref_sub.objective_trace.append(float(np.sum((xbar - wbar @ last) ** 2)))
        assert np.array_equal(h, ref)
        assert sub.step_trace == ref_sub.step_trace
        assert sub.objective_trace[-1] == pytest.approx(ref_sub.objective_trace[-1], rel=1e-12)

    def test_pgd_options_reach_the_solver(self):
        rng = np.random.default_rng(49)
        wbar = rng.standard_normal((5, 2))
        xbar = rng.standard_normal((5, 8))
        h0 = rng.standard_normal((2, 8))
        sched = StepSchedule("diminishing_c_over_j", c=0.01)
        _, step = code_step(Penalty.lasso(0.2), sched=sched, nonneg=False)
        h, sub = step(xbar, wbar, h0, 4)
        ref, ref_sub = solve_H_pgd(xbar, wbar, h0, Penalty.lasso(0.2), sched, 4, nonneg=False)
        assert np.array_equal(h, ref) and sub.step_trace == ref_sub.step_trace

    def test_heuristic_priority_reaches_the_solver(self):
        rng = np.random.default_rng(50)
        wbar = rng.standard_normal((6, 2))
        xbar = rng.standard_normal((6, 16))
        h0 = np.abs(rng.standard_normal((2, 16)))
        _, step = code_step(Penalty.hard_freq(R=3), priority="frequency")
        h, _ = step(xbar, wbar, h0, 5)
        assert np.array_equal(h, alternating_pgd(h0, wbar, xbar, 3, 5, "frequency")[0])

    @pytest.mark.parametrize("penalty, variant, R, match", [
        (Penalty.hard_freq(R=2), "pgd", None, "cannot solve a hard-frequency penalty"),
        (Penalty.hard_freq(mask=MASK16), "pgd", None, "cannot solve a hard-frequency penalty"),
        (Penalty.ridge(0.1), "heuristic", None, "needs R"),
        (Penalty.hard_freq(mask=MASK16), "heuristic", None, "needs R"),
        (Penalty.hard_freq(R=2), "tos", None, "needs a fixed FrequencyMask"),
        (Penalty.soft_freq(0.1), "tos", 2, "needs a fixed FrequencyMask"),
        (Penalty.ridge(0.1), "hals", None, "unknown code-step variant"),
    ])
    def test_errors(self, penalty, variant, R, match):
        with pytest.raises(ValueError, match=match):
            code_step(penalty, variant, R)

    def test_tos_mask_length_must_match_the_code(self):
        _, step = code_step(Penalty.hard_freq(mask=MASK16))
        with pytest.raises(ValueError, match="mask is for T=16, H has 12 columns"):
            step(np.ones((3, 12)), np.ones((3, 2)), np.ones((2, 12)), 3)

    def test_ssnmf_hard_without_variant_follows_the_band(self):
        x, y = make_example_data(d=8, T=16, freqs=(2, 5), seed=6)
        hyper = Hyper(2, 1.0, Penalty.hard_freq(mask=MASK16))
        _, rep = ssnmf_hard(x, y, hyper, None, n_iters=2, variant=None, sub_iters=5)
        assert rep.extras["variant"] == "tos"
        _, rep = ssnmf_hard(x, y, Hyper(2, 1.0, Penalty.ridge(0.0)), 2, n_iters=2, variant=None,
                            sub_iters=5)
        assert rep.extras["variant"] == "heuristic"
