"""The exact band solve and pursuit on it: optimality against an
independent SLSQP solve, exact band and sign structure, the singular-Gram
floor, and the hard fits and forecasts that run them."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from freqfact import (
    EncodeConfig,
    FrequencyMask,
    Hyper,
    Penalty,
    SyntheticSpec,
    band_pursuit,
    encode_new,
    gen_cosine_mixture,
    nse,
    objective,
    offmask_ratio,
    solve_H_band,
    ssnmf_hard,
)
from freqfact.regularization import band_offmask_ratio
from freqfact.spectral import top_r_keep

from helpers import normal_terms
from test_acceptance import _band_limited_instance
from test_solvers import make_example_data


def _coefficient_reference(wbar, xbar, mask):
    """min ||Xbar - Wbar H||_F^2 over H >= 0 in the mask's band, by SLSQP in
    band coefficients (c05's reference, with an unnormalized cos/sin basis
    built here) and exact gradients, polished on the constraints it leaves
    active; returns its objective.  Rows whose band has no DC bin are fixed
    at 0, where SLSQP would stop off its feasible set."""
    T = mask.T
    t = np.arange(T)
    blocks = []
    for kept in mask.kept:
        cols = []
        # a band without DC leaves the row a zero mean: nonnegative, it is 0
        for k in sorted(k for k in kept if k <= T // 2 and 0 in kept):
            cols.append(np.cos(2 * np.pi * k * t / T))
            if 0 < k and 2 * k != T:
                cols.append(np.sin(2 * np.pi * k * t / T))
        blocks.append(np.array(cols).reshape(-1, T))
    n = sum(len(b) for b in blocks)
    a = np.zeros((len(blocks) * T, n))  # the code, flattened, is a @ c
    at = 0
    for s, b in enumerate(blocks):
        a[s * T:(s + 1) * T, at:at + len(b)] = b.T
        at += len(b)

    def fun(c):
        resid = xbar - wbar @ (a @ c).reshape(len(blocks), T)
        return float(np.sum(resid * resid)), a.T @ (-2.0 * (wbar.T @ resid)).ravel()

    if n == 0:  # every row is 0
        return float(np.sum(xbar * xbar))
    # from the strictly feasible code of all ones, which the DC bins give
    start = np.concatenate([np.eye(len(b))[0] for b in blocks if len(b)])
    res = minimize(fun, start, jac=True, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda c: a @ c, "jac": lambda c: a}],
                   options={"maxiter": 1000, "ftol": 1e-12})
    # 8 is SLSQP's stop at its precision limit, on an optimum it cannot refine
    assert res.status in (0, 8), res.message
    # SLSQP ends up to about 1e-7 off its feasible set.  Polish: the exact
    # least-squares code with the constraints it leaves near 0 held at 0, in
    # the null space of their normals; the best feasible one over a few
    # thresholds of "near"
    code = a @ res.x
    scale = 1.0 + np.abs(code).max()  # 1 + where the optimum is H = 0
    fit = np.column_stack([(wbar @ col.reshape(len(blocks), T)).ravel() for col in a.T])
    best = math.inf
    for near in (1e-4, 1e-6, 1e-8, 1e-10):
        active = a[np.abs(code) <= near * scale]
        _, sv, vt = np.linalg.svd(active) if len(active) else (None, np.zeros(0), None)
        null = vt[int(np.sum(sv > 1e-10 * sv[0])):].T if len(active) else np.eye(n)
        polished = null @ np.linalg.lstsq(fit @ null, xbar.ravel(), rcond=None)[0]
        if (a @ polished).min() >= -1e-12 * scale:
            best = min(best, fun(polished)[0])
    assert best < math.inf
    return best


def _random_instance(rng, degenerate):
    """T in 8..39, k in 1..3 atoms, a band of 1 to 4 bins per row, four in
    five of them with DC (a nonnegative row without DC is 0); a degenerate
    instance pulls Xbar along minus the first atom, so that atom's optimal
    row is often all zero."""
    T, k = int(rng.integers(8, 40)), int(rng.integers(1, 4))
    m = k + int(rng.integers(1, 4))
    wbar = rng.standard_normal((m, k))
    rows = []
    for _ in range(k):
        bins = rng.choice(T // 2 + 1, int(rng.integers(1, 5)), replace=False)
        if rng.random() < 0.8:
            bins[0] = 0  # a repeat of bin 0 is harmless
        rows.append(tuple({sign * int(b) % T for b in bins for sign in (1, -1)}))
    xbar = wbar @ np.abs(rng.standard_normal((k, T))) + 0.3 * rng.standard_normal((m, T))
    if degenerate:
        xbar -= 5.0 * np.outer(wbar[:, 0], np.ones(T))
    return wbar, xbar, FrequencyMask(T, tuple(rows))


def test_exact_solve_matches_slsqp_on_random_instances():
    rng = np.random.default_rng(2026)
    zero_rows = 0
    for i in range(150):
        wbar, xbar, mask = _random_instance(rng, degenerate=i % 3 == 0)
        k, T = len(mask.kept), mask.T
        h, report = solve_H_band(*normal_terms(xbar, wbar), np.zeros((k, T)), mask)
        fit = float(np.sum((xbar - wbar @ h) ** 2))
        ref = _coefficient_reference(wbar, xbar, mask)
        assert abs(fit - ref) <= 1e-9 * ref, (i, fit, ref)
        assert offmask_ratio(h, mask).max() <= 1e-12, i
        assert h.min() >= 0.0
        assert report.terminated == "tol_reached" and report.wall_iters >= 1
        # an all-zero optimal row whose band has DC, where the active set must
        # hold as many constraints as the row has coefficients
        zero_rows += sum(0 in kept and not row.any() for kept, row in zip(mask.kept, h))
    assert zero_rows >= 20


def _singular_problem(kind):
    rng = np.random.default_rng(7)
    T = 24
    mask = FrequencyMask.same(3, T, [0, 2, 5])
    wbar = rng.standard_normal((6, 3))
    if kind == "zero_column":
        wbar[:, 1] = 0.0
    elif kind == "collinear":
        wbar[:, 2] = 2.0 * wbar[:, 0]
    else:  # more atoms than rows
        wbar = wbar[:2]
    xbar = wbar @ np.abs(rng.standard_normal((3, T))) + 0.1 * rng.standard_normal((len(wbar), T))
    return wbar, xbar, mask


@pytest.mark.parametrize("kind", ["zero_column", "collinear", "wide"])
def test_a_singular_gram_takes_the_ridge_floor(kind):
    # many codes fit alike; the floored solve returns one of them, finite,
    # nonnegative and in band, and no worse a fit than the reference's
    wbar, xbar, mask = _singular_problem(kind)
    h, _ = solve_H_band(*normal_terms(xbar, wbar), np.zeros((3, mask.T)), mask)
    fit = float(np.sum((xbar - wbar @ h) ** 2))
    ref = _coefficient_reference(wbar, xbar, mask)
    assert np.all(np.isfinite(h)) and h.min() >= 0.0
    assert offmask_ratio(h, mask).max() <= 1e-12
    assert fit <= ref + 1e-6 * max(ref, 1.0)
    if kind == "zero_column":
        # the ridge picks the smallest optimal code: an unseen atom's row is 0
        assert not h[1].any()


def test_a_zero_gram_gives_the_zero_code():
    mask = FrequencyMask.same(2, 16, [0, 3])
    xbar = np.ones((4, 16))
    h, report = solve_H_band(*normal_terms(xbar, np.zeros((4, 2))), np.ones((2, 16)), mask)
    assert not h.any() and report.wall_iters == 0
    h, report = band_pursuit(*normal_terms(xbar, np.zeros((4, 2))), np.ones((2, 16)), 2, 5)
    assert not h.any() and report.wall_iters == 0


class TestPursuit:
    def problem(self):
        x, y = make_example_data(d=8, T=40, freqs=(3, 7), seed=3)
        rng = np.random.default_rng(3)
        xbar = np.vstack([x, y])
        return xbar, rng.standard_normal((len(xbar), 3)), np.abs(rng.standard_normal((3, 40)))

    def test_stops_on_a_repeated_support_at_a_fixed_point(self):
        xbar, wbar, h0 = self.problem()
        h, report = band_pursuit(*normal_terms(xbar, wbar), h0, 3, 50)
        assert report.terminated == "tol_reached" and report.wall_iters < 50
        assert len(report.step_trace) == report.wall_iters
        assert len(report.extras["offmask_after_projection"]) == report.wall_iters - 1
        assert max(report.extras["offmask_after_projection"]) <= 1e-12
        # the code is in its own top-R band, nonnegative, and a fixed point:
        # one more call from it solves on the same support
        assert band_offmask_ratio(h, Penalty.hard_freq(R=3)).max() <= 1e-12
        assert h.min() >= 0.0
        again, _ = band_pursuit(*normal_terms(xbar, wbar), h, 3, 50)
        assert np.allclose(again, h, rtol=0.0, atol=1e-12 * np.abs(h).max())

    def test_the_cap_ends_after_the_first_solve(self):
        xbar, wbar, h0 = self.problem()
        h, report = band_pursuit(*normal_terms(xbar, wbar), h0, 3, 1)
        assert report.terminated == "max_iters" and report.wall_iters == 1
        # the first round solves on the support of the gradient step from h0
        gram = wbar.T @ wbar
        step = h0 - (gram @ h0 - wbar.T @ xbar) / np.linalg.norm(gram, 2)
        keep = top_r_keep(np.maximum(step, 0.0), 3)[1]
        mask = FrequencyMask(40, tuple(
            tuple(sorted({sign * int(b) % 40 for b in np.flatnonzero(row) for sign in (1, -1)}))
            for row in keep))
        ref, _ = solve_H_band(*normal_terms(xbar, wbar), h0, mask)
        assert np.array_equal(h, ref)

    def test_rejects_zero_rounds(self):
        xbar, wbar, h0 = self.problem()
        with pytest.raises(ValueError, match="^n_rounds must be >= 1$"):
            band_pursuit(*normal_terms(xbar, wbar), h0, 3, 0)

    def test_the_encode_caps_rounds_at_sweeps_times_sub_iters(self):
        xbar, wbar, _ = self.problem()
        start = np.abs(np.random.default_rng(4).standard_normal((3, 40)))
        for sweeps, sub_iters in [(1, 1), (1, 2), (3, 50)]:
            h, report = encode_new(xbar, wbar, Penalty.hard_freq(R=3), 0.0,
                                   EncodeConfig(sweeps, sub_iters, seed=4))
            ref, ref_report = band_pursuit(*normal_terms(xbar, wbar), start, 3, sweeps * sub_iters)
            assert np.array_equal(h, ref)
            assert report.wall_iters == ref_report.wall_iters <= sweeps * sub_iters
            # the encode keeps only the step and the rounds of pursuit's report
            assert report.step_trace == ref_report.step_trace[:1] and report.extras == {}


class TestHardFitsEndOnTheirBand:
    """Hard fits return codes on their band, so their objective is finite."""

    def test_top_r_fit_on_c06s_instance(self):
        x, y = _band_limited_instance()
        hyper = Hyper(2, 1.0, Penalty.hard_freq(R=2))
        model, report = ssnmf_hard(x, y, hyper, R=2, n_iters=50, seed=0, sub_iters=30)
        assert report.extras["offmask_final"] <= 1e-12
        assert math.isfinite(objective(x, y, model)) and model.H.min() >= 0.0

    def test_fixed_mask_fit_after_two_outer_iterations(self):
        x, y = make_example_data(d=8, T=40, freqs=(3, 7), seed=6)
        mask = FrequencyMask.same(2, 40, [0, 3, 7])
        model, report = ssnmf_hard(x, y, Hyper(2, 1.0, Penalty.hard_freq(mask=mask)), None, 2)
        assert report.extras["offmask_final"] <= 1e-12
        assert math.isfinite(objective(x, y, model)) and model.H.min() >= 0.0


def test_hard_scan_seed_11_forecasts_well():
    # the benchmark's hard_scan data at seed 11, where adaptive-band fits used
    # to forecast at NSE 0.60: factorize on the first 192 columns, encode the
    # full auxiliary period and score the forecast of the rest
    x, ys = gen_cosine_mixture(SyntheticSpec(64, 256, (14, 6), 0.5, 0.5, seed=11))
    y = np.vstack(ys)
    band = Penalty.hard_freq(R=3)
    model, _ = ssnmf_hard(x[:, :192], y, Hyper(4, 0.5, band), None, 20, seed=0, sub_iters=50)
    h, _ = encode_new(y, model.Wp, band, 0.0, EncodeConfig(sweeps=20, sub_iters=50))
    assert nse(x[:, 192:], model.W @ h[:, 192:]) >= 0.95
