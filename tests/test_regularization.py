import math

import numpy as np
import pytest

from freqfact import (
    FrequencyMask,
    Penalty,
    dft_rows,
    minkowski1,
    penalty_subgradient,
    penalty_value,
    project_frequency_mask,
)

from helpers import central_diff, dft_definitional, minkowski_definitional, sample_differentiable_h


def test_zero_matrix_has_zero_penalty_every_kind():
    h = np.zeros((2, 6))
    for p in (Penalty.ridge(2.0), Penalty.lasso(2.0), Penalty.soft_freq(2.0), Penalty.hard_freq(R=1)):
        assert penalty_value(h, p) == 0.0


def test_lasso_value():
    assert penalty_value(np.array([[1.0, -3.0]]), Penalty.lasso(2.0)) == 8.0


def test_ridge_value():
    assert penalty_value(np.array([[1.0, 2.0]]), Penalty.ridge(0.5)) == 2.5


def test_soft_freq_matches_definitional_oracle():
    rng = np.random.default_rng(20)
    h = rng.standard_normal((3, 9))
    want = 1.7 * minkowski_definitional(dft_definitional(h))
    assert np.isclose(penalty_value(h, Penalty.soft_freq(1.7)), want, rtol=1e-10)


def test_hard_freq_value_feasible_and_not():
    T = 8
    mask = FrequencyMask.same(1, T, [0, 2])
    rng = np.random.default_rng(21)
    h = rng.standard_normal((1, T))
    band = project_frequency_mask(h, mask)
    p = Penalty.hard_freq(mask=mask)
    assert penalty_value(band, p) == 0.0
    assert penalty_value(h, p) == math.inf
    # adaptive top-R: anything band-limited to <= R frequencies is feasible
    assert penalty_value(band, Penalty.hard_freq(R=2)) == 0.0


def test_penalty_values_nonnegative_and_convex():
    rng = np.random.default_rng(22)
    penalties = [Penalty.ridge(0.7), Penalty.lasso(1.3), Penalty.soft_freq(0.9)]
    for _ in range(25):
        h1 = rng.standard_normal((2, 6))
        h2 = rng.standard_normal((2, 6))
        alpha = float(rng.random())
        for p in penalties:
            v1, v2 = penalty_value(h1, p), penalty_value(h2, p)
            assert v1 >= 0.0
            mid = penalty_value(alpha * h1 + (1 - alpha) * h2, p)
            assert mid <= alpha * v1 + (1 - alpha) * v2 + 1e-10


def test_ridge_subgradient():
    g = penalty_subgradient(np.array([[1.0]]), Penalty.ridge(3.0))
    assert g.tolist() == [[6.0]]


def test_lasso_subgradient_zero_at_kink():
    g = penalty_subgradient(np.zeros((1, 3)), Penalty.lasso(2.0))
    assert np.array_equal(g, np.zeros((1, 3)))


def test_soft_freq_subgradient_finite_difference():
    rng = np.random.default_rng(23)
    lam = 2.5
    p = Penalty.soft_freq(lam)
    func = lambda m: lam * minkowski1(dft_rows(m))
    for _ in range(10):
        h = sample_differentiable_h(rng, 2, 8)
        d = rng.standard_normal(h.shape)
        fd = central_diff(func, h, d)
        assert np.isclose(fd, np.vdot(d, penalty_subgradient(h, p)), rtol=1e-6, atol=1e-9)


def test_precomputed_spectrum_gives_the_same_terms():
    rng = np.random.default_rng(24)
    h = np.abs(rng.standard_normal((3, 11)))
    spec = np.fft.rfft(h, axis=1)
    for p in (Penalty.ridge(0.3), Penalty.lasso(0.3), Penalty.soft_freq(0.3)):
        assert penalty_value(h, p, spec) == penalty_value(h, p)
        assert np.array_equal(penalty_subgradient(h, p, spec), penalty_subgradient(h, p))
    # soft_freq reads the spectrum it is given
    p = Penalty.soft_freq(1.0)
    assert np.isclose(penalty_value(h, p, 2.0 * spec), 2.0 * penalty_value(h, p), rtol=1e-14)


def test_hard_freq_has_no_subgradient():
    with pytest.raises(ValueError):
        penalty_subgradient(np.zeros((1, 4)), Penalty.hard_freq(R=1))


def test_hard_feasibility_iff_projection_fixed_point():
    rng = np.random.default_rng(27)
    mask = FrequencyMask.same(1, 12, [0, 2])
    p = Penalty.hard_freq(mask=mask)
    for _ in range(10):
        h = rng.standard_normal((1, 12))
        proj = project_frequency_mask(h, mask)
        feasible = penalty_value(h, p) == 0.0
        fixed = np.linalg.norm(h - proj) <= 1e-8 * max(np.linalg.norm(h), 1e-300)
        assert feasible == fixed
        assert penalty_value(proj, p) == 0.0


def test_penalty_validation():
    with pytest.raises(ValueError):
        Penalty("huber", 1.0)
    with pytest.raises(ValueError):
        Penalty.ridge(-1.0)
    with pytest.raises(ValueError):
        Penalty("hard_freq", 0.0)
