import math

import numpy as np
import pytest

from freqfact import (
    FrequencyMask,
    Penalty,
    minkowski_prox,
    penalty_prox,
    penalty_value,
    project_frequency_mask,
)

from helpers import dft_definitional, minkowski_definitional


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


@pytest.mark.parametrize("p", [Penalty.ridge(0.7), Penalty.lasso(1.3), Penalty.soft_freq(0.9)],
                         ids=lambda p: p.kind)
def test_prox_no_perturbation_does_better(p):
    rng = np.random.default_rng(23)
    func = lambda m, v, t: 0.5 * float(np.sum((m - v) ** 2)) + t * penalty_value(m, p)
    for _ in range(10):
        v = 2.0 * rng.standard_normal((2, 9))
        t = float(rng.uniform(0.05, 2.0))
        prox = penalty_prox(v, p, t)
        base = func(prox, v, t)
        for _ in range(100):
            eps = 10.0 ** rng.uniform(-6.0, 0.0)
            assert func(prox + eps * rng.standard_normal(v.shape), v, t) >= base - 1e-12


def test_prox_closed_forms():
    v = np.array([[3.0, -0.5, 0.2, -2.0]])
    assert np.array_equal(penalty_prox(v, Penalty.ridge(0.5), 2.0), v / 3.0)
    assert penalty_prox(v, Penalty.lasso(0.5), 2.0).tolist() == [[2.0, -0.0, 0.0, -1.0]]
    assert np.array_equal(penalty_prox(v, Penalty.soft_freq(0.5), 2.0), minkowski_prox(v, 1.0))
    # per-block steps broadcast as minkowski_prox's thresholds do
    stack = np.stack([v, 2.0 * v])
    t = np.array([0.5, 2.0])[:, None, None]
    for p in (Penalty.ridge(0.5), Penalty.lasso(0.5), Penalty.soft_freq(0.5)):
        got = penalty_prox(stack, p, t)
        for b in range(2):
            assert np.array_equal(got[b], penalty_prox(stack[b], p, t[b]))


def test_hard_freq_has_no_prox():
    # a band's code steps solve it exactly: a top-R band, with or without a
    # weight, and a fixed mask alike
    for p in (Penalty.hard_freq(R=1), Penalty("hard_freq", 0.5, R=2),
              Penalty.hard_freq(mask=FrequencyMask.same(1, 4, [0]))):
        with pytest.raises(ValueError, match=r"^hard_freq has no prox step: a band's code step is "
                                             r"band\.solve_H_band \(fixed mask\) or "
                                             r"band\.band_pursuit \(top-R\)$"):
            penalty_prox(np.zeros((1, 4)), p, 1.0)


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
