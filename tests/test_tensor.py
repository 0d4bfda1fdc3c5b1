import numpy as np
import pytest

from freqfact import SpatioTemporalTensor, fold, matricize, supervised_stack


def test_matricize_single_cell():
    t = SpatioTemporalTensor(np.array([5.0, 6.0, 7.0]).reshape(1, 1, 3))
    assert matricize(t).tolist() == [[5.0, 6.0, 7.0]]


def test_matricize_row_major_layout():
    vals = np.arange(4.0).reshape(2, 2, 1)
    m = matricize(SpatioTemporalTensor(vals))
    # row a*B + b order
    assert m[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]


def test_fold_examples():
    t = fold(np.array([[1.0, 2.0, 3.0]]), 1, 1)
    assert t.dims == (1, 1, 3)
    t2 = fold(np.arange(4.0).reshape(4, 1), 2, 2)
    assert np.array_equal(matricize(t2), np.arange(4.0).reshape(4, 1))


def test_matricize_fold_round_trip_random_dims():
    rng = np.random.default_rng(0)
    for _ in range(50):
        A, B, T = rng.integers(1, 9, size=3)
        vals = rng.standard_normal((A, B, T))
        t = SpatioTemporalTensor(vals)
        m = matricize(t)
        back = fold(m, A, B)
        assert np.array_equal(back.values, vals)
        assert np.array_equal(matricize(back), m)


def test_matricize_preserves_frobenius():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((3, 4, 5))
    assert np.isclose(np.linalg.norm(matricize(SpatioTemporalTensor(vals))), np.linalg.norm(vals))


def test_masked_columns_dropped_and_recorded():
    vals = np.arange(2 * 1 * 4, dtype=float).reshape(2, 1, 4)
    mask = np.array([True, False, True, False])
    t = SpatioTemporalTensor(vals, mask)
    m = matricize(t)
    assert m.shape == (2, 2)
    assert np.array_equal(m, vals.reshape(2, 4)[:, [0, 2]])
    assert t.kept_times().tolist() == [0, 2]


def test_tensor_validation():
    with pytest.raises(ValueError):
        SpatioTemporalTensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SpatioTemporalTensor(np.zeros((1, 1, 3)), np.array([True, False]))
    with pytest.raises(ValueError):
        SpatioTemporalTensor(np.zeros((1, 1, 2)), np.array([False, False]))
    with pytest.raises(ValueError):
        SpatioTemporalTensor(np.array([[[np.nan]]]))


@pytest.mark.parametrize("shape", [(3,), (1, 1, 3)])
def test_fold_needs_a_matrix(shape):
    with pytest.raises(ValueError, match=r"^fold expects a 2-d matrix$"):
        fold(np.zeros(shape), 1, 1)


def test_fold_dimension_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros((3, 2)), 2, 2)


def test_supervised_stack_examples():
    x = np.ones((1, 1))
    y = np.ones((1, 1))
    assert supervised_stack(x, y, 0.0)[1, 0] == 0.0
    assert np.array_equal(supervised_stack(x, y, 1.0), np.ones((2, 1)))
    assert supervised_stack(x, np.array([[1.0]]), 4.0)[1, 0] == 2.0
    with pytest.raises(ValueError):
        supervised_stack(x, y, -1.0)
    with pytest.raises(ValueError):
        supervised_stack(np.ones((1, 2)), np.ones((1, 3)), 1.0)


def test_supervised_stack_energy_identity():
    # ||[X; sqrt(xi) Y] H||^2 == ||X H||^2 + xi ||Y H||^2
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal((5, 4))
        h = rng.standard_normal((4, 6))
        xi = float(rng.random() * 10)
        lhs = np.linalg.norm(supervised_stack(x, y, xi) @ h) ** 2
        rhs = np.linalg.norm(x @ h) ** 2 + xi * np.linalg.norm(y @ h) ** 2
        assert np.isclose(lhs, rhs, rtol=1e-12)


def test_supervised_stack_is_bitwise_the_plain_stack():
    rng = np.random.default_rng(3)
    full = rng.standard_normal((5, 9))
    x = rng.standard_normal((3, 7))
    for xi in (0.0, 0.5, 2.0, 7.3):
        got = supervised_stack(x, full[:, :7], xi)
        assert got.tobytes() == np.vstack([x, np.sqrt(xi) * full[:, :7]]).tobytes()
