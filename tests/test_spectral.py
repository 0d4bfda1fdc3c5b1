import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqfact.band as band
from freqfact.spectral import (
    half_minkowski1,
    half_offmask_ratio,
    minkowski_prox,
    top_r_keep,
)
from freqfact import (
    ConvergenceError,
    EncodeConfig,
    FrequencyMask,
    Penalty,
    SpectrumSymmetryError,
    dft_rows,
    encode_new,
    idft_rows,
    inverse_usage_ratio,
    mask_distance,
    minkowski1,
    minkowski_subgradient,
    offmask_ratio,
    penalty_value,
    project_frequency_mask,
)

from helpers import (
    central_diff,
    dft_definitional,
    dft_loops,
    idft_definitional,
    minkowski_definitional,
    sample_differentiable_h,
)


class TestDft:
    def test_constant_row_is_dc_only(self):
        s = dft_rows(np.ones((1, 4)))
        assert np.allclose(s, [[1, 0, 0, 0]], atol=1e-12)

    def test_single_cosine_splits_between_mirrored_bins(self):
        T = 8
        row = np.cos(2 * np.pi * np.arange(T) / T)
        s = dft_rows(row)[0]
        expected = np.zeros(T)
        expected[1] = expected[T - 1] = 0.5
        assert np.allclose(s.real, expected, atol=1e-12)
        assert np.allclose(s.imag, 0, atol=1e-12)

    def test_matches_definitional_matrix_product(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 8))
        assert np.allclose(dft_rows(a), dft_definitional(a), atol=1e-10)

    def test_matches_triple_loop_sum(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 6))
        assert np.allclose(dft_rows(a), dft_loops(a), atol=1e-10)

    def test_scaled_parseval(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.standard_normal((rng.integers(1, 5), rng.integers(2, 33)))
            T = a.shape[1]
            assert np.isclose(
                np.linalg.norm(dft_rows(a)) ** 2, np.linalg.norm(a) ** 2 / T, rtol=1e-10
            )

    def test_conjugate_symmetry_of_real_input(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 9))
        s = dft_rows(a)
        T = a.shape[1]
        mirrored = s[:, (T - np.arange(T)) % T]
        assert np.allclose(s, mirrored.conj(), atol=1e-10)


class TestIdft:
    def test_dc_spectrum_gives_constant_row(self):
        assert np.allclose(idft_rows(np.array([[1.0, 0, 0, 0]])), np.ones((1, 4)))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 11))
        assert np.allclose(idft_rows(dft_rows(a)), a, atol=1e-10)

    def test_zero_spectrum(self):
        assert np.array_equal(idft_rows(np.zeros((2, 5), dtype=complex)), np.zeros((2, 5)))

    def test_rejects_asymmetric_spectrum(self):
        s = np.zeros((1, 4), dtype=complex)
        s[0, 1] = 1j  # mirror bin left at zero
        with pytest.raises(SpectrumSymmetryError):
            idft_rows(s)


class TestMinkowski:
    def test_real_spectrum_reduces_to_l1(self):
        s = np.array([[1.0, -2.0, 3.0]], dtype=complex)
        assert minkowski1(s) == 6.0

    def test_single_complex_entry(self):
        assert minkowski1(np.array([[1 + 2j]])) == 3.0

    def test_contains_scaled_l1_of_nonneg_input(self):
        # for H >= 0 the DC bin contributes exactly ||H||_1 / T
        rng = np.random.default_rng(8)
        h = np.abs(rng.standard_normal((2, 10)))
        s = dft_definitional(h)
        total = minkowski_definitional(s)
        dc = np.abs(h).sum() / h.shape[1]
        rest = minkowski_definitional(s[:, 1:])
        assert np.isclose(total, dc + rest, rtol=1e-10)
        assert np.isclose(minkowski1(dft_rows(h)), total, rtol=1e-10)

    def test_absolute_homogeneity_and_triangle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
            b = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
            c = float(rng.standard_normal())
            assert np.isclose(minkowski1(c * a), abs(c) * minkowski1(a), rtol=1e-12)
            assert minkowski1(a + b) <= minkowski1(a) + minkowski1(b) + 1e-12


class TestMinkowskiSubgradient:
    def test_zero_matrix_maps_to_zero(self):
        assert np.array_equal(minkowski_subgradient(np.zeros((2, 6))), np.zeros((2, 6)))

    def test_positive_constant_row(self):
        # Spectrum sits at DC only; the finite-difference oracle pins the
        # gradient at ones/T (the norm there is |mean|, smooth in every
        # direction through the DC bin, kinked with slope >= 0 elsewhere).
        T = 8
        h = np.full((1, T), 3.0)
        g = minkowski_subgradient(h)
        assert np.allclose(g, np.full((1, T), 1.0 / T), atol=1e-12)
        rng = np.random.default_rng(10)
        d = np.ones((1, T)) + 0.0 * rng.standard_normal((1, T))
        fd = central_diff(lambda m: minkowski1(dft_rows(m)), h, d)
        assert np.isclose(fd, np.vdot(d, g), atol=1e-8)

    def test_matches_finite_differences_at_smooth_points(self):
        rng = np.random.default_rng(11)
        func = lambda m: minkowski1(dft_rows(m))
        for _ in range(25):
            h = sample_differentiable_h(rng, 2, 8)
            g = minkowski_subgradient(h)
            d = rng.standard_normal(h.shape)
            fd = central_diff(func, h, d)
            assert np.isclose(fd, np.vdot(d, g), rtol=1e-6, atol=1e-9)

    def test_subgradient_inequality_everywhere(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            h = rng.standard_normal((2, 7))
            g = minkowski_subgradient(h)
            d = 0.5 * rng.standard_normal(h.shape)
            lhs = minkowski1(dft_rows(h + d))
            rhs = minkowski1(dft_rows(h)) + np.vdot(d, g)
            assert lhs >= rhs - 1e-8


def _full_fft_subgradient(h):
    """The full-spectrum formula the half-spectrum rule replaced."""
    s = np.fft.fft(h, axis=1) / h.shape[1]
    return np.fft.ifft(np.sign(s.real) + 1j * np.sign(s.imag), axis=1).real


def _definitional_subgradient(h):
    s = dft_definitional(h)
    signs = np.sign(s.real) + 1j * np.sign(s.imag)
    return idft_definitional(signs).real / h.shape[1]


def _kink_rows(T):
    """Rows whose exact spectra have zero parts that the FFT also returns as
    exact zeros: impulses at t = 0 (all-real spectra) and, for even T, an
    alternating row (Nyquist only)."""
    rows = [3.0 * np.eye(1, T, 0).ravel(), -0.5 * np.eye(1, T, 0).ravel()]
    if T % 2 == 0:
        rows.append((-1.0) ** np.arange(T))
    return np.array(rows)


class TestHalfMinkowski:
    LENGTHS = [1, 2, 3, 16, 17, 256]

    def rows(self, T):
        rng = np.random.default_rng(500 + T)
        return np.vstack([rng.standard_normal((3, T)), np.abs(rng.standard_normal((2, T))),
                          np.zeros((1, T)), np.full((1, T), 2.5), np.full((1, T), -1.0),
                          _kink_rows(T)])

    @pytest.mark.parametrize("T", LENGTHS)
    def test_value_matches_definitional_and_full_spectrum(self, T):
        for row in self.rows(T):
            h = row[None, :]
            got = half_minkowski1(np.fft.rfft(h, axis=1), T)
            want = minkowski_definitional(dft_definitional(h))
            assert abs(got - want) <= 1e-10 * max(1.0, want)
            assert abs(got - minkowski1(dft_rows(h))) <= 1e-10 * max(1.0, want)

    @pytest.mark.parametrize("T", LENGTHS)
    def test_subgradient_matches_definitional_and_full_spectrum(self, T):
        rng = np.random.default_rng(600 + T)
        plain = np.vstack([rng.standard_normal((3, T)), np.abs(rng.standard_normal((2, T))),
                           np.zeros((1, T)), _kink_rows(T)[:2]])
        h = np.vstack([plain, _kink_rows(T)[2:]])
        g = minkowski_subgradient(h)
        assert g.shape == h.shape
        assert np.allclose(g, _full_fft_subgradient(h), rtol=0.0, atol=1e-10)
        # the definitional product leaves rounding residues where the
        # alternating row's spectrum is zero, so that row is left out of it
        assert np.allclose(g[: len(plain)], _definitional_subgradient(plain),
                           rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("T", LENGTHS)
    def test_kinks_take_sign_zero(self, T):
        # closed forms from the exact spectra, with sign(0) = 0: an impulse
        # c e_0 has the all-real spectrum c/T, so g = sign(c) e_0; the
        # alternating row has only its Nyquist bin, so g = (-1)^t / T
        h = _kink_rows(T)
        g = minkowski_subgradient(h)
        assert np.allclose(g[0], np.eye(1, T, 0).ravel(), rtol=0.0, atol=1e-15)
        assert np.allclose(g[1], -np.eye(1, T, 0).ravel(), rtol=0.0, atol=1e-15)
        if T % 2 == 0:
            assert np.allclose(g[2], (-1.0) ** np.arange(T) / T, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("T", LENGTHS)
    def test_constant_rows(self, T):
        h = np.vstack([np.full((1, T), 2.5), np.full((1, T), -1.0)])
        spec = np.fft.rfft(h, axis=1)
        g = minkowski_subgradient(h)
        if np.all(spec[:, 1:] == 0.0):
            # DC only: g = sign(c) / T, as the full-spectrum formula gives
            assert np.allclose(g, np.sign(h) / T, rtol=0.0, atol=1e-15)
            assert np.allclose(g, _full_fft_subgradient(h), rtol=0.0, atol=1e-10)
        else:
            # at T = 17 the FFT leaves residues of about 1e-16 in the
            # bins that are zero; each takes its residue's sign, which is
            # another element of the subdifferential (checked below)
            assert T == 17
        rng = np.random.default_rng(700 + T)
        for _ in range(20):
            d = rng.standard_normal(h.shape)
            lhs = minkowski_definitional(dft_definitional(h + d))
            rhs = minkowski_definitional(dft_definitional(h)) + np.vdot(d, g)
            assert lhs >= rhs - 1e-9

    @pytest.mark.parametrize("T", LENGTHS)
    def test_subgradient_inequality_on_random_directions(self, T):
        rng = np.random.default_rng(800 + T)
        h = self.rows(T)
        g = minkowski_subgradient(h)
        base = [minkowski_definitional(dft_definitional(row[None, :])) for row in h]
        for scale in (1e-3, 0.5, 10.0):
            for _ in range(10):
                d = scale * rng.standard_normal(h.shape)
                for s, row in enumerate(h):
                    lhs = minkowski_definitional(dft_definitional((row + d[s])[None, :]))
                    assert lhs >= base[s] + np.dot(d[s], g[s]) - 1e-9 * max(1.0, lhs)


class TestMinkowskiProx:
    """minkowski_prox(V, t) minimizes 1/2 ||P - V||^2 + t minkowski1(dft_rows(P))."""

    @staticmethod
    def prox_objective(p, v, t):
        return 0.5 * float(np.sum((p - v) ** 2)) + t * minkowski1(dft_rows(p))

    @pytest.mark.parametrize("T", [1, 2, 16, 17, 64])
    def test_no_perturbation_does_better(self, T):
        rng = np.random.default_rng(900 + T)
        v = 3.0 * rng.standard_normal((3, T))
        t = float(np.exp(rng.uniform(np.log(1e-2), np.log(5.0))))
        p = minkowski_prox(v, t)
        base = self.prox_objective(p, v, t)
        worst = np.inf
        for _ in range(1000):
            eps = 10.0 ** rng.uniform(-6.0, 0.0)
            moved = self.prox_objective(p + eps * rng.standard_normal(v.shape), v, t)
            worst = min(worst, moved - base)
        assert worst >= -1e-12 * max(1.0, base)

    @pytest.mark.parametrize("T", [1, 2, 16, 17, 64])
    def test_zero_threshold_is_identity(self, T):
        v = np.random.default_rng(950 + T).standard_normal((4, T))
        assert np.allclose(minkowski_prox(v, 0.0), v, rtol=0.0, atol=1e-12)

    def test_large_threshold_gives_zero(self):
        v = np.random.default_rng(960).standard_normal((2, 16))
        assert np.array_equal(minkowski_prox(v, 1e3), np.zeros_like(v))

    def test_block_thresholds_equal_separate_calls(self):
        rng = np.random.default_rng(970)
        v = rng.standard_normal((3, 2, 17))
        t = np.array([0.1, 0.5, 2.0])
        got = minkowski_prox(v, t[:, None, None])
        for b in range(3):
            assert np.array_equal(got[b], minkowski_prox(v[b], t[b]))


def _full_keep(kept, T):
    """The full-spectrum boolean array of the index tuples ``kept``."""
    out = np.zeros((len(kept), T), dtype=bool)
    for s, row in enumerate(kept):
        out[s, list(row)] = True
    return out


def _mask_then_invert(h, full):
    """Definitional projection: zero the spectrum outside ``full``, invert."""
    spec = dft_definitional(h)
    spec[~full] = 0.0
    return idft_definitional(spec).real


class TestFrequencyMask:
    @pytest.mark.parametrize("T", [0, -3])
    def test_length_must_be_positive(self, T):
        with pytest.raises(ValueError, match=r"^T must be positive$"):
            FrequencyMask(T, ((0,),))

    def test_requires_conjugate_closure(self):
        with pytest.raises(ValueError):
            FrequencyMask(6, ((1,),))
        FrequencyMask(6, ((1, 5),))  # closed pair is fine

    def test_same_adds_mirrors(self):
        m = FrequencyMask.same(2, 8, [0, 3])
        assert m.kept == ((0, 3, 5), (0, 3, 5))

    def test_full_mask_projection_is_identity(self):
        rng = np.random.default_rng(13)
        h = rng.standard_normal((2, 9))
        m = FrequencyMask.full(2, 9)
        assert np.allclose(project_frequency_mask(h, m), h, atol=1e-12)

    def test_dc_only_projection_gives_row_means(self):
        rng = np.random.default_rng(14)
        h = rng.standard_normal((3, 8))
        m = FrequencyMask(8, ((0,),) * 3)
        p = project_frequency_mask(h, m)
        assert np.allclose(p, np.repeat(h.mean(axis=1, keepdims=True), 8, axis=1), atol=1e-12)

    def test_projection_matches_mask_then_invert_oracle(self):
        rng = np.random.default_rng(15)
        h = rng.standard_normal((2, 10))
        m = FrequencyMask.same(2, 10, [1, 4])
        oracle = _mask_then_invert(h, _full_keep(m.kept, 10))
        assert np.allclose(project_frequency_mask(h, m), oracle, atol=1e-10)

    def test_projection_is_orthogonal(self):
        rng = np.random.default_rng(16)
        h = rng.standard_normal((2, 12))
        m = FrequencyMask.same(2, 12, [0, 2, 5])
        p = project_frequency_mask(h, m)
        assert np.allclose(project_frequency_mask(p, m), p, atol=1e-10)
        assert abs(np.vdot(h - p, p)) <= 1e-8

    def test_projection_zeroes_offmask_spectrum(self):
        rng = np.random.default_rng(25)
        mask = FrequencyMask.same(2, 10, [0, 3])
        spec = np.abs(dft_rows(project_frequency_mask(rng.standard_normal((2, 10)), mask)))
        assert np.all(spec[~_full_keep(mask.kept, 10)] <= 1e-8 * np.linalg.norm(spec))

    def test_projection_is_nonexpansive(self):
        rng = np.random.default_rng(26)
        mask = FrequencyMask.same(2, 8, [0, 1])
        for _ in range(25):
            u = rng.standard_normal((2, 8))
            v = rng.standard_normal((2, 8))
            moved = project_frequency_mask(u, mask) - project_frequency_mask(v, mask)
            assert np.linalg.norm(moved) <= np.linalg.norm(u - v) + 1e-12

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project_frequency_mask(np.zeros((1, 5)), FrequencyMask.full(1, 4))
        with pytest.raises(ValueError):
            project_frequency_mask(np.zeros((2, 4)), FrequencyMask.full(1, 4))

    def test_keep_is_derived_and_read_only(self):
        m = FrequencyMask.same(2, 8, [1])
        with pytest.raises(TypeError):
            FrequencyMask(8, m.kept, keep=m.keep)
        with pytest.raises(ValueError):
            m.keep[0, 0] = True
        # the mask compares and hashes by T and kept alone
        assert m == FrequencyMask(8, ((7, 1, 1), (1, 7)))
        assert hash(m) == hash(FrequencyMask(8, ((1, 7), (1, 7))))
        assert "keep" not in repr(m)

    def test_errors_name_the_index_and_its_mirror(self):
        with pytest.raises(ValueError, match=r"^mask not conjugate-closed: 2 kept but 6 dropped$"):
            FrequencyMask(8, ((0, 1, 7), (0, 2)))
        with pytest.raises(ValueError, match=r"^frequency index 8 outside \[0, 8\)$"):
            FrequencyMask(8, ((0,), (0, 8)))
        with pytest.raises(ValueError, match=r"^frequency index -1 outside \[0, 8\)$"):
            FrequencyMask(8, ((-1, 0, 9),))


class TestMaskShapeChecks:
    """Projection and off-mask ratio reject an H the mask does not fit."""

    H = np.vstack([np.cos(2 * np.pi * np.arange(8) / 8), np.cos(6 * np.pi * np.arange(8) / 8)])

    @pytest.mark.parametrize("func", [project_frequency_mask, offmask_ratio])
    def test_one_row_mask_does_not_broadcast(self, func):
        with pytest.raises(ValueError, match=r"^mask has 1 rows, H has 2$"):
            func(self.H, FrequencyMask.same(1, 8, [1]))

    @pytest.mark.parametrize("func", [project_frequency_mask, offmask_ratio])
    def test_wrong_length_names_both(self, func):
        with pytest.raises(ValueError, match=r"^mask is for T=16, H has 8 columns$"):
            func(self.H, FrequencyMask.same(2, 16, [1]))

    @pytest.mark.parametrize("func", [project_frequency_mask, offmask_ratio])
    def test_stack_names_its_shape(self, func):
        with pytest.raises(ValueError, match=r"^a mask applies to a \(rows, T\) matrix, "
                                             r"H has shape \(1, 2, 8\)$"):
            func(self.H[None], FrequencyMask.same(2, 8, [1]))

    def test_hard_penalty_value_checks_the_fixed_mask(self):
        with pytest.raises(ValueError, match=r"^mask has 1 rows, H has 2$"):
            penalty_value(self.H, Penalty.hard_freq(mask=FrequencyMask.same(1, 8, [1])))
        band = Penalty.hard_freq(mask=FrequencyMask.same(2, 8, [1, 3]))
        assert penalty_value(self.H, band) == 0.0


class TestTopR:
    @staticmethod
    def kept_bins(row, R):
        return np.flatnonzero(top_r_keep(row, R)[1][0]).tolist()

    def test_single_tone(self):
        T = 16
        row = np.cos(2 * np.pi * 3 * np.arange(T) / T)
        assert self.kept_bins(row, 1) == [3]

    def test_constant_row_keeps_dc(self):
        assert self.kept_bins(np.ones(8), 1) == [0]

    def test_matches_brute_force_psd_sort(self):
        rng = np.random.default_rng(17)
        T = 24
        t = np.arange(T)
        row = 2 * np.cos(2 * np.pi * 3 * t / T) + np.cos(2 * np.pi * 7 * t / T)
        row = row + 0.1 * rng.standard_normal(T)
        for R in (1, 2, 4):
            amps = np.abs(dft_definitional(row)[0, : T // 2 + 1])
            want = sorted(np.argsort(-amps, kind="stable")[:R])
            assert self.kept_bins(row, R) == [int(w) for w in want]

    def test_r_range_validated(self):
        with pytest.raises(ValueError):
            top_r_keep(np.ones(8), 0)
        with pytest.raises(ValueError):
            top_r_keep(np.ones(8), 6)


def _tie_cases(T):
    """Rows whose top amplitudes tie: constant rows and equal-amplitude tone
    pairs (one with a dominant DC, one across the Nyquist bin for even T)."""
    t = np.arange(T)
    rows = [
        np.full(T, 2.5),
        np.zeros(T),
        np.cos(2 * np.pi * 3 * t / T) + np.cos(2 * np.pi * 5 * t / T),
        1.0 + np.cos(2 * np.pi * 2 * t / T) + np.cos(2 * np.pi * 7 * t / T),
        np.sin(2 * np.pi * t / T) + np.cos(2 * np.pi * 4 * t / T),
    ]
    if T % 2 == 0:
        rows.append(0.5 * np.cos(np.pi * t) + np.cos(2 * np.pi * 3 * t / T))
    return np.vstack(rows)


def _oracle_top_r_order(row):
    """Definitional amplitudes of bins 0..T//2, rounded to multiples of
    2**-30 times the row's largest and ranked by a stable argsort."""
    T = row.shape[0]
    amps = np.abs(dft_definitional(row)[0, : T // 2 + 1])
    peak = amps.max()
    ranks = np.rint(amps / (peak * 2.0**-30)) if peak > 0 else np.zeros_like(amps)
    return np.argsort(-ranks, kind="stable")


class TestTopRProperties:
    @pytest.mark.parametrize("T", [16, 17, 256])
    def test_selector_matches_definitional_stable_argsort(self, T):
        rng = np.random.default_rng(T)
        h = np.vstack([rng.standard_normal((3, T)), np.abs(rng.standard_normal((2, T))),
                       _tie_cases(T)])
        orders = [_oracle_top_r_order(row) for row in h]
        for R in range(1, T // 2 + 2):
            _, keep = top_r_keep(h, R)
            assert keep.shape == (h.shape[0], T // 2 + 1)
            for s in range(h.shape[0]):
                want = sorted(int(k) for k in orders[s][:R])
                assert np.flatnonzero(keep[s]).tolist() == want, (T, R, s)

    @pytest.mark.parametrize("T", [16, 17, 256])
    def test_ties_break_toward_lower_index(self, T):
        _, keep = top_r_keep(_tie_cases(T), 1)
        assert np.flatnonzero(keep[0]).tolist() == [0]   # constant row: DC
        assert np.flatnonzero(keep[1]).tolist() == [0]   # zero row: all tie
        assert np.flatnonzero(keep[2]).tolist() == [3]   # 3 and 5 tie
        assert np.flatnonzero(keep[4]).tolist() == [1]   # 1 and 4 tie
        _, keep = top_r_keep(_tie_cases(T), 2)
        assert np.flatnonzero(keep[3]).tolist() == [0, 2]  # DC, then 2 over 7
        if T % 2 == 0:
            assert np.flatnonzero(keep[5]).tolist() == [3, T // 2]
            _, keep = top_r_keep(_tie_cases(T), 1)
            assert np.flatnonzero(keep[5]).tolist() == [3]  # 3 ties Nyquist


def _argsort_keep(h, R):
    """The top-R rule by a stable descending argsort of the rounded ranks,
    the reference the argmax rounds must reproduce."""
    h = np.atleast_2d(h)
    spec = np.fft.rfft(h, axis=1)
    amps = np.abs(spec)
    ranks = np.rint(amps / np.maximum(amps.max(axis=1, keepdims=True) * 2.0**-30, 1e-300))
    order = np.argsort(-ranks, axis=1, kind="stable")[:, :R]
    keep = np.zeros(spec.shape, dtype=bool)
    keep[np.arange(h.shape[0])[:, None], order] = True
    return spec, keep


@st.composite
def top_r_stacks(draw):
    """A stack of 1..6 rows of one length T in 2..48, odd or even: random,
    nonnegative, all-zero, constant, tied (equal-amplitude tones at drawn
    bins, equal up to FFT rounding) and far-scaled rows."""
    T = draw(st.integers(2, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(T)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["normal", "abs", "zero", "constant", "tones",
                                               "scaled"]), min_size=1, max_size=6)):
        if kind == "normal":
            rows.append(rng.standard_normal(T))
        elif kind == "abs":
            rows.append(np.abs(rng.standard_normal(T)))
        elif kind == "zero":
            rows.append(np.zeros(T))
        elif kind == "constant":
            rows.append(np.full(T, draw(st.sampled_from([-3.0, 0.5, 1e-300, 7e200]))))
        elif kind == "tones":
            bins = draw(st.lists(st.integers(0, T // 2), min_size=1, max_size=4, unique=True))
            phase = draw(st.sampled_from([0.0, np.pi / 3]))
            rows.append(draw(st.sampled_from([0.1, 1.0, 3.0]))
                        * sum(np.cos(2 * np.pi * k * t / T + phase) for k in bins))
        else:
            rows.append(rng.standard_normal(T) * 10.0 ** draw(st.integers(-250, 250)))
    return np.vstack(rows)


class TestTopRSelection:
    """The argmax rounds pick exactly the bins of a stable argsort."""

    @settings(max_examples=120, deadline=None)
    @given(h=top_r_stacks())
    def test_keep_equals_stable_argsort_for_every_R(self, h):
        T = h.shape[1]
        for R in range(1, T // 2 + 2):
            ref_spec, ref_keep = _argsort_keep(h, R)
            spec, keep = top_r_keep(h, R)
            assert np.array_equal(spec, ref_spec)
            assert np.array_equal(keep, ref_keep), (T, R)
            # a stacked call keeps each row's own bins
            for s, row in enumerate(h):
                assert np.array_equal(top_r_keep(row, R)[1][0], keep[s])

    def test_nonfinite_rows_end_the_run_with_the_same_error(self):
        # a row with a non-finite amplitude ranks NaN everywhere: the rounds
        # pick its first bins, the sort may pick others, and its code is
        # non-finite either way
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 16))
        h[1, 3], h[2, 5] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            spec, keep = top_r_keep(h, 3)
            ref_spec, ref_keep = _argsort_keep(h, 3)
        finite = [0, 3]
        assert np.array_equal(keep[finite], ref_keep[finite])
        assert np.array_equal(spec, ref_spec, equal_nan=True)
        assert (keep.sum(axis=1) == 3).all()
        # an encode whose gradient step overflows (a finite G = Wp^T Wp near 0
        # and a finite C = Wp^T Y near the top of the range) feeds non-finite
        # rows to the selection; either rule ends it with the same error
        wp = rng.standard_normal((6, 3)) * 1e-3
        y = np.abs(rng.standard_normal((6, 16))) * 1e307
        messages = []
        for rule in (top_r_keep, _argsort_keep):
            fed = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(band, "top_r_keep",
                           lambda m, R, rule=rule: fed.append(np.isfinite(m).all()) or rule(m, R))
                with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc:
                    encode_new(y, wp, Penalty.hard_freq(R=2), 0.0,
                               EncodeConfig(sweeps=2, sub_iters=4))
            assert not all(fed)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == (
            "encode_new: non-finite H at outer iteration 1")


class TestHalfOffmaskRatio:
    @pytest.mark.parametrize("T", [1, 2, 3, 16, 17, 256])
    def test_equals_full_spectrum_ratio(self, T):
        rng = np.random.default_rng(100 + T)
        h = np.vstack([rng.standard_normal((4, T)), np.zeros((1, T)), np.ones((1, T))])
        half = T // 2 + 1
        keeps = [rng.random((h.shape[0], half)) < p for p in (0.0, 0.2, 0.5, 0.9, 1.0)]
        keeps += [top_r_keep(h, R)[1] for R in range(1, half + 1, max(1, half // 5))]
        spec = np.fft.rfft(h, axis=1)
        full_spec = np.abs(dft_definitional(h))
        total = np.linalg.norm(full_spec, axis=1)
        for keep in keeps:
            kept = tuple(
                tuple(sorted({int(k) for k in row} | {(T - int(k)) % T for k in row}))
                for row in (np.flatnonzero(r) for r in keep)
            )
            off = np.linalg.norm(np.where(_full_keep(kept, T), 0.0, full_spec), axis=1)
            want = np.divide(off, total, out=np.zeros_like(off), where=total > 0.0)
            got = half_offmask_ratio(spec, keep, T)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


class TestInverseUsageRatio:
    def test_one_hot_row(self):
        T = 8
        # band-limited to DC: spectrum is one-hot there
        mu = inverse_usage_ratio(np.ones((1, T)))
        assert mu[0, 0] == 1.0
        assert np.all(np.isinf(mu[0, 1:]))

    def test_uniform_amplitude_row(self):
        T = 6
        row = np.zeros((1, T))
        row[0, 0] = 1.0  # impulse: flat spectrum
        mu = inverse_usage_ratio(row)
        assert np.allclose(mu, T)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(18)
        h = rng.standard_normal((3, 10))
        amps = np.abs(dft_definitional(h))
        want = amps.sum(axis=1, keepdims=True) / amps
        assert np.allclose(inverse_usage_ratio(h), want, rtol=1e-10)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            inverse_usage_ratio(np.zeros((1, 4)))


def test_mask_distance_and_offmask_ratio():
    rng = np.random.default_rng(19)
    h = rng.standard_normal((2, 8))
    m = FrequencyMask.same(2, 8, [0, 1])
    p = project_frequency_mask(h, m)
    assert mask_distance(p, m) <= 1e-12
    assert np.all(offmask_ratio(p, m) <= 1e-12)
    assert mask_distance(h, m) > 0
    assert np.array_equal(offmask_ratio(np.zeros((2, 8)), m), np.zeros(2))


@st.composite
def masked_codes(draw):
    """A conjugate-closed mask over T in 1..64 columns and 1..4 rows, its
    kept bins drawn per row, and a random H of its shape."""
    T = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 64)))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    kept = []
    for _ in range(rows):
        base = np.flatnonzero(rng.random(T // 2 + 1) < density)
        row = list(base) + [(T - k) % T for k in base]
        kept.append(tuple(int(k) for k in rng.permutation(row + row[: len(row) // 2])))
    return FrequencyMask(T, tuple(kept)), rng.standard_normal((rows, T))


class TestMaskProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=masked_codes())
    def test_keep_is_kept_restricted_to_the_half_spectrum(self, case):
        mask, _ = case
        T = mask.T
        assert mask.keep.shape == (mask.rows, T // 2 + 1)
        for row, keep in zip(mask.kept, mask.keep):
            assert list(row) == sorted(set(row))
            assert np.flatnonzero(keep).tolist() == [k for k in row if k <= T // 2]

    @settings(max_examples=60, deadline=None)
    @given(case=masked_codes())
    def test_projection_is_the_orthogonal_mask_then_invert(self, case):
        mask, h = case
        p = project_frequency_mask(h, mask)
        oracle = _mask_then_invert(h, _full_keep(mask.kept, mask.T))
        assert np.allclose(p, oracle, rtol=0.0, atol=1e-10)
        assert np.allclose(project_frequency_mask(p, mask), p, rtol=0.0, atol=1e-10)
        other = project_frequency_mask(np.random.default_rng(mask.T).standard_normal(h.shape), mask)
        scale = np.linalg.norm(h) * max(np.linalg.norm(other), 1.0)
        assert abs(np.vdot(h - p, other)) <= 1e-10 * scale
        assert abs(np.vdot(h - p, p)) <= 1e-10 * np.linalg.norm(h) ** 2
        assert np.all(offmask_ratio(p, mask) <= 1e-8)

    @settings(max_examples=60, deadline=None)
    @given(case=masked_codes(), data=st.data())
    def test_errors_name_the_offending_index_and_its_mirror(self, case, data):
        mask, _ = case
        T = mask.T
        s = data.draw(st.integers(0, mask.rows - 1))
        rows = list(mask.kept)
        bad = data.draw(st.one_of(st.integers(T, 3 * T), st.integers(-3 * T, -1)))
        rows[s] = rows[s] + (bad,)
        with pytest.raises(ValueError, match=rf"^frequency index {bad} outside \[0, {T}\)$"):
            FrequencyMask(T, tuple(rows))
        unpaired = [k for k in range(T) if (T - k) % T != k]
        if unpaired:
            k = data.draw(st.sampled_from(unpaired))
            rows = list(mask.kept)
            rows[s] = tuple(sorted(({k} | set(rows[s])) - {(T - k) % T}))
            with pytest.raises(ValueError, match=rf"^mask not conjugate-closed: {k} kept but "
                                                 rf"{(T - k) % T} dropped$"):
                FrequencyMask(T, tuple(rows))

    @settings(max_examples=60, deadline=None)
    @given(case=masked_codes())
    def test_scaled_parseval(self, case):
        _, h = case
        assert np.isclose(np.linalg.norm(dft_rows(h)) ** 2, np.linalg.norm(h) ** 2 / h.shape[1],
                          rtol=1e-10, atol=0.0)
