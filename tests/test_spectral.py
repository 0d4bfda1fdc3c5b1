import numpy as np
import pytest

from freqfact.spectral import (
    half_minkowski1,
    half_minkowski_subgradient,
    half_offmask_ratio,
    top_r_keep,
)
from freqfact import (
    FrequencyMask,
    SpectrumSymmetryError,
    dft_rows,
    idft_rows,
    inverse_usage_ratio,
    mask_distance,
    minkowski1,
    minkowski_subgradient,
    offmask_ratio,
    project_frequency_mask,
    top_r_indices,
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
        g = half_minkowski_subgradient(np.fft.rfft(h, axis=1), T)
        assert g.shape == h.shape
        assert np.allclose(g, _full_fft_subgradient(h), rtol=0.0, atol=1e-10)
        # the definitional product leaves rounding residues where the
        # alternating row's spectrum is zero, so that row is left out of it
        assert np.allclose(g[: len(plain)], _definitional_subgradient(plain),
                           rtol=0.0, atol=1e-10)
        assert np.allclose(g, minkowski_subgradient(h), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("T", LENGTHS)
    def test_kinks_take_sign_zero(self, T):
        # closed forms from the exact spectra, with sign(0) = 0: an impulse
        # c e_0 has the all-real spectrum c/T, so g = sign(c) e_0; the
        # alternating row has only its Nyquist bin, so g = (-1)^t / T
        h = _kink_rows(T)
        g = half_minkowski_subgradient(np.fft.rfft(h, axis=1), T)
        assert np.allclose(g[0], np.eye(1, T, 0).ravel(), rtol=0.0, atol=1e-15)
        assert np.allclose(g[1], -np.eye(1, T, 0).ravel(), rtol=0.0, atol=1e-15)
        if T % 2 == 0:
            assert np.allclose(g[2], (-1.0) ** np.arange(T) / T, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("T", LENGTHS)
    def test_constant_rows(self, T):
        h = np.vstack([np.full((1, T), 2.5), np.full((1, T), -1.0)])
        spec = np.fft.rfft(h, axis=1)
        g = half_minkowski_subgradient(spec, T)
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
        g = half_minkowski_subgradient(np.fft.rfft(h, axis=1), T)
        base = [minkowski_definitional(dft_definitional(row[None, :])) for row in h]
        for scale in (1e-3, 0.5, 10.0):
            for _ in range(10):
                d = scale * rng.standard_normal(h.shape)
                for s, row in enumerate(h):
                    lhs = minkowski_definitional(dft_definitional((row + d[s])[None, :]))
                    assert lhs >= base[s] + np.dot(d[s], g[s]) - 1e-9 * max(1.0, lhs)


class TestFrequencyMask:
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
        spec = dft_definitional(h)
        spec[~m.to_bool()] = 0.0
        k = np.arange(10).reshape(-1, 1)
        t = np.arange(10).reshape(1, -1)
        oracle = (spec @ np.exp(2j * np.pi * k * t / 10)).real
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
        assert np.all(spec[~mask.to_bool()] <= 1e-8 * np.linalg.norm(spec))

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


class TestTopR:
    def test_single_tone(self):
        T = 16
        row = np.cos(2 * np.pi * 3 * np.arange(T) / T)
        assert top_r_indices(row, 1) == (3, 13)

    def test_constant_row_keeps_dc(self):
        assert top_r_indices(np.ones(8), 1) == (0,)

    def test_matches_brute_force_psd_sort(self):
        rng = np.random.default_rng(17)
        T = 24
        t = np.arange(T)
        row = 2 * np.cos(2 * np.pi * 3 * t / T) + np.cos(2 * np.pi * 7 * t / T)
        row = row + 0.1 * rng.standard_normal(T)
        for R in (1, 2, 4):
            amps = np.abs(dft_definitional(row)[0, : T // 2 + 1])
            want = sorted(np.argsort(-amps, kind="stable")[:R])
            got = top_r_indices(row, R)
            base = sorted(k for k in got if k <= T // 2)
            assert base == [int(w) for w in want]

    def test_r_range_validated(self):
        with pytest.raises(ValueError):
            top_r_indices(np.ones(8), 0)
        with pytest.raises(ValueError):
            top_r_indices(np.ones(8), 6)


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
            mask = FrequencyMask.from_top_r(h, R)
            for s, row in enumerate(h):
                want = sorted(int(k) for k in orders[s][:R])
                assert np.flatnonzero(keep[s]).tolist() == want, (T, R, s)
                full = sorted(set(want) | {(T - k) % T for k in want})
                assert list(top_r_indices(row, R)) == full
                assert list(mask.kept[s]) == full

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


class TestHalfOffmaskRatio:
    @pytest.mark.parametrize("T", [1, 2, 3, 16, 17, 256])
    def test_equals_full_spectrum_ratio(self, T):
        rng = np.random.default_rng(100 + T)
        h = np.vstack([rng.standard_normal((4, T)), np.zeros((1, T)), np.ones((1, T))])
        half = T // 2 + 1
        keeps = [rng.random((h.shape[0], half)) < p for p in (0.0, 0.2, 0.5, 0.9, 1.0)]
        keeps += [top_r_keep(h, R)[1] for R in range(1, half + 1, max(1, half // 5))]
        spec = np.fft.rfft(h, axis=1)
        for keep in keeps:
            kept = tuple(
                tuple(sorted({int(k) for k in row} | {(T - int(k)) % T for k in row}))
                for row in (np.flatnonzero(r) for r in keep)
            )
            want = offmask_ratio(h, FrequencyMask(T, kept))
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
