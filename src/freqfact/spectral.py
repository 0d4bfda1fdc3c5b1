"""Row-wise DFT with 1/T forward scaling, the Minkowski 1-norm, and
frequency masks.

Conventions, fixed across the package:

* forward transform  ``S[s, k] = (1/T) * sum_f A[s, f] exp(-2i pi f k / T)``
* inverse transform  ``A[s, t] = sum_k S[s, k] exp(+2i pi k t / T)``

so the inverse carries no 1/T factor and ``||dft(A)||_F^2 == ||A||_F^2 / T``
(scaled Parseval).  Internally ``numpy.fft`` does the work, but every result
is contractually equal to the definitional matrix product within 1e-10.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import SpectrumSymmetryError

__all__ = [
    "dft_rows",
    "idft_rows",
    "minkowski1",
    "minkowski_subgradient",
    "half_minkowski1",
    "half_minkowski_subgradient",
    "FrequencyMask",
    "project_frequency_mask",
    "top_r_indices",
    "top_r_keep",
    "half_offmask_ratio",
    "inverse_usage_ratio",
    "mask_distance",
    "offmask_ratio",
]

# Imaginary residue below this (relative) is truncated by idft_rows; above it
# the spectrum is treated as non-symmetric and rejected.
_IMAG_REL_TOL = 1e-8

# Top-R selection rounds amplitudes to this fraction of the row's largest, so
# bins that are equal up to FFT rounding tie and the lower index wins.  A
# power of two keeps simple amplitude ratios away from rounding boundaries.
_TIE_RTOL = 2.0**-30


def dft_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise forward transform with 1/T scaling."""
    a = np.atleast_2d(np.asarray(a))
    return np.fft.fft(a, axis=1) / a.shape[1]


def idft_rows(s: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft_rows`; requires a conjugate-symmetric spectrum.

    Small imaginary residue (<= 1e-8 relative) is truncated; anything larger
    raises :class:`SpectrumSymmetryError`, which catches non-symmetric masks
    early.
    """
    s = np.atleast_2d(np.asarray(s, dtype=complex))
    T = s.shape[1]
    out = np.fft.ifft(s, axis=1) * T
    imag = np.linalg.norm(out.imag)
    if imag > _IMAG_REL_TOL * max(np.linalg.norm(out.real), 1e-300):
        raise SpectrumSymmetryError(
            f"inverse transform has relative imaginary residue "
            f"{imag / max(np.linalg.norm(out.real), 1e-300):.3e}; "
            "spectrum is not conjugate-symmetric"
        )
    return out.real.copy()


def minkowski1(s: np.ndarray) -> float:
    """Entrywise |real| + |imag|, summed."""
    s = np.asarray(s)
    return float(np.sum(np.abs(s.real)) + np.sum(np.abs(s.imag)))


def minkowski_subgradient(h: np.ndarray) -> np.ndarray:
    """Subgradient of H -> minkowski1(dft_rows(H)) on real matrices.

    Chain rule through the linear transform gives

        g = (1/T) * Re( (sign(Re S) + i sign(Im S)) @ Finv ),   S = dft_rows(H)

    with sign(0) := 0, which places the zero element of the subdifferential
    at every kink.  Note the imaginary-sign term: dropping it (and doubling
    the real term) fails the subgradient inequality whenever Im S != 0, so
    both terms are kept.  Computed by :func:`half_minkowski_subgradient`.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    return half_minkowski_subgradient(np.fft.rfft(h, axis=1), h.shape[1])


def half_minkowski1(spec: np.ndarray, T: int) -> float:
    """:func:`minkowski1` of ``dft_rows(H)`` from ``S = np.fft.rfft(H, axis=1)``.

    The one soft-spectral rule, with :func:`half_minkowski_subgradient`.
    Interior bins stand for themselves and their conjugate mirrors, so their
    |Re| + |Im| counts twice; DC and (for even T) Nyquist count once.  The
    sum is scaled by 1/T, the forward transform's factor.
    """
    a = np.abs(spec.real) + np.abs(spec.imag)
    a[:, 1 : (T + 1) // 2] *= 2.0
    return float(a.sum() / T)


def half_minkowski_subgradient(spec: np.ndarray, T: int) -> np.ndarray:
    """:func:`minkowski_subgradient` from ``S = np.fft.rfft(H, axis=1)``.

    ``irfft(sign(Re S) + i sign(Im S), n=T)``: the inverse of the
    conjugate-symmetric sign spectrum, whose 1/T cancels the chain rule's
    T.  The signs are those of the computed S, so a bin that is zero only up
    to FFT rounding (a constant row at T = 17, say) takes the sign of its
    residue, another element of the subdifferential.
    """
    return np.fft.irfft(np.sign(spec.real) + 1j * np.sign(spec.imag), n=T, axis=1)


@dataclass(frozen=True)
class FrequencyMask:
    """Per-row set of retained frequency indices, closed under k -> (T-k) % T.

    Conjugate closure keeps the masked signal real.  ``kept`` holds one
    sorted tuple of indices per row.
    """

    T: int
    kept: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be positive")
        norm_rows = []
        for row in self.kept:
            idx = tuple(sorted(set(int(k) for k in row)))
            for k in idx:
                if not 0 <= k < self.T:
                    raise ValueError(f"frequency index {k} outside [0, {self.T})")
                if (self.T - k) % self.T not in idx:
                    raise ValueError(
                        f"mask not conjugate-closed: {k} kept but {(self.T - k) % self.T} dropped"
                    )
            norm_rows.append(idx)
        object.__setattr__(self, "kept", tuple(norm_rows))

    @property
    def rows(self) -> int:
        return len(self.kept)

    @classmethod
    def full(cls, rows: int, T: int) -> "FrequencyMask":
        all_k = tuple(range(T))
        return cls(T, tuple(all_k for _ in range(rows)))

    @classmethod
    def same(cls, rows: int, T: int, indices) -> "FrequencyMask":
        """One index set applied to every row (mirrors added automatically)."""
        closed = set()
        for k in indices:
            closed.add(int(k) % T)
            closed.add((T - int(k)) % T)
        row = tuple(sorted(closed))
        return cls(T, tuple(row for _ in range(rows)))

    @classmethod
    def from_top_r(cls, h: np.ndarray, R: int) -> "FrequencyMask":
        h = np.atleast_2d(np.asarray(h, dtype=float))
        return cls(h.shape[1], _kept_from_half(top_r_keep(h, R)[1], h.shape[1]))

    def without_row(self, s: int) -> "FrequencyMask":
        """The mask with row ``s`` dropped, for a code that lost atom ``s``."""
        return FrequencyMask(self.T, self.kept[:s] + self.kept[s + 1 :])

    def to_bool(self) -> np.ndarray:
        out = np.zeros((self.rows, self.T), dtype=bool)
        for s, row in enumerate(self.kept):
            out[s, list(row)] = True
        return out


def project_frequency_mask(h: np.ndarray, mask: FrequencyMask) -> np.ndarray:
    """Orthogonal projection onto {H : dft_rows(H) vanishes outside mask}.

    Per row: zero the disallowed coefficients, invert.  Idempotent, and real
    because the mask is conjugate-closed.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.shape[1] != mask.T:
        raise ValueError(f"mask is for T={mask.T}, H has {h.shape[1]} columns")
    if h.shape[0] != mask.rows:
        raise ValueError(f"mask has {mask.rows} rows, H has {h.shape[0]}")
    spec = np.fft.fft(h, axis=1)
    spec[~mask.to_bool()] = 0.0
    return np.fft.ifft(spec, axis=1).real.copy()


def top_r_keep(h: np.ndarray, R: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum of each row and its top-R keep-array, all rows at once.

    Returns ``(S, keep)``: ``S = np.fft.rfft(h, axis=1)`` (unscaled, bins
    k = 0..floor(T/2)) and a boolean array of the same shape marking each
    row's R largest-amplitude bins.  Ties break toward the lower index.
    Amplitudes are compared after rounding to multiples of 2**-30 times the
    row's largest, so bins that are equal up to FFT rounding tie.  Keeping
    bin k of the half-spectrum keeps its mirror (T - k) % T of the full one.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    T = h.shape[1]
    half = T // 2
    if not 1 <= R <= half + 1:
        raise ValueError(f"R must be in [1, {half + 1}] for T={T}, got {R}")
    spec = np.fft.rfft(h, axis=1)
    amps = np.abs(spec)
    # an all-zero row divides by the floor and ties everywhere
    ranks = np.rint(amps / np.maximum(amps.max(axis=1, keepdims=True) * _TIE_RTOL, 1e-300))
    order = np.argsort(-ranks, axis=1, kind="stable")[:, :R]
    keep = np.zeros(spec.shape, dtype=bool)
    keep[np.arange(h.shape[0])[:, None], order] = True
    return spec, keep


def half_offmask_ratio(spec: np.ndarray, keep: np.ndarray, T: int) -> np.ndarray:
    """:func:`offmask_ratio` from an ``rfft`` half-spectrum and keep-array.

    Interior bins stand for themselves and their mirrors, so their power
    counts twice; DC and (for even T) Nyquist count once.  The result equals
    the full-spectrum ratio of the conjugate-closed mask ``keep`` describes.
    """
    power = np.abs(spec) ** 2
    power[:, 1 : (T + 1) // 2] *= 2.0
    total = power.sum(axis=1)
    off = np.where(keep, 0.0, power).sum(axis=1)
    return np.sqrt(np.divide(off, total, out=np.zeros_like(off), where=total > 0.0))


def _kept_from_half(keep: np.ndarray, T: int) -> tuple[tuple[int, ...], ...]:
    """Full-spectrum index tuples (mirrors added) from a half keep-array."""
    return tuple(
        tuple(sorted({int(k) for k in row} | {(T - int(k)) % T for k in row}))
        for row in (np.flatnonzero(r) for r in keep)
    )


def top_r_indices(h_row: np.ndarray, R: int) -> tuple[int, ...]:
    """Conjugate-closed index set of the R largest-amplitude frequencies.

    The selection rule is :func:`top_r_keep` on the single row: candidates
    are k in {0, ..., floor(T/2)}, ties break toward the lower index, and
    mirrors (T - k) % T are added (k = 0 and k = T/2 are their own mirrors).
    """
    h_row = np.asarray(h_row, dtype=float).ravel()
    return _kept_from_half(top_r_keep(h_row, R)[1], h_row.shape[0])[0]


def inverse_usage_ratio(h: np.ndarray) -> np.ndarray:
    """Per-coefficient ratio (sum_l |S[s, l]|) / |S[s, k]|, +inf where unused.

    Large entries flag frequencies a row barely uses.  A row with an
    identically zero spectrum has no usage to normalize by and is rejected.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    amps = np.abs(dft_rows(h))
    totals = amps.sum(axis=1, keepdims=True)
    if np.any(totals == 0.0):
        bad = int(np.flatnonzero(totals.ravel() == 0.0)[0])
        raise ValueError(f"row {bad} has an identically zero spectrum")
    with np.errstate(divide="ignore"):
        return np.where(amps > 0.0, totals / amps, np.inf)


def mask_distance(h: np.ndarray, mask: FrequencyMask) -> float:
    """Frobenius distance from H to the mask's band-limited subspace."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    return float(np.linalg.norm(h - project_frequency_mask(h, mask)))


def offmask_ratio(h: np.ndarray, mask: FrequencyMask) -> np.ndarray:
    """Per-row relative spectral mass outside the mask (0 for zero rows)."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    spec = np.abs(dft_rows(h))
    total = np.linalg.norm(spec, axis=1)
    off = np.linalg.norm(np.where(mask.to_bool(), 0.0, spec), axis=1)
    return np.divide(off, total, out=np.zeros_like(off), where=total > 0.0)
