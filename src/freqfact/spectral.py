"""Row-wise DFT with 1/T forward scaling, the Minkowski 1-norm, and
frequency masks.

Conventions, fixed across the package:

* forward transform  ``S[s, k] = (1/T) * sum_f A[s, f] exp(-2i pi f k / T)``
* inverse transform  ``A[s, t] = sum_k S[s, k] exp(+2i pi k t / T)``

so the inverse carries no 1/T factor and ``||dft(A)||_F^2 == ||A||_F^2 / T``
(scaled Parseval).  Internally ``numpy.fft`` does the work, but every result
is contractually equal to the definitional matrix product within 1e-10.

Only the definitional :func:`dft_rows` / :func:`idft_rows` transform the full
spectrum; the rest works on the ``rfft`` half-spectrum (bins 0..T//2), which
a real row's conjugate symmetry determines.  A :class:`FrequencyMask` carries
its half-spectrum keep array, which projection and off-mask ratio read.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import SpectrumSymmetryError

__all__ = [
    "dft_rows",
    "idft_rows",
    "minkowski1",
    "minkowski_subgradient",
    "minkowski_prox",
    "half_minkowski1",
    "FrequencyMask",
    "project_frequency_mask",
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
    both terms are kept.

    Computed as ``irfft(sign(Re S) + i sign(Im S), n=T)`` of ``S = rfft(H)``,
    the conjugate-symmetric sign spectrum, whose 1/T cancels the chain
    rule's T.  The signs are those of the computed S: a bin that is zero only
    up to FFT rounding (a constant row at T = 17, say) takes its residue's
    sign, another element of the subdifferential.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    spec = np.fft.rfft(h, axis=1)
    return np.fft.irfft(np.sign(spec.real) + 1j * np.sign(spec.imag), n=h.shape[1], axis=1)


def half_minkowski1(spec: np.ndarray, T: int) -> float:
    """:func:`minkowski1` of ``dft_rows(H)`` from ``S = np.fft.rfft(H, axis=1)``.

    The one soft-spectral rule, with :func:`minkowski_subgradient` and
    :func:`minkowski_prox`.
    Interior bins stand for themselves and their conjugate mirrors, so their
    |Re| + |Im| counts twice; DC and (for even T) Nyquist count once.  The
    sum is scaled by 1/T, the forward transform's factor.
    """
    a = np.abs(spec.real) + np.abs(spec.imag)
    a[:, 1 : (T + 1) // 2] *= 2.0
    return float(a.sum() / T)


def minkowski_prox(v: np.ndarray, t) -> np.ndarray:
    """Proximal map of ``t * minkowski1(dft_rows(.))`` at real ``V``, row by
    row along the last axis:

        argmin_P  1/2 ||P - V||_F^2 + t * minkowski1(dft_rows(P)).

    For a real row the penalty is an l1 norm in the orthonormal cos/sin
    basis, weighted sqrt(2/T) on interior bins and 1/sqrt(T) on DC and
    Nyquist.  In ``rfft`` units the 1/T scale and the interior doubling
    cancel, so the prox soft-thresholds Re S and Im S of ``S = rfft(V)`` by
    ``t`` at every bin (in place, through S's float64 view) and inverts.
    ``t >= 0`` is a scalar or an array that broadcasts against V with a
    trailing axis of 1: one threshold per row, or per (k, T) matrix of a
    stack.
    """
    v = np.asarray(v, dtype=float)
    spec = np.fft.rfft(v, axis=-1)
    parts = spec.view(np.float64)
    mag = np.abs(parts)
    mag -= t
    np.maximum(mag, 0.0, out=mag)
    np.copysign(mag, parts, out=parts)
    return np.fft.irfft(spec, n=v.shape[-1], axis=-1)


@dataclass(frozen=True)
class FrequencyMask:
    """Per-row set of retained frequency indices, closed under k -> (T-k) % T.

    Conjugate closure keeps the masked signal real.  ``kept`` holds one
    sorted tuple of indices per row; it is the config and file form.
    ``keep`` is derived from it: the read-only ``(rows, T//2 + 1)`` boolean
    array of kept ``rfft`` bins, which the mask consumers read.
    """

    T: int
    kept: tuple[tuple[int, ...], ...]
    keep: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        T = self.T
        if T < 1:
            raise ValueError("T must be positive")
        kept = tuple(tuple(sorted({int(k) for k in row})) for row in self.kept)
        for row in kept:
            if row and (row[0] < 0 or row[-1] >= T):
                raise ValueError(f"frequency index {row[0] if row[0] < 0 else row[-1]} "
                                 f"outside [0, {T})")
        full = np.zeros((len(kept), T), dtype=bool)
        for s, row in enumerate(kept):
            full[s, list(row)] = True
        unpaired = np.argwhere(full & ~full[:, -np.arange(T) % T])
        if unpaired.size:
            k = int(unpaired[0, 1])
            raise ValueError(f"mask not conjugate-closed: {k} kept but {(T - k) % T} dropped")
        keep = full[:, : T // 2 + 1].copy()
        keep.flags.writeable = False
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "keep", keep)

    @property
    def rows(self) -> int:
        return len(self.kept)

    @classmethod
    def full(cls, rows: int, T: int) -> "FrequencyMask":
        return cls(T, (tuple(range(T)),) * rows)

    @classmethod
    def same(cls, rows: int, T: int, indices) -> "FrequencyMask":
        """One index set applied to every row (mirrors added automatically)."""
        return cls(T, (tuple({sign * int(k) % T for k in indices for sign in (1, -1)}),) * rows)

    def without_row(self, s: int) -> "FrequencyMask":
        """The mask with row ``s`` dropped, for a code that lost atom ``s``."""
        return FrequencyMask(self.T, self.kept[:s] + self.kept[s + 1 :])


def _masked_rows(h: np.ndarray, mask: FrequencyMask) -> np.ndarray:
    """H as a float matrix, after checking it has the mask's shape."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.ndim != 2:
        raise ValueError(f"a mask applies to a (rows, T) matrix, H has shape {h.shape}")
    if h.shape[1] != mask.T:
        raise ValueError(f"mask is for T={mask.T}, H has {h.shape[1]} columns")
    if h.shape[0] != mask.rows:
        raise ValueError(f"mask has {mask.rows} rows, H has {h.shape[0]}")
    return h


def project_frequency_mask(h: np.ndarray, mask: FrequencyMask) -> np.ndarray:
    """Orthogonal projection onto {H : dft_rows(H) vanishes outside mask}.

    Per row: zero the half-spectrum bins outside ``mask.keep``, invert.
    Idempotent, and real because the mask is conjugate-closed.
    """
    h = _masked_rows(h, mask)
    return np.fft.irfft(np.where(mask.keep, np.fft.rfft(h, axis=1), 0.0), n=mask.T, axis=1)


def top_r_keep(h: np.ndarray, R: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum of each row and its top-R keep-array, all rows at once.

    Returns ``(S, keep)``: ``S = np.fft.rfft(h, axis=1)`` (unscaled, bins
    k = 0..floor(T/2)) and a boolean array of the same shape marking each
    row's R largest-amplitude bins.  Ties break toward the lower index.
    Amplitudes are compared after rounding to multiples of 2**-30 times the
    row's largest, so bins that are equal up to FFT rounding tie.  Keeping
    bin k of the half-spectrum keeps its mirror (T - k) % T of the full one.

    The bins are picked by R rounds of ``argmax`` over the rounded ranks,
    each dropping the picked bin below every rank: the first maximum is the
    lowest index, the tie-break of a stable descending sort, so the keep
    array is that sort's top R.  A row with a non-finite amplitude ranks
    NaN, where the rounds may pick other bins than the sort would; its code
    is non-finite either way.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    T = h.shape[1]
    n = T // 2 + 1
    if not 1 <= R <= n:
        raise ValueError(f"R must be in [1, {n}] for T={T}, got {R}")
    spec = np.fft.rfft(h, axis=1)
    ranks = np.abs(spec)
    # an all-zero row divides by the floor and ties everywhere
    scale = ranks.max(axis=1, keepdims=True)
    scale *= _TIE_RTOL
    np.divide(ranks, np.maximum(scale, 1e-300, out=scale), out=ranks)
    np.rint(ranks, out=ranks)
    keep = np.zeros(spec.shape, dtype=bool)
    flat_keep, flat_ranks = keep.reshape(-1), ranks.reshape(-1)
    starts = np.arange(0, ranks.size, n)
    for _ in range(R):
        top = ranks.argmax(axis=1)
        top += starts
        flat_keep[top] = True
        flat_ranks[top] = -1.0  # ranks are >= 0
    return spec, keep


def half_offmask_ratio(spec: np.ndarray, keep: np.ndarray, T: int) -> np.ndarray:
    """Per-row relative spectral mass outside a mask, from an ``rfft``
    half-spectrum and its keep-array (0 for zero rows).

    Interior bins stand for themselves and their mirrors, so their power
    counts twice; DC and (for even T) Nyquist count once.  The result equals
    the full-spectrum ratio of the conjugate-closed mask ``keep`` describes.
    """
    power = np.abs(spec) ** 2
    power[:, 1 : (T + 1) // 2] *= 2.0
    total = power.sum(axis=1)
    off = np.where(keep, 0.0, power).sum(axis=1)
    return np.sqrt(np.divide(off, total, out=np.zeros_like(off), where=total > 0.0))


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
    h = _masked_rows(h, mask)
    return half_offmask_ratio(np.fft.rfft(h, axis=1), mask.keep, mask.T)
