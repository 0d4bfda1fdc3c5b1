"""Penalty abstraction for the code matrix H.

Four penalty kinds: ridge and lasso act in the time domain, soft_freq
penalizes the Minkowski 1-norm of the row spectra, and hard_freq is the
indicator of a band-limited set (either a fixed mask or the adaptive
top-R mask of the argument itself).
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (FrequencyMask, half_minkowski1, half_offmask_ratio, minkowski_prox,
                       offmask_ratio, project_frequency_mask, top_r_keep)

__all__ = [
    "Penalty",
    "penalty_value",
    "penalty_prox",
    "band_offmask_ratio",
]

KINDS = ("ridge", "lasso", "soft_freq", "hard_freq")

# Feasibility band for the hard indicator: out-of-mask spectral magnitudes up
# to this fraction of ||S||_F count as zero.
HARD_FEASIBILITY_RTOL = 1e-8


@dataclass(frozen=True)
class Penalty:
    """Penalty configuration.

    ``lam`` is the regularization weight (ignored by hard_freq, whose value
    is 0 or +inf).  hard_freq needs a mask source: a fixed
    :class:`FrequencyMask`, or ``R`` for the adaptive top-R mask.  Either
    band is a half-spectrum keep array: the fixed mask's ``keep``, or
    :func:`~freqfact.spectral.top_r_keep` of the code being scored.
    """

    kind: str
    lam: float = 0.0
    R: int | None = None
    mask: FrequencyMask | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}, expected one of {KINDS}")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.kind == "hard_freq" and self.mask is None and (self.R is None or self.R < 1):
            raise ValueError("hard_freq needs a fixed mask or R >= 1")

    @classmethod
    def ridge(cls, lam: float) -> "Penalty":
        return cls("ridge", lam)

    @classmethod
    def lasso(cls, lam: float) -> "Penalty":
        return cls("lasso", lam)

    @classmethod
    def soft_freq(cls, lam: float) -> "Penalty":
        return cls("soft_freq", lam)

    @classmethod
    def hard_freq(cls, R: int | None = None, mask: FrequencyMask | None = None) -> "Penalty":
        return cls("hard_freq", 0.0, R, mask)


def penalty_value(h: np.ndarray, p: Penalty) -> float:
    """Evaluate the penalty; hard_freq returns 0.0 or math.inf."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if p.kind == "ridge":
        return p.lam * float(np.sum(h * h))
    if p.kind == "lasso":
        return p.lam * float(np.sum(np.abs(h)))
    if p.kind == "soft_freq":
        return p.lam * half_minkowski1(np.fft.rfft(h, axis=1), h.shape[1])
    return 0.0 if np.all(band_offmask_ratio(h, p) <= HARD_FEASIBILITY_RTOL) else math.inf


def band_offmask_ratio(h: np.ndarray, p: Penalty) -> np.ndarray:
    """Per-row relative spectral mass of a float (k, T) H outside a
    hard_freq penalty's band: its fixed mask, else each row's own top-R
    bins."""
    if p.mask is not None:
        return offmask_ratio(h, p.mask)
    return half_offmask_ratio(*top_r_keep(h, p.R), h.shape[1])


def penalty_prox(v: np.ndarray, p: Penalty, t) -> np.ndarray:
    """Proximal map of ``t * penalty`` at ``V``:

        argmin_P  1/2 ||P - V||_F^2 + t * penalty(P)

    which is ``V / (1 + 2 t lam)`` for ridge, soft-thresholding by ``t lam``
    for lasso, :func:`~freqfact.spectral.minkowski_prox` by ``t lam`` for
    soft_freq, and for hard_freq with a fixed mask, the indicator of a
    subspace, :func:`~freqfact.spectral.project_frequency_mask` of a
    (k, T) V for any ``t``.  ``t >= 0`` is a scalar or an array
    broadcasting against V.  An adaptive top-R band (hard_freq without a
    mask) is not convex and has no prox.
    """
    v = np.asarray(v, dtype=float)
    if p.kind == "ridge":
        return v / (1.0 + 2.0 * t * p.lam)
    if p.kind == "lasso":
        mag = np.abs(v)
        mag -= t * p.lam
        np.maximum(mag, 0.0, out=mag)
        return np.copysign(mag, v, out=mag)
    if p.kind == "soft_freq":
        return minkowski_prox(v, t * p.lam)
    if p.mask is None:
        raise ValueError("hard_freq without a fixed mask is an adaptive top-R band, which is not "
                         "convex and has no prox")
    return project_frequency_mask(v, p.mask)
