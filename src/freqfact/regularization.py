"""Penalty abstraction for the code matrix H.

Four penalty kinds: ridge and lasso act in the time domain, soft_freq
penalizes the Minkowski 1-norm of the row spectra, and hard_freq is the
indicator of a band-limited set (either a fixed mask or the adaptive
top-R mask of the argument itself).
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import FrequencyMask, half_minkowski1, half_minkowski_subgradient, offmask_ratio

__all__ = [
    "Penalty",
    "penalty_value",
    "penalty_subgradient",
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
    :class:`FrequencyMask`, or ``R`` for the adaptive top-R mask.
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

    def mask_for(self, h: np.ndarray) -> FrequencyMask:
        """Resolve the hard-freq mask: fixed if given, else top-R of ``h``."""
        if self.kind != "hard_freq":
            raise ValueError("mask_for applies to hard_freq penalties only")
        if self.mask is not None:
            return self.mask
        return FrequencyMask.from_top_r(h, self.R)


def _row_spectrum(h: np.ndarray, spec: np.ndarray | None) -> np.ndarray:
    return np.fft.rfft(h, axis=1) if spec is None else spec


def penalty_value(h: np.ndarray, p: Penalty, spec: np.ndarray | None = None) -> float:
    """Evaluate the penalty; hard_freq returns 0.0 or math.inf.

    ``spec`` may pass ``np.fft.rfft(h, axis=1)`` when the caller already
    holds it; only soft_freq reads it.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if p.kind == "ridge":
        return p.lam * float(np.sum(h * h))
    if p.kind == "lasso":
        return p.lam * float(np.sum(np.abs(h)))
    if p.kind == "soft_freq":
        return p.lam * half_minkowski1(_row_spectrum(h, spec), h.shape[1])
    mask = p.mask_for(h)
    if np.all(offmask_ratio(h, mask) <= HARD_FEASIBILITY_RTOL):
        return 0.0
    return math.inf


def penalty_subgradient(h: np.ndarray, p: Penalty, spec: np.ndarray | None = None) -> np.ndarray:
    """Subgradient of the penalty at ``h`` (sign(0) := 0 at kinks).

    ``spec`` is as for :func:`penalty_value`.  hard_freq has no subgradient;
    project with :func:`~freqfact.spectral.project_frequency_mask` instead.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if p.kind == "ridge":
        return 2.0 * p.lam * h
    if p.kind == "lasso":
        return p.lam * np.sign(h)
    if p.kind == "soft_freq":
        return p.lam * half_minkowski_subgradient(_row_spectrum(h, spec), h.shape[1])
    raise ValueError("hard_freq is an indicator; project onto its mask, not a subgradient")
