"""Spatio-temporal tensor model and matricization.

A data cube is indexed ``(a, b, t)`` with space flattened row-major, so cell
``(a, b)`` becomes matrix row ``a * B + b``.  All operations are pure; arrays
are never mutated in place.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpatioTemporalTensor",
    "matricize",
    "fold",
    "supervised_stack",
]


@dataclass(frozen=True)
class SpatioTemporalTensor:
    """Dense real (A, B, T) array with an optional per-time validity mask.

    ``time_mask[t] == False`` marks a missing time slice (e.g. a gap month);
    masked columns are dropped at matricization and the surviving time
    indices are reported by :meth:`kept_times`.
    """

    values: np.ndarray
    time_mask: np.ndarray | None = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3:
            raise ValueError(f"expected a 3-d (A, B, T) array, got ndim={values.ndim}")
        if not np.all(np.isfinite(values)):
            raise ValueError("tensor values must be finite")
        object.__setattr__(self, "values", values)
        if self.time_mask is not None:
            mask = np.asarray(self.time_mask, dtype=bool)
            if mask.shape != (values.shape[2],):
                raise ValueError(
                    f"time_mask length {mask.shape} does not match T={values.shape[2]}"
                )
            if not mask.any():
                raise ValueError("time_mask must keep at least one column")
            object.__setattr__(self, "time_mask", mask)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def kept_times(self) -> np.ndarray:
        """Time indices that survive matricization, in original order."""
        T = self.values.shape[2]
        if self.time_mask is None:
            return np.arange(T)
        return np.flatnonzero(self.time_mask)


def matricize(t: SpatioTemporalTensor) -> np.ndarray:
    """Unfold along the time mode: result[a*B + b, k] = t[a, b, kept[k]].

    Masked time columns are dropped; ``t.kept_times()`` records the
    column-to-original-time map.  Like :func:`fold`, it copies nothing it
    need not: with no column masked the result is a view of ``t.values``,
    so a tensor read only to be matricized is held once.
    """
    A, B, T = t.dims
    mat = t.values.reshape(A * B, T)
    return mat if t.time_mask is None else mat[:, t.time_mask]


def fold(m: np.ndarray, A: int, B: int) -> SpatioTemporalTensor:
    """Inverse of :func:`matricize` for unmasked tensors."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("fold expects a 2-d matrix")
    if m.shape[0] != A * B:
        raise ValueError(f"matrix has {m.shape[0]} rows, cannot fold into {A}x{B} cells")
    return SpatioTemporalTensor(m.reshape(A, B, m.shape[1]))


def supervised_stack(x: np.ndarray, y: np.ndarray, xi: float) -> np.ndarray:
    """Weighted stack [X; sqrt(xi) * Y].

    Satisfies ||stack @ H||_F^2 == ||X H||_F^2 + xi * ||Y H||_F^2, which is
    what lets the supervised fitting term be handled as one least-squares
    block.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if xi < 0:
        raise ValueError(f"supervision weight must be nonnegative, got {xi}")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"column mismatch: X has {x.shape[1]}, Y has {y.shape[1]}")
    out = np.empty((x.shape[0] + y.shape[0], x.shape[1]))
    out[: x.shape[0]] = x
    np.multiply(y, np.sqrt(xi), out=out[x.shape[0] :])
    return out
