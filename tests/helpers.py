"""Independent oracles shared by the test modules.

Everything here is deliberately written from the definitions (explicit
transform matrices, finite differences, per-column scipy solves) rather than
through the package's own code paths.
"""

import numpy as np


def dft_definitional(a: np.ndarray) -> np.ndarray:
    """Definitional transform: build F[f, k] = exp(-2i pi f k / T) / T and
    multiply.  O(T^2), no FFT."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    T = a.shape[1]
    f = np.arange(T).reshape(-1, 1)
    k = np.arange(T).reshape(1, -1)
    F = np.exp(-2j * np.pi * f * k / T) / T
    return a @ F


def dft_loops(a: np.ndarray) -> np.ndarray:
    """Triple-loop definitional sum; tiny inputs only."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    r, T = a.shape
    out = np.zeros((r, T), dtype=complex)
    for s in range(r):
        for k in range(T):
            acc = 0.0 + 0.0j
            for f in range(T):
                acc += a[s, f] * np.exp(-2j * np.pi * f * k / T)
            out[s, k] = acc / T
    return out


def idft_definitional(s: np.ndarray) -> np.ndarray:
    """Inverse via the explicit matrix Finv[k, t] = exp(+2i pi k t / T)."""
    s = np.atleast_2d(np.asarray(s, dtype=complex))
    T = s.shape[1]
    k = np.arange(T).reshape(-1, 1)
    t = np.arange(T).reshape(1, -1)
    return s @ np.exp(2j * np.pi * k * t / T)


def minkowski_definitional(s: np.ndarray) -> float:
    s = np.asarray(s)
    return float(sum(abs(v.real) + abs(v.imag) for v in s.ravel()))


def central_diff(func, h: np.ndarray, direction: np.ndarray, eps: float = 1e-7) -> float:
    return (func(h + eps * direction) - func(h - eps * direction)) / (2 * eps)


def sample_differentiable_h(rng, r: int, T: int, floor: float = 1e-3) -> np.ndarray:
    """Random H whose spectrum stays clear of the penalty's kinks: |Re| above
    the floor everywhere, |Im| above it off the self-mirrored bins."""
    self_mirror = {0} | ({T // 2} if T % 2 == 0 else set())
    free = np.array([k for k in range(T) if k not in self_mirror])
    while True:
        h = rng.standard_normal((r, T))
        spec = np.fft.fft(h, axis=1) / T
        if np.abs(spec.real).min() <= floor:
            continue
        if free.size and np.abs(spec.imag[:, free]).min() <= floor:
            continue
        return h


def nnls_columns(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise nonnegative least squares via scipy (reference solver)."""
    from scipy.optimize import nnls

    return np.column_stack([nnls(w, y[:, t])[0] for t in range(y.shape[1])])


def normal_terms(xbar: np.ndarray, wbar) -> tuple:
    """(G, C) = (Wbar^T Wbar, Wbar^T Xbar), the terms a code step takes for
    min ||Xbar - Wbar H||_F^2; for a sequence of dictionaries, the list of
    each block's G and the list of its C."""
    if isinstance(wbar, (list, tuple)):
        return [w.T @ w for w in wbar], [w.T @ xbar for w in wbar]
    return wbar.T @ wbar, wbar.T @ xbar
