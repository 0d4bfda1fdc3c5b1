"""Synthetic data generators and closed-form reference solutions.

The cosine-mixture dataset couples a main series (sum of cosines over the
configured cycle counts) with one auxiliary series per cycle, each carrying a
single cosine.  Spatial profiles are uniform[0, 1) so the nonnegative code
structure stays clean.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError
from .solvers import solve_W
from .spectral import dft_rows
from .tensor import supervised_stack

__all__ = [
    "SyntheticSpec",
    "gen_cosine_mixture",
    "CodeDecomposition",
    "closed_form_code",
    "NormDescentResult",
    "norm_descent_experiment",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator configuration.

    ``sigma`` is the auxiliary-noise std; ``x_sigma`` the main-series noise
    std (default 1.0, the base construction).  Set both to zero for exact
    band-limited data.
    """

    d: int
    T: int = 163
    freqs: tuple[int, ...] = (14, 6)
    sigma: float = 1.0
    x_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.T < 2:
            raise ValueError("need d >= 1 and T >= 2")
        if not self.freqs:
            raise ValueError("freqs must be nonempty")
        if any(not 0 < f < self.T / 2 for f in self.freqs):
            raise ValueError(f"each cycle count must lie in (0, T/2), got {self.freqs}")
        if self.sigma < 0 or self.x_sigma < 0:
            raise ValueError("noise levels must be nonnegative")
        object.__setattr__(self, "freqs", tuple(int(f) for f in self.freqs))


def gen_cosine_mixture(spec: SyntheticSpec) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Generate (X, (Y_0, ..., Y_{S-1})) with S = len(spec.freqs).

    X[i, j] = u_i * sum_f cos(2 pi f j / T) + x_sigma * noise, and each
    auxiliary Y_k carries only cycle freqs[k] plus sigma-scaled noise.
    Draw order is fixed (profiles, then X noise, then each Y's noise; zero
    noise levels draw nothing), so a seed pins the output bit-for-bit.  A
    noise level so large that a tensor overflows raises ValueError naming
    the level and the tensor.
    """
    rng = np.random.default_rng(spec.seed)
    j = np.arange(spec.T)
    u = rng.random(spec.d)
    vs = [rng.random(spec.d) for _ in spec.freqs]

    def noisy(clean, field, name):
        level = getattr(spec, field)
        if not level:
            return clean
        with np.errstate(over="ignore"):
            out = clean + level * rng.standard_normal((spec.d, spec.T))
        if not np.isfinite(out).all():
            raise ValueError(f"{field}={level!r} overflows tensor {name} to non-finite values")
        return out

    x = np.outer(u, sum(np.cos(2 * np.pi * f * j / spec.T) for f in spec.freqs))
    x = noisy(x, "x_sigma", "X")
    ys = tuple(noisy(np.outer(v, np.cos(2 * np.pi * f * j / spec.T)), "sigma", f"Y{k}")
               for k, (v, f) in enumerate(zip(vs, spec.freqs)))
    return x, ys


@dataclass(frozen=True)
class CodeDecomposition:
    """Unconstrained least-squares code split into a main-data-driven term
    and the auxiliary/main spectral-mismatch term; code == x_term + mismatch."""

    code: np.ndarray
    x_term: np.ndarray
    mismatch: np.ndarray


def closed_form_code(
    w: np.ndarray,
    wp: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    xi: float,
) -> CodeDecomposition:
    """Least-squares solution of the stacked code problem, split by source.

    With Wbar = [W; sqrt(xi) Wp] and Xbar = [X; sqrt(xi) Y], ``code``
    minimizes ||Xbar - Wbar H||_F, solved by :func:`~freqfact.solvers.solve_W`.
    ``x_term`` is the same solve with every auxiliary block Y_p replaced by
    X, so the code the main data alone would drive, and ``mismatch`` is
    ``code - x_term``.  The solve is linear in Xbar, so ``mismatch`` is the
    solve of [0; sqrt(xi) (Y_p - X)], each Y_p - X being the inverse
    transform of spectrum(Y_p) - spectrum(X).

    A zero mismatch means the auxiliaries carry exactly the main data's
    spectral content, so supervision cannot distort the inferred code.
    W and Wp must have one column per atom each, and the auxiliary stack
    S * d rows for integer S, else ValueError; a rank-deficient Wbar raises
    :class:`~freqfact.exceptions.SingularGramError`.
    """
    w = np.asarray(w, dtype=float)
    wp = np.asarray(wp, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    if w.shape[1] != wp.shape[1]:
        raise ValueError(f"W has {w.shape[1]} atoms and Wp has {wp.shape[1]}; "
                         "both dictionaries need one column per atom")
    d = x.shape[0]
    if wp.shape[0] != y.shape[0] or wp.shape[0] % d != 0:
        raise ValueError(
            f"auxiliary rows ({wp.shape[0]}, {y.shape[0]}) must equal S*{d} for integer S"
        )
    wbar_t = supervised_stack(w, wp, xi).T
    code, x_term = (solve_W(supervised_stack(x, aux, xi).T, wbar_t).T
                    for aux in (y, np.tile(x, (wp.shape[0] // d, 1))))
    return CodeDecomposition(code, x_term, code - x_term)


@dataclass
class NormDescentResult:
    trajectory: list[np.ndarray] = field(default_factory=list)
    steps_taken: int = 0

    @property
    def final(self) -> np.ndarray:
        return self.trajectory[-1]

    @property
    def final_spectrum(self) -> np.ndarray:
        return dft_rows(self.final)


_DEFAULT_RATES = {"frobenius": 0.1, "l1": 0.1, "minkowski": 0.5}


def norm_descent_experiment(
    h0: np.ndarray,
    norm: str,
    threshold: float,
    max_steps: int,
    rate: float | None = None,
) -> NormDescentResult:
    """Projected (sub)gradient descent on a bare norm until ||H||_F drops
    below ``threshold``.

    Update rules (rates default to 0.1 / 0.1 / 0.5):

      * frobenius:  H <- max{0, H - a H}
      * l1:         H <- max{0, H - a sign(H)}
      * minkowski:  H <- max{0, H - a Re(sign(Re spectrum(H)) @ Finv)}

    The minkowski rule uses the raw real-sign descent direction (constant
    factors absorbed into the rate).  Trajectory includes H0 and every
    iterate; exceeding ``max_steps`` raises :class:`ConvergenceError`.
    """
    if norm not in _DEFAULT_RATES:
        raise ValueError(f"norm must be one of {sorted(_DEFAULT_RATES)}, got {norm!r}")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    a = _DEFAULT_RATES[norm] if rate is None else rate
    h = np.atleast_2d(np.asarray(h0, dtype=float)).copy()
    result = NormDescentResult(trajectory=[h.copy()])
    for step in range(max_steps):
        if np.linalg.norm(h) < threshold:
            result.steps_taken = step
            return result
        if norm == "frobenius":
            g = h
        elif norm == "l1":
            g = np.sign(h)
        else:
            signs = np.sign(np.fft.fft(h, axis=1).real)
            g = np.fft.ifft(signs, axis=1).real
        h = np.maximum(h - a * g, 0.0)
        result.trajectory.append(h.copy())
    if np.linalg.norm(h) < threshold:
        result.steps_taken = max_steps
        return result
    raise ConvergenceError(
        f"||H||_F = {np.linalg.norm(h):.3e} still above {threshold} after {max_steps} steps"
    )
