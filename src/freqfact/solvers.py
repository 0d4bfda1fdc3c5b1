"""Optimization procedures for the supervised factorization.

Four solvers:

* :func:`solve_W` - exact (optionally ridge-damped) normal-equation step for
  a dictionary given the code.
* :func:`solve_H_pgd` - projected subgradient descent on the code
  subproblem; returns the best iterate seen, since subgradient steps are not
  monotone.
* :func:`three_operator_splitting` - splitting scheme for the doubly
  constrained code subproblem (nonnegative orthant + fixed frequency mask),
  returning the ergodic average.
* :func:`alternating_pgd` - heuristic alternation of adaptive top-R
  frequency projection, a gradient step, and the nonnegativity projection.

:func:`ssnmf_bcd` and :func:`ssnmf_hard` drive these in a block-coordinate
cycle (code step, then exact dictionary steps).  All solvers are
deterministic given a seed: identical seeds and configs yield bit-identical
reports.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import SingularGramError
from .regularization import Penalty, penalty_subgradient, penalty_value
from .spectral import FrequencyMask, half_offmask_ratio, project_frequency_mask, top_r_keep
from .tensor import supervised_stack

__all__ = [
    "StepSchedule",
    "SolveReport",
    "Hyper",
    "FactorModel",
    "objective",
    "solve_W",
    "solve_H_pgd",
    "ssnmf_bcd",
    "three_operator_splitting",
    "alternating_pgd",
    "ssnmf_hard",
]

# Relative eigenvalue floor below which a Gram matrix counts as singular.
_GRAM_RTOL = 1e-13

# Gram-form residuals at or below this fraction of ||Xbar||^2 are recomputed
# exactly: the form's rounding error is a fixed fraction of ||Xbar||^2.
_GRAM_FALLBACK_RTOL = 1e-6


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule for the first-order code solvers.

    kinds:
      * ``diminishing_c_over_j``: c / (j + 1)
      * ``lipschitz_scaled``:     (c / (2 L + 1)) / (j + 1), with L the
        spectral norm of the quadratic term's Gram matrix
      * ``adagrad_like``:         gamma0 while no gradients have been seen,
        then 1 / sqrt(sum of squared gradient norms)
    """

    kind: str = "lipschitz_scaled"
    c: float = 1.0
    gamma0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("diminishing_c_over_j", "adagrad_like", "lipschitz_scaled"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.c <= 0 or self.gamma0 <= 0:
            raise ValueError("c and gamma0 must be positive")

    def stepper(self, lipschitz: float):
        """Return step(j, accum_sq_grad) -> float for this schedule."""
        if self.kind == "diminishing_c_over_j":
            c = self.c
            return lambda j, accum: c / (j + 1)
        if self.kind == "lipschitz_scaled":
            base = self.c / (2.0 * lipschitz + 1.0)
            return lambda j, accum: base / (j + 1)
        gamma0 = self.gamma0
        return lambda j, accum: gamma0 if accum == 0.0 else 1.0 / math.sqrt(accum)


@dataclass
class SolveReport:
    """Per-run record: objective per (outer) iteration, step sizes used,
    termination cause, and solver-specific extras."""

    objective_trace: list[float] = field(default_factory=list)
    step_trace: list[float] = field(default_factory=list)
    terminated: str = "max_iters"
    wall_iters: int = 0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "objective_trace": [float(v) for v in self.objective_trace],
            "step_trace": [float(v) for v in self.step_trace],
            "terminated": self.terminated,
            "wall_iters": int(self.wall_iters),
            "extras": self.extras,
        }


@dataclass(frozen=True)
class Hyper:
    """Factorization hyperparameters: rank, supervision weight, penalty, and
    optional ridge weights on the two dictionaries."""

    r: int
    xi: float
    penalty: Penalty
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank must be >= 1")
        if self.xi < 0 or self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("xi, lambda1, lambda2 must be nonnegative")


@dataclass
class FactorModel:
    """Learned factors: dictionaries W (d x r), Wp (dS x r) and code H (r x T)."""

    W: np.ndarray
    Wp: np.ndarray
    H: np.ndarray
    hyper: Hyper

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.Wp = np.asarray(self.Wp, dtype=float)
        self.H = np.asarray(self.H, dtype=float)
        r = self.hyper.r
        if self.W.shape[1] != r or self.Wp.shape[1] != r or self.H.shape[0] != r:
            raise ValueError("factor shapes disagree with hyper.r")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.Wp))):
            raise ValueError("dictionaries must be finite")


def objective(x: np.ndarray, y: np.ndarray, model: FactorModel) -> float:
    """Full objective: data fit + xi-weighted auxiliary fit + penalty
    (+ dictionary ridge terms when nonzero).

    ``y`` may span more columns than H; only the leading block is scored.
    Returns +inf when a hard-frequency penalty finds H infeasible.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    T = model.H.shape[1]
    if x.shape[1] != T:
        raise ValueError(f"X has {x.shape[1]} columns, H has {T}")
    if y.shape[1] < T:
        raise ValueError(f"Y has {y.shape[1]} columns, needs at least {T}")
    h = model.hyper
    val = _objective_smooth(x, y[:, :T], model)
    pen = penalty_value(model.H, h.penalty)
    return float(val + pen)


def _sq_residual(x: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    """||X - W H||_F^2, formed in the one buffer that W H needs.

    Equal bit for bit to ``np.sum((x - w @ h) ** 2)`` for a row-major X, at
    a third of its transient memory.
    """
    r = w @ h
    np.subtract(x, r, out=r)
    np.square(r, out=r)
    return float(np.sum(r))


def _objective_smooth(x: np.ndarray, y_t: np.ndarray, model: FactorModel) -> float:
    """Objective without the code penalty (finite even off the hard set)."""
    h = model.hyper
    val = _sq_residual(x, model.W, model.H)
    val += h.xi * _sq_residual(y_t, model.Wp, model.H)
    if h.lambda1:
        val += h.lambda1 * float(np.sum(model.W**2))
    if h.lambda2:
        val += h.lambda2 * float(np.sum(model.Wp**2))
    return val


def solve_W(x: np.ndarray, h: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Exact minimizer of ||X - W H||_F^2 + ridge ||W||_F^2.

    W = X H^T (H H^T + ridge I)^{-1}.  A singular Gram with ridge = 0 raises
    :class:`SingularGramError` rather than silently falling back to a
    pseudo-inverse.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    gram = h @ h.T
    if ridge:
        # ridge makes the system positive definite by construction
        gram = gram + ridge * np.eye(gram.shape[0])
    else:
        evals = np.linalg.eigvalsh(gram)
        if evals[-1] <= 0.0 or evals[0] <= _GRAM_RTOL * evals[-1]:
            raise SingularGramError(
                f"code Gram matrix is singular (eigenvalue range [{evals[0]:.3e}, "
                f"{evals[-1]:.3e}]); pass ridge > 0 or re-initialize"
            )
    return np.linalg.solve(gram, h @ x.T).T


def solve_H_pgd(
    xbar: np.ndarray,
    wbar: np.ndarray,
    h0: np.ndarray,
    p: Penalty,
    sched: StepSchedule | None = None,
    L: int = 50,
    nonneg: bool = True,
) -> tuple[np.ndarray, SolveReport]:
    """Projected subgradient descent on the stacked code subproblem

        min_{H >= 0}  ||Xbar - Wbar H||_F^2 + penalty(H)

    for subdifferentiable penalties (ridge, lasso, soft_freq).  Runs L steps

        H <- max{0, H - a_j (2 (Wbar^T Wbar H - Wbar^T Xbar) + dpenalty(H))}

    and returns the best-objective iterate (the start point included, so a
    warm start is never worsened).  ``nonneg=False`` disables the projection,
    for diagnostics.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if p.kind == "hard_freq":
        raise ValueError("hard_freq has no subgradient; use the splitting or heuristic solver")
    xbar = np.asarray(xbar, dtype=float)
    wbar = np.asarray(wbar, dtype=float)
    sched = sched or StepSchedule()
    gram = wbar.T @ wbar
    cross = wbar.T @ xbar
    lip = float(np.linalg.norm(gram, 2))
    step_of = sched.stepper(lip)

    def fsub(h):
        return _sq_residual(xbar, wbar, h) + penalty_value(h, p)

    h = np.asarray(h0, dtype=float).copy()
    best_val = fsub(h)
    best_h = h.copy()
    trace = [best_val]
    steps = []
    accum = 0.0
    for j in range(L):
        g = 2.0 * (gram @ h - cross)
        if p.lam:
            g = g + penalty_subgradient(h, p)
        step = step_of(j, accum)
        accum += float(np.sum(g * g))
        h = h - step * g
        if nonneg:
            h = np.maximum(h, 0.0)
        val = fsub(h)
        if val < best_val:
            best_val = val
            best_h = h.copy()
        trace.append(val)
        steps.append(step)
    report = SolveReport(trace, steps, "max_iters", L, {"best_objective": best_val})
    return best_h, report


def _init_factors(x, y_t, hyper, seed):
    """Seeded initialization: W, Wp ~ N(0,1)/sqrt(r), H0 = |N(0,1)|, then one
    exact dictionary pass against H0.

    Starting the cycle with the dictionary step anchors the first code step
    to dictionaries consistent with the data; a raw random W frequently sends
    the whole code to zero on its first gradient step.
    """
    rng = np.random.default_rng(seed)
    d = x.shape[0]
    ds = y_t.shape[0]
    r = hyper.r
    T = x.shape[1]
    w = rng.standard_normal((d, r)) / np.sqrt(r)
    wp = rng.standard_normal((ds, r)) / np.sqrt(r)
    h = np.abs(rng.standard_normal((r, T)))
    w = solve_W(x, h, hyper.lambda1)
    wp = solve_W(y_t, h, hyper.lambda2)
    return w, wp, h


def _check_bcd_inputs(x, y, hyper, n_iters):
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    d, T = x.shape
    if y.shape[1] < T:
        raise ValueError(f"auxiliary data spans {y.shape[1]} < T={T} columns")
    if hyper.r > min(d, T):
        raise ValueError(f"rank {hyper.r} exceeds min(d, T) = {min(d, T)}")


def ssnmf_bcd(
    x: np.ndarray,
    y: np.ndarray,
    hyper: Hyper,
    n_iters: int,
    sub_iters: int = 50,
    seed: int = 0,
    nonneg: bool = True,
    sched: StepSchedule | None = None,
    tol: float | None = None,
) -> tuple[FactorModel, SolveReport]:
    """Block-coordinate descent for the supervised factorization with a
    subdifferentiable penalty (ridge / lasso / soft_freq, or any with lam=0).

    Each outer iteration solves the code step on the stacked system
    [X; sqrt(xi) Y[:, :T]] via :func:`solve_H_pgd` (warm-started), then takes
    exact normal-equation steps for W on X and for Wp on Y[:, :T].  The
    report's objective trace holds the full objective after each cycle;
    ``extras["phase_objectives"]`` holds [after_H, after_W, after_Wp]
    triplets.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_bcd_inputs(x, y, hyper, n_iters)
    T = x.shape[1]
    y_t = y[:, :T]
    w, wp, h = _init_factors(x, y_t, hyper, seed)

    report = SolveReport(extras={"phase_objectives": [], "h_min_trace": []})
    model = FactorModel(w, wp, h, hyper)
    report.extras["initial_objective"] = objective(x, y_t, model)
    prev = report.extras["initial_objective"]
    xbar = supervised_stack(x, y_t, hyper.xi)
    for it in range(n_iters):
        wbar = supervised_stack(w, wp, hyper.xi)
        h, sub = solve_H_pgd(xbar, wbar, h, hyper.penalty, sched, sub_iters, nonneg)
        model = FactorModel(w, wp, h, hyper)
        after_h = objective(x, y_t, model)
        w = solve_W(x, h, hyper.lambda1)
        model = FactorModel(w, wp, h, hyper)
        after_w = objective(x, y_t, model)
        wp = solve_W(y_t, h, hyper.lambda2)
        model = FactorModel(w, wp, h, hyper)
        after_wp = objective(x, y_t, model)
        report.extras["phase_objectives"].append([after_h, after_w, after_wp])
        report.extras["h_min_trace"].append(float(h.min()))
        report.objective_trace.append(after_wp)
        report.step_trace.append(sub.step_trace[0])
        report.wall_iters = it + 1
        if tol is not None and abs(after_wp - prev) / max(1.0, abs(prev)) < tol:
            report.terminated = "tol_reached"
            break
        prev = after_wp
    return model, report


def three_operator_splitting(
    grad_f,
    mask: FrequencyMask,
    y0: np.ndarray,
    n_iters: int,
    gamma0: float = 1.0,
    f=None,
) -> tuple[np.ndarray, SolveReport]:
    """Splitting iteration for min f over {H >= 0} intersect {mask set}.

        H_j = max{0, y_j}
        G_j = P_mask(2 H_j - y_j - gamma_j grad_f(H_j))
        y_{j+1} = y_j - H_j + G_j
        gamma_j = 1 / sqrt(sum_{tau < j} ||grad_f(H_tau)||^2)

    gamma_0 as written is 0/0, so the first step uses ``gamma0`` (and keeps
    using it while all past gradients are zero).  Runs j = 0..n_iters and
    returns the ergodic average of the H iterates, which carries the
    convergence guarantee; the last H iterate is in
    ``extras["last_iterate"]``.  Pass ``f`` to record an objective trace.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if gamma0 <= 0:
        raise ValueError("gamma0 must be positive")
    y = np.asarray(y0, dtype=float).copy()
    h_sum = np.zeros_like(y)
    accum = 0.0
    report = SolveReport()
    h = None
    for _ in range(n_iters + 1):
        h = np.maximum(y, 0.0)
        g = np.asarray(grad_f(h), dtype=float)
        gamma = gamma0 if accum == 0.0 else 1.0 / math.sqrt(accum)
        corr = project_frequency_mask(2.0 * h - y - gamma * g, mask)
        y = y - h + corr
        accum += float(np.sum(g * g))
        h_sum += h
        report.step_trace.append(gamma)
        if f is not None:
            report.objective_trace.append(float(f(h)))
    report.wall_iters = n_iters + 1
    report.extras["last_iterate"] = h
    return h_sum / (n_iters + 1), report


def alternating_pgd(
    h0: np.ndarray,
    wbar: np.ndarray,
    xbar: np.ndarray,
    R: int,
    n_iters: int,
    priority: str = "nonneg",
) -> tuple[np.ndarray, SolveReport]:
    """Heuristic code solver with adaptive per-row top-R frequency masks.

    Per iteration (priority="nonneg", the default): project each row onto its
    own current top-R frequency set, take a gradient step on
    f(H) = ||Xbar - Wbar H||_F^2 with gamma_j = 1/((j+1)(2 L + 1)), then
    clamp to the nonnegative orthant.  priority="frequency" swaps the two
    projections so the frequency projection lands last and the returned code
    is exactly band-limited (possibly slightly negative).

    All rows are projected at once on their ``rfft`` half-spectra, with the
    masks chosen by :func:`~freqfact.spectral.top_r_keep`.  The objective
    trace uses the Gram form ||Xbar||^2 - 2<C, H> + <H, G H> with
    G = Wbar^T Wbar and C = Wbar^T Xbar.  Its rounding error is a fixed
    fraction of ||Xbar||^2, so at or below 1e-6 ||Xbar||^2 the exact
    residual is recorded instead.

    ``extras["offmask_after_projection"]`` records, per iteration, the
    largest per-row relative out-of-mask spectral mass measured immediately
    after the frequency projection; ``extras["offmask_final"]`` measures the
    returned code against its own top-R mask.
    """
    if priority not in ("nonneg", "frequency"):
        raise ValueError(f"priority must be 'nonneg' or 'frequency', got {priority!r}")
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    xbar = np.asarray(xbar, dtype=float)
    wbar = np.asarray(wbar, dtype=float)
    gram = wbar.T @ wbar
    cross = wbar.T @ xbar
    lip = float(np.linalg.norm(gram, 2))
    base = 1.0 / (2.0 * lip + 1.0)
    x_sq = float(np.sum(xbar * xbar))

    h = np.asarray(h0, dtype=float).copy()
    T = h.shape[1]
    offmask = []
    report = SolveReport(extras={"offmask_after_projection": offmask})

    def freq_project(m):
        spec, keep = top_r_keep(m, R)
        out = np.fft.irfft(np.where(keep, spec, 0.0), n=T, axis=1)
        offmask.append(float(half_offmask_ratio(np.fft.rfft(out, axis=1), keep, T).max()))
        return out

    for j in range(n_iters):
        gamma = base / (j + 1)
        if priority == "nonneg":
            h = freq_project(h)
            h = h - gamma * 2.0 * (gram @ h - cross)
            h = np.maximum(h, 0.0)
        else:
            h = np.maximum(h, 0.0)
            h = h - gamma * 2.0 * (gram @ h - cross)
            h = freq_project(h)
        val = x_sq - 2.0 * float(np.vdot(cross, h)) + float(np.vdot(h, gram @ h))
        if val <= _GRAM_FALLBACK_RTOL * x_sq:
            val = _sq_residual(xbar, wbar, h)
        report.objective_trace.append(val)
        report.step_trace.append(gamma)
    report.wall_iters = n_iters
    report.extras["offmask_final"] = float(half_offmask_ratio(*top_r_keep(h, R), T).max())
    return h, report


def ssnmf_hard(
    x: np.ndarray,
    y: np.ndarray,
    hyper: Hyper,
    R: int,
    n_iters: int,
    variant: str = "heuristic",
    seed: int = 0,
    sub_iters: int = 50,
    mask: FrequencyMask | None = None,
    priority: str = "nonneg",
    gamma0: float = 1.0,
    tol: float | None = None,
) -> tuple[FactorModel, SolveReport]:
    """Block-coordinate descent with the hard frequency constraint on H.

    The code step runs either the splitting solver (variant="tos", which
    needs a fixed conjugate-closed ``mask`` - a band-limited set cannot be
    carried across different series lengths, so the caller must supply one
    per length) or the adaptive heuristic (variant="heuristic", masks
    recomputed per row from the top-R power spectrum).  Dictionary steps are
    the exact normal equations.

    The objective trace records the smooth part (fit + ridge terms); the
    indicator is tracked separately through the offmask extras.
    """
    if variant not in ("tos", "heuristic"):
        raise ValueError(f"variant must be 'tos' or 'heuristic', got {variant!r}")
    if variant == "tos" and mask is None:
        raise ValueError("variant='tos' requires a fixed FrequencyMask")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_bcd_inputs(x, y, hyper, n_iters)
    T = x.shape[1]
    y_t = y[:, :T]
    w, wp, h = _init_factors(x, y_t, hyper, seed)

    report = SolveReport(
        extras={"offmask_after_projection": [], "h_min_trace": [], "variant": variant}
    )
    prev = None
    xbar = supervised_stack(x, y_t, hyper.xi)
    for it in range(n_iters):
        wbar = supervised_stack(w, wp, hyper.xi)
        if variant == "heuristic":
            h, sub = alternating_pgd(h, wbar, xbar, R, sub_iters, priority)
            report.extras["offmask_after_projection"].extend(
                sub.extras["offmask_after_projection"]
            )
            report.extras["offmask_final"] = sub.extras["offmask_final"]
        else:
            gram = wbar.T @ wbar
            cross = wbar.T @ xbar
            h, sub = three_operator_splitting(
                lambda m: 2.0 * (gram @ m - cross),
                mask,
                h,
                sub_iters,
                gamma0,
            )
        w = solve_W(x, h, hyper.lambda1)
        wp = solve_W(y_t, h, hyper.lambda2)
        model = FactorModel(w, wp, h, hyper)
        val = _objective_smooth(x, y_t, model)
        report.objective_trace.append(val)
        report.step_trace.append(sub.step_trace[0])
        report.extras["h_min_trace"].append(float(h.min()))
        report.wall_iters = it + 1
        if tol is not None and prev is not None and abs(val - prev) / max(1.0, abs(prev)) < tol:
            report.terminated = "tol_reached"
            break
        prev = val
    return FactorModel(w, wp, h, hyper), report
