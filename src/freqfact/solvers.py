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

:func:`code_step` is the one place a penalty picks its code solver (the
subgradient method for ridge, lasso and soft_freq; the splitting solver for a
hard_freq penalty with a fixed mask, else the top-R heuristic).
:func:`ssnmf_bcd` and :func:`ssnmf_hard` share one block-coordinate loop
(code step, then exact dictionary steps) and differ only in the objectives
they record; encoding runs the same code step with the dictionary held
fixed.  All solvers are deterministic given a seed: identical seeds and
configs yield bit-identical reports.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError, SingularGramError
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
    "code_step",
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


def _gram_sq_residual(xbar, wbar, x_sq, cross, h, gh) -> float:
    """||Xbar - Wbar H||_F^2 as ||Xbar||^2 - 2<C, H> + <H, G H>, from
    x_sq = ||Xbar||^2, C = Wbar^T Xbar and gh = G H with G = Wbar^T Wbar.

    The form's rounding error is a fixed fraction of ||Xbar||^2, so at or
    below ``_GRAM_FALLBACK_RTOL`` of it the exact residual is returned.
    """
    val = x_sq - 2.0 * float(np.vdot(cross, h)) + float(np.vdot(h, gh))
    if val <= _GRAM_FALLBACK_RTOL * x_sq:
        val = _sq_residual(xbar, wbar, h)
    return val


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

    Each iterate costs one product G H (G = Wbar^T Wbar) and, for
    soft_freq, one ``rfft`` of H.  G H serves both the objective, in the
    Gram form with its exact fallback near zero residual, and the next
    gradient; the row spectrum serves both the penalty value and the next
    subgradient.  ``extras["grad_sq_sum"]`` is the sum of the squared
    gradient norms, which the adagrad-like schedule steps by.
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
    x_sq = float(np.vdot(xbar, xbar))
    soft = p.kind == "soft_freq"

    def fsub(h, gh, spec):
        return _gram_sq_residual(xbar, wbar, x_sq, cross, h, gh) + penalty_value(h, p, spec)

    h = np.asarray(h0, dtype=float).copy()
    gh = gram @ h
    spec = np.fft.rfft(h, axis=1) if soft else None
    best_val = fsub(h, gh, spec)
    best_h = h.copy()
    trace = [best_val]
    steps = []
    accum = 0.0
    for j in range(L):
        g = 2.0 * (gh - cross)
        if p.lam:
            g += penalty_subgradient(h, p, spec)
        step = step_of(j, accum)
        accum += float(np.vdot(g, g))
        h = h - step * g
        if nonneg:
            h = np.maximum(h, 0.0)
        gh = gram @ h
        spec = np.fft.rfft(h, axis=1) if soft else None
        val = fsub(h, gh, spec)
        if val < best_val:
            best_val = val
            best_h = h.copy()
        trace.append(val)
        steps.append(step)
    extras = {"best_objective": best_val, "grad_sq_sum": accum}
    return best_h, SolveReport(trace, steps, "max_iters", L, extras)


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


def _require_finite(solver: str, it: int, **values) -> None:
    """Raise :class:`ConvergenceError` naming the solver, the (1-based) outer
    iteration and each named value that is not finite."""
    bad = [name for name, v in values.items() if not np.all(np.isfinite(v))]
    if bad:
        raise ConvergenceError(f"{solver}: non-finite {', '.join(bad)} at outer iteration {it + 1}")


def _bcd_loop(solver, x, y, hyper, n_iters, sub_iters, seed, tol, step, extras, first, after):
    """The block-coordinate cycle both drivers run.

    Each outer iteration runs ``step`` (see :func:`code_step`) on the stack
    [X; sqrt(xi) Y[:, :T]], then exact normal-equation steps for W on X and
    for Wp on Y[:, :T], checks every value is finite and records the step
    size and min H.  The driver's hooks add its own records:
    ``first(x, y_t, model, extras)`` returns what the first ``tol`` test
    compares against (None: no test) and ``after(x, y_t, old, model, sub,
    extras)`` the iteration's objectives, the last one traced and tested.
    Overflow is reported once, by the finite checks, not by numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if n_iters < 1:
            raise ValueError("n_iters must be >= 1")
        d, T = x.shape
        if y.shape[1] < T:
            raise ValueError(f"auxiliary data spans {y.shape[1]} < T={T} columns")
        if hyper.r > min(d, T):
            raise ValueError(f"rank {hyper.r} exceeds min(d, T) = {min(d, T)}")
        y_t = y[:, :T]
        w, wp, h = _init_factors(x, y_t, hyper, seed)
        report = SolveReport(extras={**extras, "h_min_trace": []})
        model = FactorModel(w, wp, h, hyper)
        prev = first(x, y_t, model, report.extras)
        xbar = supervised_stack(x, y_t, hyper.xi)
        for it in range(n_iters):
            wbar = supervised_stack(model.W, model.Wp, hyper.xi)
            h, sub = step(xbar, wbar, model.H, sub_iters)
            w = solve_W(x, h, hyper.lambda1)
            wp = solve_W(y_t, h, hyper.lambda2)
            _require_finite(solver, it, H=h, W=w, Wp=wp,
                            grad_sq_sum=sub.extras.get("grad_sq_sum", 0.0))
            old, model = model, FactorModel(w, wp, h, hyper)
            vals = after(x, y_t, old, model, sub, report.extras)
            _require_finite(solver, it, objective=vals)
            val = vals[-1]
            report.objective_trace.append(val)
            report.step_trace.append(sub.step_trace[0])
            report.extras["h_min_trace"].append(float(h.min()))
            report.wall_iters = it + 1
            if tol is not None and prev is not None and abs(val - prev) / max(1.0, abs(prev)) < tol:
                report.terminated = "tol_reached"
                break
            prev = val
    return model, report


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
    _, step = code_step(hyper.penalty, "pgd", sched=sched, nonneg=nonneg)

    def first(x, y_t, model, extras):
        extras["initial_objective"] = objective(x, y_t, model)
        return extras["initial_objective"]

    def after(x, y_t, old, model, sub, extras):
        phases = [
            objective(x, y_t, FactorModel(old.W, old.Wp, model.H, hyper)),
            objective(x, y_t, FactorModel(model.W, old.Wp, model.H, hyper)),
            objective(x, y_t, model),
        ]
        extras["phase_objectives"].append(phases)
        return phases

    return _bcd_loop("ssnmf_bcd", x, y, hyper, n_iters, sub_iters, seed, tol, step,
                     {"phase_objectives": []}, first, after)


def three_operator_splitting(
    grad_f,
    mask: FrequencyMask,
    y0: np.ndarray,
    n_iters: int,
    gamma0: float = 1.0,
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
    ``extras["last_iterate"]`` and the final sum of squared gradient norms in
    ``extras["grad_sq_sum"]``.
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
    report.wall_iters = n_iters + 1
    report.extras["last_iterate"] = h
    report.extras["grad_sq_sum"] = accum
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
        report.objective_trace.append(_gram_sq_residual(xbar, wbar, x_sq, cross, h, gram @ h))
        report.step_trace.append(gamma)
    report.wall_iters = n_iters
    report.extras["offmask_final"] = float(half_offmask_ratio(*top_r_keep(h, R), T).max())
    return h, report


def code_step(
    p: Penalty,
    variant: str | None = None,
    R: int | None = None,
    *,
    priority: str = "nonneg",
    sched: StepSchedule | None = None,
    nonneg: bool = True,
):
    """Pick the code solver for penalty ``p``; returns ``(variant, step)``.

    ``step(xbar, wbar, h0, iters) -> (h, SolveReport)`` runs ``iters``
    iterations of the chosen solver on min ||Xbar - Wbar H||_F^2 + p(H),
    warm-started at ``h0``.  Its report's last objective is that of the last
    iterate.  ``variant`` overrides the default, which is "pgd"
    (:func:`solve_H_pgd`) for ridge, lasso and soft_freq, "tos"
    (:func:`three_operator_splitting`) for a hard_freq penalty with a fixed
    mask, and "heuristic" (:func:`alternating_pgd`) for one without.  ``R``
    overrides ``p.R`` for the heuristic.  ``sched`` and ``nonneg`` go to the
    subgradient method, ``priority`` to the heuristic.
    """
    if variant is None:
        if p.kind != "hard_freq":
            variant = "pgd"
        else:
            variant = "tos" if p.mask is not None else "heuristic"
    if variant == "pgd":
        if p.kind == "hard_freq":
            raise ValueError("the pgd code step cannot solve a hard-frequency penalty")
        return variant, lambda xbar, wbar, h, iters: solve_H_pgd(
            xbar, wbar, h, p, sched, iters, nonneg)
    if variant == "heuristic":
        R = R if R is not None else p.R
        if R is None:
            raise ValueError("the heuristic code step needs R")
        return variant, lambda xbar, wbar, h, iters: alternating_pgd(
            h, wbar, xbar, R, iters, priority)
    if variant != "tos":
        raise ValueError(f"unknown code-step variant {variant!r}, expected pgd, heuristic or tos")
    mask = p.mask
    if mask is None:
        raise ValueError("the tos code step needs a fixed FrequencyMask")

    def tos(xbar, wbar, h, iters):
        gram = wbar.T @ wbar
        cross = wbar.T @ xbar
        h, sub = three_operator_splitting(lambda m: 2.0 * (gram @ m - cross), mask, h, iters)
        sub.objective_trace.append(_sq_residual(xbar, wbar, sub.extras["last_iterate"]))
        return h, sub

    return variant, tos


def ssnmf_hard(
    x: np.ndarray,
    y: np.ndarray,
    hyper: Hyper,
    R: int | None,
    n_iters: int,
    variant: str | None = "heuristic",
    seed: int = 0,
    sub_iters: int = 50,
    mask: FrequencyMask | None = None,
    priority: str = "nonneg",
    tol: float | None = None,
) -> tuple[FactorModel, SolveReport]:
    """Block-coordinate descent with the hard frequency constraint on H.

    The band limit is R (adaptive top-R masks) or ``mask`` (a fixed
    conjugate-closed set), each falling back to ``hyper.penalty``'s.  The
    code step runs either the splitting solver (variant="tos", which needs
    the fixed mask - a band-limited set cannot be carried across different
    series lengths, so the caller must supply one per length) or the
    adaptive heuristic (variant="heuristic", masks recomputed per row from
    the top-R power spectrum); variant=None picks "tos" exactly when a fixed
    mask is given.  Dictionary steps are the exact normal equations.

    The objective trace records the smooth part (fit + ridge terms); the
    indicator is tracked separately through the offmask extras.
    """
    band = Penalty.hard_freq(R if R is not None else hyper.penalty.R,
                             mask if mask is not None else hyper.penalty.mask)
    variant, step = code_step(band, variant, priority=priority)

    def after(x, y_t, old, model, sub, extras):
        extras["offmask_after_projection"].extend(sub.extras.get("offmask_after_projection", []))
        if "offmask_final" in sub.extras:
            extras["offmask_final"] = sub.extras["offmask_final"]
        return [_objective_smooth(x, y_t, model)]

    return _bcd_loop("ssnmf_hard", x, y, hyper, n_iters, sub_iters, seed, tol, step,
                     {"offmask_after_projection": [], "variant": variant},
                     lambda *_: None, after)
