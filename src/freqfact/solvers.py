"""Optimization procedures for the supervised factorization.

Solvers:

* :func:`solve_W` - exact (optionally ridge-damped) normal-equation step for
  a dictionary given the code.
* :func:`solve_H_prox` - consensus ADMM on the code subproblem of a convex
  penalty (ridge, lasso or soft_freq), stopped on its primal and dual
  residuals.
* :func:`~freqfact.band.solve_H_band` and
  :func:`~freqfact.band.band_pursuit` - the exact code steps of a hard
  band, in :mod:`freqfact.band`: one dual active-set solve on a fixed mask,
  and hard thresholding pursuit on it for an adaptive top-R band.
* :func:`three_operator_splitting` - the paper's reference form of the
  fixed-mask splitting; no code step runs it.

The penalty alone picks the code solver, in :func:`code_step`, and the
driver: :func:`ssnmf_bcd` fits a convex penalty, :func:`ssnmf_hard` a hard
band.  Both run one block-coordinate loop (code step, then exact dictionary
steps; see :func:`_bcd_loop`) that records the same things for every
penalty and whose objective trace never increases.  Encoding runs the same
code step with the dictionary held fixed.  All solvers are deterministic
given a seed: identical seeds and configs yield bit-identical reports.

The code steps see their problem min ||Xbar - Wbar H||_F^2 + penalty(H)
only through its normal-equation terms, the Gram G = Wbar^T Wbar (k, k) and
the cross term C = Wbar^T Xbar (k, T), the terms AO-ADMM's inner loop works
on (Huang, Sidiropoulos & Liavas, IEEE TSP 2016): a caller forms them once
from data it holds, and no step sees Xbar.  The fit's loop forms
G = W^T W + xi Wp^T Wp and C = W^T X + xi Wp^T Y[:, :T] from the inputs it
shares, so no stacked copy [X; sqrt(xi) Y] is made.  Each code step takes
one problem: a (k, T) code with its (k, k) Gram and (k, T) cross term
(:func:`_one_problem`).

Code steps return codes, not scores: the driver that keeps a code scores
it, the loop here and :func:`~freqfact.forecast.encode_new` alike, from its
normal-equation terms (:class:`_FitSide`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError, SingularGramError
from .regularization import Penalty, band_offmask_ratio, penalty_prox, penalty_value
from .spectral import FrequencyMask, project_frequency_mask

__all__ = [
    "SolveReport",
    "Hyper",
    "FactorModel",
    "objective",
    "solve_W",
    "solve_H_prox",
    "ssnmf_bcd",
    "three_operator_splitting",
    "code_step",
    "ssnmf_hard",
]

# Relative eigenvalue floor below which a Gram matrix counts as singular.
_GRAM_RTOL = 1e-13

# The prox step's ADMM measures its residuals every _ADMM_CHECK iterations
# and stops once both are within _ADMM_RTOL of their scales; otherwise
# residual balancing scales rho by _ADMM_TAU when one relative residual
# exceeds the other _ADMM_MU times.  A looser stopping tolerance is checked
# every _ADMM_STOP_CHECK iterations, while balancing keeps its cadence.
_ADMM_CHECK = 20
_ADMM_STOP_CHECK = 5
_ADMM_RTOL = 1e-10
_ADMM_MU = 5.0
_ADMM_TAU = 2.0

# A convex fit's code step k stops at the relative residual
# clamp(_CODE_RTOL_KAPPA * code_change[k - 1], _ADMM_RTOL, _CODE_RTOL_MAX),
# loose while the code still moves and exact once it settles.
_CODE_RTOL_KAPPA = 0.1
_CODE_RTOL_MAX = 1e-2

# The fit's loop scores a squared residual exactly, not in Gram form, at or
# below this fraction of ||X||_F^2, where cancellation costs the form digits.
_GRAM_EXACT_BELOW = 1e-2


@dataclass
class SolveReport:
    """Per-run record: objective per outer iteration of a fit or per encode
    (a code step's stays empty), step sizes used, termination cause, and
    solver-specific extras."""

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
    return float(_score(h.xi, _fit_terms(x, model.W, model.H, h.lambda1),
                        _fit_terms(y[:, :T], model.Wp, model.H, h.lambda2),
                        penalty_value(model.H, h.penalty)))


def _sq_residual(x: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    """||X - W H||_F^2, formed in the one buffer that W H needs.

    Equal bit for bit to ``np.sum((x - w @ h) ** 2)`` for a row-major X, at
    a third of its transient memory.  The exact rule: :func:`objective` uses
    it, and the fit's loop and the encode where a Gram-form residual would
    lose digits (:class:`_FitSide`).
    """
    r = w @ h
    np.subtract(x, r, out=r)
    np.square(r, out=r)
    return float(np.sum(r))


def _fit_terms(x: np.ndarray, w: np.ndarray, h: np.ndarray, ridge: float):
    """One dictionary's terms of the smooth objective:
    (||X - W H||_F^2, ridge ||W||_F^2), the second 0.0 when ridge is 0."""
    return _sq_residual(x, w, h), ridge * float(np.sum(w**2)) if ridge else 0.0


class _FitSide:
    """One dictionary's share of a fit: data X, dictionary W, its ridge, and
    the terms W^T W and W^T X that the code step's G and C sum.

    :meth:`terms` gives a code H's :func:`_fit_terms` with the residual in
    Gram form, ||X||^2 - 2 <W^T X, H> + <W^T W, H H^T>, with ||X||^2 taken
    once, as HALS and AO-ADMM track the NMF error (Gillis & Glineur, Neural
    Comput. 2012).  The form holds for any W, a kept dead-atom column too,
    and loses up to about 5e-15 ||X||^2 to cancellation, so a value not
    above ``_GRAM_EXACT_BELOW`` ||X||^2 is scored by :func:`_sq_residual`.
    Sides of one X may share its ``xx``, ||X||^2, taken once.
    """

    def __init__(self, x, w, ridge, xx=None):
        self.x, self.ridge = x, ridge
        self.xx = float(np.einsum("ij,ij->", x, x)) if xx is None else xx
        self.set(w)

    def set(self, w):
        self.w, self.wtw, self.wtx = w, w.T @ w, w.T @ self.x
        self.ridge_sq = self.ridge * float(np.sum(w**2)) if self.ridge else 0.0

    def terms(self, h):
        sq = (self.xx - 2.0 * float(np.einsum("ij,ij->", self.wtx, h))
              + float(np.einsum("ij,ij->", self.wtw, h @ h.T)))
        if not sq > _GRAM_EXACT_BELOW * self.xx:  # also NaN
            sq = _sq_residual(self.x, self.w, h)
        return sq, self.ridge_sq


def _score(xi: float, fx, fy, pen: float) -> float:
    """The objective from the data's and the auxiliary data's
    :func:`_fit_terms` and a penalty term.  A zero ridge's 0.0 leaves the
    sum's bits as they are: the sum is >= +0, NaN or inf."""
    return fx[0] + xi * fy[0] + fx[1] + fy[1] + pen


def _scored_penalty(h: np.ndarray, p: Penalty) -> float:
    """The penalty term a fit scores: a convex penalty's value, and 0 for a
    hard band, whose steps return codes on it up to rounding
    (:func:`objective` reads the band as an indicator, +inf off it)."""
    return 0.0 if p.kind == "hard_freq" else penalty_value(h, p)


def solve_W(x: np.ndarray, h: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Exact minimizer of ||X - W H||_F^2 + ridge ||W||_F^2.

    W = X H^T (H H^T + ridge I)^{-1}.  With ridge = 0, a Gram H H^T whose
    smallest eigenvalue is at most ``_GRAM_RTOL`` times its largest, or whose
    largest is not positive, raises :class:`SingularGramError` (giving the
    eigenvalue range) rather than silently falling back to a pseudo-inverse.
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
            raise SingularGramError(f"code Gram matrix is singular (eigenvalue range "
                                    f"[{evals[0]:.3e}, {evals[-1]:.3e}]); pass ridge > 0 or "
                                    "re-initialize")
    return np.linalg.solve(gram, h @ x.T).T


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


def _dictionary_step(x, h, w, ridge):
    """Exact dictionary step that keeps the column of a dead atom, one whose
    code row has squared norm at most ``_GRAM_RTOL`` times the largest.

    A prox code step zeroes a whole row where the penalty outweighs the
    atom's fit.  With ridge = 0 that column barely enters the fit, and
    :func:`solve_W` would find the Gram singular: its smallest eigenvalue is
    at most that row's squared norm, its largest at least the largest one.
    Keeping the column, and solving the others exactly against what its
    atom leaves of X, is still a descent step and lets a later code step
    revive the atom.
    """
    sq = np.einsum("ij,ij->i", h, h)
    top = sq.max()
    # a non-finite H fails the caller's finite check; keep its W non-finite too
    live = sq > _GRAM_RTOL * top if np.isfinite(top) else np.any(h != 0.0, axis=1)
    if ridge or live.all():
        return solve_W(x, h, ridge)
    w = w.copy()
    if live.any():
        dead = ~live
        if h[dead].any():
            x = x - w[:, dead] @ h[dead]
        w[:, live] = solve_W(x, h[live])
    return w


def _require_finite(solver: str, it: int, **values) -> None:
    """Raise :class:`ConvergenceError` naming the solver, the (1-based) outer
    iteration and each named value that is not finite."""
    bad = [name for name, v in values.items() if not np.all(np.isfinite(v))]
    if bad:
        raise ConvergenceError(
            f"{solver}: non-finite {', '.join(bad)} at outer iteration {it + 1}")


def _bcd_loop(solver, x, y, hyper, n_iters, sub_iters, seed, tol, step):
    """The block-coordinate cycle both drivers run.

    Each outer iteration runs ``step`` (see :func:`code_step`) on the
    normal-equation terms G = W^T W + xi Wp^T Wp and C = W^T X +
    xi Wp^T Y[:, :T], formed from the inputs the loop reads and never
    copies, then exact dictionary steps for W on X and for Wp on Y[:, :T]
    (:func:`_dictionary_step`), and checks every value is finite.  Every
    fit records the same things: ``initial_objective``,
    ``phase_objectives`` (after the H, W and Wp steps; the last one is
    traced and tested against ``tol``, first against the initial one), the
    code step's first step size, ``h_min_trace``, ``code_iters`` (the
    iterations the code step ran), ``code_change`` (the successive
    difference ||H_k - H_{k-1}||_F / ||H_k||_F, with H_{-1} the initial
    code) and any ``offmask_after_projection`` the step reports.  Objectives
    are :class:`_FitSide`'s Gram-form terms plus :func:`_scored_penalty`,
    each computed once per phase in which it changes; a dictionary's new
    W^T W and W^T X score it and form the next cycle's G and C.

    A convex penalty's code step stops at a tolerance tied to the outer
    progress, clamp(_CODE_RTOL_KAPPA * code_change[k - 1], _ADMM_RTOL,
    _CODE_RTOL_MAX), with code_change[-1] = 1: loose while the code moves
    (Huang, Sidiropoulos & Liavas, IEEE TSP 2016, run AO-ADMM's inner loop
    so), exact once code_change falls below _ADMM_RTOL / _CODE_RTOL_KAPPA,
    the successive difference that Xu & Yin (SIAM J. Imaging Sci. 2013)
    drive to zero.  A code that raises the objective above the last outer
    one is dropped for the old code, whose change is then 0, so the next
    step is exact and the objective trace never increases; ``tol`` does not
    stop the fit at a dropped loose step.  A hard band's steps are exact
    and take no tolerance.  Overflow is reported once, by the finite checks,
    not by numpy warnings.
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
        convex = hyper.penalty.kind != "hard_freq"

        w, wp, h = _init_factors(x, y_t, hyper, seed)
        fit, aux = _FitSide(x, w, hyper.lambda1), _FitSide(y_t, wp, hyper.lambda2)
        terms = fit.terms(h), aux.terms(h), _scored_penalty(h, hyper.penalty)
        prev = _score(hyper.xi, *terms)
        extras = {"initial_objective": prev, "phase_objectives": [], "h_min_trace": [],
                  "code_iters": [], "code_change": []}
        report = SolveReport(extras=extras)
        change = 1.0
        for it in range(n_iters):
            rtol = min(max(_CODE_RTOL_KAPPA * change, _ADMM_RTOL), _CODE_RTOL_MAX)
            gram = fit.wtw + hyper.xi * aux.wtw
            cross = fit.wtx + hyper.xi * aux.wtx
            h_new, sub = step(gram, cross, h, sub_iters, **({"rtol": rtol} if convex else {}))
            new_terms = fit.terms(h_new), aux.terms(h_new), _scored_penalty(h_new, hyper.penalty)
            dropped = convex and prev < _score(hyper.xi, *new_terms) < math.inf
            if dropped:
                change = 0.0
            else:
                h, terms, change = h_new, new_terms, _relative_change(h_new, h)
            fit.set(_dictionary_step(x, h, fit.w, hyper.lambda1))
            aux.set(_dictionary_step(y_t, h, aux.w, hyper.lambda2))
            _require_finite(solver, it, H=h, W=fit.w, Wp=aux.w)
            fx, fy, pen = terms
            terms = fit.terms(h), aux.terms(h), pen
            phases = [_score(hyper.xi, fx, fy, pen), _score(hyper.xi, terms[0], fy, pen),
                      _score(hyper.xi, *terms)]
            _require_finite(solver, it, objective=phases)
            extras["phase_objectives"].append(phases)
            val = phases[-1]
            report.objective_trace.append(val)
            report.step_trace.append(sub.step_trace[0])
            extras["h_min_trace"].append(float(h.min()))
            extras["code_iters"].append(sub.wall_iters)
            extras["code_change"].append(change)
            if "offmask_after_projection" in sub.extras:
                extras.setdefault("offmask_after_projection", []).extend(
                    sub.extras["offmask_after_projection"])
            report.wall_iters = it + 1
            # a dropped loose step is no sign of convergence
            if (tol is not None and abs(val - prev) / max(1.0, abs(prev)) < tol
                    and not (dropped and rtol > _ADMM_RTOL)):
                report.terminated = "tol_reached"
                break
            prev = val
    return FactorModel(fit.w, aux.w, h, hyper), report


def _relative_change(h: np.ndarray, h_old: np.ndarray) -> float:
    """||H - H_old||_F / ||H||_F; 1 for a zero H that moved, 0 for one that
    did not."""
    diff, norm = float(np.linalg.norm(h - h_old)), float(np.linalg.norm(h))
    return diff / norm if norm > 0.0 else float(diff > 0.0)


def ssnmf_bcd(
    x: np.ndarray,
    y: np.ndarray,
    hyper: Hyper,
    n_iters: int,
    sub_iters: int = 50,
    seed: int = 0,
    nonneg: bool = True,
    tol: float | None = None,
) -> tuple[FactorModel, SolveReport]:
    """Block-coordinate descent for the supervised factorization with a
    convex weighted penalty (ridge / lasso / soft_freq).

    Each outer iteration solves the code step of the supervised fit
    ||X - W H||_F^2 + xi ||Y[:, :T] - Wp H||_F^2 + penalty(H) via
    :func:`solve_H_prox` on its normal-equation terms (at most ``sub_iters``
    iterations, warm-started at the last code; ``nonneg=False`` drops the
    H >= 0 constraint), then takes exact dictionary steps for W on X and
    for Wp on Y[:, :T].  The report's objective trace holds the full
    objective after each cycle; ``extras["phase_objectives"]`` holds
    [after_H, after_W, after_Wp] triplets (see :func:`_bcd_loop`).

    A hard_freq penalty raises ValueError: :func:`ssnmf_hard` fits a band.
    """
    if hyper.penalty.kind == "hard_freq":
        raise ValueError("ssnmf_bcd fits a convex penalty (ridge | lasso | soft_freq); "
                         "fit a hard_freq band with ssnmf_hard")
    _, step = code_step(hyper.penalty, nonneg=nonneg)
    return _bcd_loop("ssnmf_bcd", x, y, hyper, n_iters, sub_iters, seed, tol, step)


def three_operator_splitting(
    grad_f,
    mask: FrequencyMask,
    y0: np.ndarray,
    n_iters: int,
    gamma0: float = 1.0,
) -> tuple[np.ndarray, SolveReport]:
    """Splitting iteration for min f over {H >= 0} intersect {mask set}, in
    the paper's reference form; the code steps solve this problem with
    :func:`solve_H_prox` instead.

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

    ``gamma0`` must be on the scale of 1/L, L the Lipschitz constant of
    ``grad_f``: the default 1.0 overshoots when L >> 1, and the later steps,
    which only shrink, do not recover.
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


def _one_problem(gram, cross, h0):
    """The float (G, C, H0) of one code step's problem: a (k, T) code ``h0``
    with its (k, k) Gram ``gram`` and (k, T) cross term ``cross``.  Anything
    else, a sequence of them included, raises ValueError naming the shapes."""
    terms = [a if isinstance(a, (list, tuple)) else np.asarray(a, dtype=float)
             for a in (gram, cross, h0)]
    gram, cross, h0 = terms
    if (any(isinstance(a, (list, tuple)) for a in terms) or h0.ndim != 2
            or gram.shape != (len(h0),) * 2 or cross.shape != h0.shape):
        shapes = [f"a sequence of {len(a)}" if isinstance(a, (list, tuple)) else a.shape
                  for a in terms]
        raise ValueError(f"a code step takes one (k, T) code with its (k, k) Gram and (k, T) "
                         f"cross term; got Gram {shapes[0]}, cross term {shapes[1]} and code "
                         f"{shapes[2]}")
    return gram, cross, h0


def _gram_eig(gram: np.ndarray, two_c: np.ndarray):
    """(lambda, Q, Q^T 2 C) with 2 G = Q diag(lambda) Q^T, lambda ascending;
    all NaN for a non-finite Gram, which the callers' finite checks report."""
    if not np.all(np.isfinite(gram)):
        return np.full(len(gram), np.nan), np.full_like(gram, np.nan), np.full_like(two_c, np.nan)
    lam, q = np.linalg.eigh(2.0 * gram)
    return lam, q, q.T @ two_c


def _h_step(eig, rho: float, n_z: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, b) of the prox step's H-step H = M W + b at penalty parameter
    ``rho``: M = rho A^{-1} and b = A^{-1} 2 C with A = 2 G + n_z rho I,
    from :func:`_gram_eig`'s decomposition."""
    lam, q, qc = eig
    d = 1.0 / (lam + n_z * rho)
    return (q * (rho * d)) @ q.T, (q * d) @ qc


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of a (k, T) matrix, or of each of a stack,
    each summed over its k T entries as one row."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return (flat * flat).sum(axis=-1)


def solve_H_prox(
    gram: np.ndarray,
    cross: np.ndarray,
    h0: np.ndarray,
    p: Penalty,
    n_iters: int,
    nonneg: bool = True,
    rtol: float = _ADMM_RTOL,
) -> tuple[np.ndarray, SolveReport]:
    """Consensus ADMM on the code subproblem of a convex penalty

        min_{H >= 0}  ||Xbar - Wbar H||_F^2 + penalty(H)

    as min f(H) + i(Z1) + penalty(Z2) subject to H = Z1 = Z2, with f the
    fit, i the indicator of Z1 >= 0 and the penalty's exact prox
    (:func:`~freqfact.regularization.penalty_prox`: ridge, lasso or
    soft_freq; a hard_freq band raises ValueError, as its steps are in
    :mod:`freqfact.band`): the inner loop of AO-ADMM (Huang,
    Sidiropoulos & Liavas, IEEE TSP 2016).  From Z1 = Z2 = max(h0, 0) and
    zero scaled duals U1, U2 it iterates

        H  = (2 G + 2 rho I)^{-1} (2 C + rho (Z1 - U1 + Z2 - U2))
        Z1 = max(H + U1, 0);  Z2 = prox_{penalty / rho}(H + U2)
        U1 += H - Z1;  U2 += H - Z2

    with G = Wbar^T Wbar and C = Wbar^T Xbar, the ``gram`` and ``cross`` the
    call passes, through one eigendecomposition of 2 G that gives the k x k
    inverse again whenever rho changes.
    ``nonneg=False`` drops Z1 (and the 2 of 2 rho I).  rho starts at
    L = 2 ||G||_2, the Lipschitz constant of grad f, so the first prox steps
    1/rho are those of a proximal gradient step.  Every ``_ADMM_CHECK``
    iterations, and at the last, the loop measures the primal residual
    ||(H - Z1, H - Z2)||_F and the dual residual rho ||d(Z1 + Z2)||_F
    (Boyd et al., FnT ML 2011, section 3.3), each relative to its scale:
    the larger of sqrt(2) ||H||_F and ||2 C||_F / L, and the larger of
    ||rho (U1 + U2)||_F and ||2 C||_F (the floors hold where the optimum is
    H = 0).  It stops once both are within ``rtol`` (``_ADMM_RTOL`` by
    default); otherwise, when one exceeds the other ``_ADMM_MU`` times, it
    scales rho by ``_ADMM_TAU`` toward balance (residual balancing, section
    3.4.1).  A looser ``rtol`` is checked every ``_ADMM_STOP_CHECK``
    iterations, and balancing keeps its cadence, so a step at the default
    runs as it would without one.  ``n_iters`` caps the iterations.

    It returns Z2 where Z1 is positive and 0 elsewhere, clipped at 0: exactly
    nonnegative, with the exact zeros of both splits (the orthant's and a
    lasso's or a dead atom's); without the orthant, Z2.  The report holds
    ``wall_iters`` (the iterations run), the step 1/rho of each of them,
    ``terminated`` ("tol_reached" or "max_iters") and, in ``extras``, the
    last ``primal_residual``, ``dual_residual`` and ``rho``.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    gram, cross, h0 = _one_problem(gram, cross, h0)
    z0 = h0.copy(order="C")  # the loop's first Z, and the returned code
    two_c = 2.0 * cross
    n_z = 2 if nonneg else 1
    eig = _gram_eig(gram, two_c)
    rho = lip = float(eig[0][-1]) if eig[0][-1] > 0.0 else 1.0  # L, or 1 for G = 0
    mat, offset = _h_step(eig, rho, n_z)
    # the scales' floors: ||2 C||, the gradient at H = 0, and ||2 C|| / L
    grad0 = math.sqrt(_sq_norms(two_c))
    code0 = grad0 / lip
    if nonneg:
        np.maximum(z0, 0.0, out=z0)
    # W = sum_i (Zi - Ui) drives the H-step.  With V = H + U, the orthant
    # gives U1 = min(V1, 0) and Z1 - U1 = |V1|.
    u = np.zeros((n_z,) + z0.shape)  # the scaled duals [U1, U2], or [U2]
    u1, u2 = u[0] if nonneg else None, u[-1]
    w = n_z * z0
    h = np.empty_like(z0)
    steps, last_check = [], 0
    every = _ADMM_CHECK if rtol <= _ADMM_RTOL else _ADMM_STOP_CHECK
    for it in range(n_iters):
        check = (it + 1) % every == 0 or it == n_iters - 1
        if check:
            du, dz = u.copy(), w.copy()
        np.matmul(mat, w, out=h)
        h += offset
        if nonneg:
            u1 += h
            if check:  # H + U1 > 0, the returned code's support at the last one
                kept = u1 > 0.0
            np.abs(u1, out=w)
            np.minimum(u1, 0.0, out=u1)
        u2 += h
        z2 = penalty_prox(u2, p, 1.0 / rho)
        u2 -= z2
        if nonneg:
            w += z2
            w -= u2
        else:
            np.subtract(z2, u2, out=w)
        if not check:
            continue
        # dUi (= H - Zi) and dW + sum dUi (= d(Z1 + Z2)), in the copies
        np.subtract(u, du, out=du)
        np.subtract(w, dz, out=dz)
        for dui in du:
            dz += dui
        sq_du = _sq_norms(du).tolist()
        sq_dz, sq_h = float(_sq_norms(dz)), float(_sq_norms(h))
        sq_u = float(_sq_norms(np.add(u2, u1, out=du[0]) if nonneg else u2))  # sum Ui
        steps.extend([1.0 / rho] * (it + 1 - last_check))
        last_check = it + 1
        primal, dual = math.sqrt(sum(sq_du)), rho * math.sqrt(sq_dz)
        rel_p = primal / max(math.sqrt(n_z * sq_h), code0, 1e-300)
        rel_d = dual / max(rho * math.sqrt(sq_u), grad0, 1e-300)
        done = rel_p <= rtol and rel_d <= rtol
        if done or it == n_iters - 1:
            break
        if (it + 1) % _ADMM_CHECK == 0 and (rel_p > _ADMM_MU * rel_d
                                            or rel_d > _ADMM_MU * rel_p):
            factor = _ADMM_TAU if rel_p > rel_d else 1.0 / _ADMM_TAU
            # the scaled duals U = y / rho shrink as rho grows; W keeps Z1 + Z2
            w += u.sum(axis=0) * (1.0 - 1.0 / factor)
            u /= factor
            rho *= factor
            mat, offset = _h_step(eig, rho, n_z)
    if nonneg:
        # Z2 where Z1 = max(H + U1, 0) is positive, else 0
        z2 *= kept
        np.maximum(z2, 0.0, out=z2)
    # the code goes into z0, made before the loop: returning z2, made in it,
    # raised large_sweep's fresh-process factorize peak RSS by about 0.75 MB
    z0[...] = z2
    return z0, SolveReport(
        step_trace=steps, terminated="tol_reached" if done else "max_iters", wall_iters=it + 1,
        extras={"primal_residual": primal, "dual_residual": dual, "rho": rho})


def code_step(
    p: Penalty,
    *,
    priority: str = "nonneg",
    nonneg: bool = True,
):
    """Pick the code solver for penalty ``p``; returns ``(name, step)``.

    ``step(gram, cross, h0, iters) -> (h, SolveReport)`` runs the chosen
    solver on min ||Xbar - Wbar H||_F^2 + p(H), seen through its terms
    G = Wbar^T Wbar and C = Wbar^T Xbar, warm-started at ``h0``.  The
    penalty alone decides.  An adaptive top-R band (hard_freq without a
    fixed mask) is not convex and runs "heuristic": :func:`band_pursuit`
    with ``p.R``, at most ``iters`` rounds.  Every other penalty runs
    "prox": a fixed mask one exact :func:`solve_H_band` (``iters`` unused),
    ridge, lasso and soft_freq :func:`solve_H_prox`, at most ``iters``
    iterations, as it stops on its residuals; that ``step`` also takes its
    ``rtol``.  ``nonneg`` goes to the prox step; a band's codes are always
    nonnegative.  ``priority`` ("nonneg" or "frequency") is checked and
    otherwise unused: a band's codes are nonnegative and in band at once,
    so neither projection comes last.  Every ``step`` takes one (k, T) code
    with its (k, k) Gram and (k, T) cross term.
    """
    from .band import band_pursuit, solve_H_band  # band imports this module

    if priority not in ("nonneg", "frequency"):
        raise ValueError(f"priority must be 'nonneg' or 'frequency', got {priority!r}")
    if p.kind == "hard_freq" and p.mask is None:
        return "heuristic", lambda gram, cross, h, iters: band_pursuit(gram, cross, h, p.R, iters)
    if p.kind == "hard_freq":
        return "prox", lambda gram, cross, h, iters: solve_H_band(gram, cross, h, p.mask)
    return "prox", lambda gram, cross, h, iters, rtol=_ADMM_RTOL: solve_H_prox(
        gram, cross, h, p, iters, nonneg, rtol=rtol)


def ssnmf_hard(
    x: np.ndarray,
    y: np.ndarray,
    hyper: Hyper,
    R: int | None,
    n_iters: int,
    seed: int = 0,
    sub_iters: int = 50,
    priority: str = "nonneg",
    tol: float | None = None,
) -> tuple[FactorModel, SolveReport]:
    """Block-coordinate descent with the hard frequency constraint on H.

    The band is ``hyper.penalty``'s, with ``R``, when given, in place of its
    R; its fixed mask, if any, wins over R.  The code step follows the band
    (see :func:`code_step`): a fixed mask (a conjugate-closed set, which the
    caller supplies per series length) runs one exact band solve
    (:func:`~freqfact.band.solve_H_band`), an adaptive top-R band pursuit
    (:func:`~freqfact.band.band_pursuit`, at most ``sub_iters`` rounds),
    with supports recomputed per row from the top-R spectrum of a gradient
    step.  ``extras["variant"]`` names the step ("prox" or "heuristic");
    ``priority`` is checked and unused.  Dictionary steps are the exact
    normal equations.

    The report holds what :func:`ssnmf_bcd`'s holds (see :func:`_bcd_loop`),
    with objectives that score the smooth part (fit + ridge terms) alone.
    The indicator is tracked through the off-mask extras: pursuit's
    ``offmask_after_projection``, one per exact solve, and
    ``offmask_final``, the returned H's largest per-row off-band ratio.
    Both steps return codes on their band up to rounding, so
    :func:`objective` of the fit is finite.

    A penalty other than hard_freq raises ValueError: :func:`ssnmf_bcd` fits
    a convex penalty.
    """
    if hyper.penalty.kind != "hard_freq":
        raise ValueError("ssnmf_hard fits a hard_freq band; fit a convex penalty "
                         "(ridge | lasso | soft_freq) with ssnmf_bcd")
    band = Penalty.hard_freq(R if R is not None else hyper.penalty.R, hyper.penalty.mask)
    variant, step = code_step(band, priority=priority)
    model, report = _bcd_loop("ssnmf_hard", x, y, hyper, n_iters, sub_iters, seed, tol, step)
    report.extras.update(variant=variant,
                         offmask_final=float(band_offmask_ratio(model.H, band).max()))
    return model, report
