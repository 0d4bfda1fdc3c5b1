"""Exact code steps for a hard frequency band.

A code whose row s keeps the ``rfft`` bins of a band is c_s B_s, with B_s
the orthonormal real cos/sin basis of those bins, so the fit's code step on
a fixed band is a strictly convex quadratic program in the coefficients c,
under one nonnegativity constraint per code entry.

* :func:`solve_H_band` - the code step of a fixed mask: one exact dual
  active-set solve of that program (Goldfarb & Idnani, Math. Programming
  27, 1983), which re-solves a small KKT system after each constraint it
  adds.
* :func:`band_pursuit` - the code step of an adaptive top-R band: hard
  thresholding pursuit (Foucart, SIAM J. Numer. Anal. 2011), a gradient
  step, each row's top-R support of its nonnegative part, and an exact
  solve on that support, until the support repeats.

Both return codes clipped at 0: exactly nonnegative, and in band to
rounding.  Like every code step they see the fit ||Xbar - Wbar H||_F^2 only
through its terms G = Wbar^T Wbar and C = Wbar^T Xbar.  They take one
problem, or sequences of B codes ``(k_b, T)``, Grams ``(k_b, k_b)`` and
cross terms ``(k_b, T)`` solved one after another, each block equal bit for
bit to a separate 2-D call.  A singular dictionary Gram is floored at a
stated ridge (:func:`_floored_gram`).  :func:`~freqfact.solvers.code_step`
dispatches to them.
"""

import math

import numpy as np

from .exceptions import ConvergenceError
from .solvers import SolveReport, _Blocks
from .spectral import FrequencyMask, half_offmask_ratio, top_r_keep

__all__ = ["solve_H_band", "band_pursuit"]

# The band solve counts a code entry below -_BAND_TOL max|H_0|, with H_0 the
# unconstrained minimizer, as a violated constraint, and a constraint whose
# normal keeps less than _BAND_DEP_RTOL of its norm outside its row's active
# ones' span as dependent on them.  It stops after _BAND_MAX_ITERS (n + 1)
# constraints for n band coefficients.
_BAND_TOL = 1e-13
_BAND_DEP_RTOL = 1e-10
_BAND_MAX_ITERS = 20

# Band steps floor the dictionary Gram's eigenvalues at _BAND_RIDGE times its
# largest (see _floored_gram).
_BAND_RIDGE = 1e-10


def _band_basis(T: int, bins: np.ndarray) -> np.ndarray:
    """The (n, T) orthonormal real basis of the rows whose ``rfft`` lives on
    ``bins`` (indices in 0..T//2): one cos row per bin and one sin row per
    interior bin (neither DC nor Nyquist).  Phases are reduced mod T before
    scaling, so DC and Nyquist rows are exact."""
    interior = (bins > 0) & (2 * bins != T)
    t = np.arange(T)
    cos = np.cos((2.0 * np.pi / T) * (np.outer(bins, t) % T))
    sin = np.sin((2.0 * np.pi / T) * (np.outer(bins[interior], t) % T))
    cos *= np.where(interior, math.sqrt(2.0 / T), math.sqrt(1.0 / T))[:, None]
    sin *= math.sqrt(2.0 / T)
    return np.concatenate((cos, sin))


def _floored_gram(gram: np.ndarray) -> np.ndarray:
    """A band solve's dictionary Gram ``Wbar^T Wbar`` with its eigenvalues
    floored at ``_BAND_RIDGE`` times the largest: ``gram`` plus a ridge of
    the floor less the smallest eigenvalue where that is positive.

    A singular Gram (a zero dictionary column, atoms whose columns are
    collinear, more atoms than dictionary rows) leaves many optimal codes;
    the ridge picks the smallest and keeps the band solve's system positive
    definite.  A zero Gram is returned as it is: every code fits alike, and
    the band steps return the smallest, 0.
    """
    evals = np.linalg.eigvalsh(gram)
    ridge = _BAND_RIDGE * evals[-1] - evals[0]
    return gram + ridge * np.eye(len(gram)) if ridge > 0.0 and evals[-1] > 0.0 else gram


def _band_solve(gram: np.ndarray, cross: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact minimizer of ||Xbar - Wbar H||_F^2 over the codes H >= 0 whose
    row s has its ``rfft`` on the bins ``keep[s]`` marks, from G = Wbar^T
    Wbar (positive definite) and C = Wbar^T Xbar; returns it, clipped at 0,
    and the KKT systems solved.

    Row s is c_s B_s with B_s its bins' :func:`_band_basis`, so the problem
    is the strictly convex QP min c^T Q c - 2 b^T c over B_s^T c_s >= 0,
    with blocks Q_ss' = G_ss' B_s B_s'^T and b_s = B_s C_s^T.  The dual
    active-set method of Goldfarb & Idnani (Math. Programming 27, 1983)
    solves it.  From the unconstrained minimizer it adds the most violated
    constraint, H[s, t] < -tol with tol ``_BAND_TOL`` times the largest
    entry of the unconstrained minimizer.  Before each addition it drops
    any active constraint whose multiplier would turn negative first.  After
    each addition it re-solves the KKT system of the active set.
    Constraints are read off H, formed row by row from c.  A constraint
    whose normal lies in the span of its row's active ones is 0 wherever
    they are, so it is never added: its violation is rounding.  A row within
    the tolerance of 0 is set to 0.
    """
    k, T = cross.shape
    bases = [_band_basis(T, np.flatnonzero(row)) for row in keep]
    owner = np.repeat(np.arange(k), [len(b) for b in bases])
    basis = np.concatenate(bases)
    rows_of = (owner == np.arange(k)[:, None]).astype(float)  # (k, n): H = rows_of @ (c B)
    n = len(basis)
    q = (basis @ basis.T) * gram[np.ix_(owner, owner)]
    b = np.einsum("it,it->i", basis, cross[owner])

    def normal(i):
        return np.where(owner == i // T, basis[:, i % T], 0.0)

    def kkt(active, rhs):
        # [[Q, N], [N^T, 0]] [x; mu] = [rhs; 0], N the active normals
        m = len(active)
        kmat = np.zeros((n + m, n + m))
        kmat[:n, :n] = q
        if m:
            kmat[:n, n:] = np.column_stack([normal(i) for i in active])
            kmat[n:, :n] = kmat[:n, n:].T
        sol = np.linalg.solve(kmat, np.concatenate((rhs, np.zeros(m))))
        return sol[:n], sol[n:]

    c = np.linalg.solve(q, b) if n else b
    h, solves = rows_of @ (c[:, None] * basis), 1
    if not np.all(np.isfinite(h)):  # an overflow ends in the callers' finite checks
        return h, solves
    # the tolerance scales with the unconstrained minimizer, whose size sets
    # the rounding of every later solve, even where the optimum is 0
    tol = _BAND_TOL * np.abs(h).max()
    active, u, settled = [], np.empty(0), []  # flat indices s T + t; multipliers
    for _ in range(_BAND_MAX_ITERS * (n + 1)):
        h.flat[active + settled] = 0.0  # 0 but for rounding
        p = int(h.argmin())
        if h.flat[p] >= -tol:
            break
        row = basis[owner == p // T]
        col, ts = row[:, p % T], [i % T for i in active if i // T == p // T]
        span = row[:, ts]
        resid = col - span @ np.linalg.lstsq(span, col, rcond=None)[0] if ts else col
        if np.linalg.norm(resid) <= _BAND_DEP_RTOL * np.linalg.norm(col):
            settled.append(p)
            continue
        a, slack = normal(p), h.flat[p]
        while True:
            # raising constraint p moves c along z and the multipliers along -r
            z, r = kkt(active, a)
            full = -slack / float(a @ z)
            ratios = np.divide(u, r, out=np.full(len(u), math.inf), where=r > 0.0)
            j = int(ratios.argmin()) if active else -1
            if full <= (ratios[j] if active else math.inf):
                active.append(p)
                c, mu = kkt(active, b)
                u = np.maximum(-mu, 0.0)
                break
            # a partial step: the blocking constraint j leaves the active set
            u = u - ratios[j] * r
            c = c + ratios[j] * z
            slack = float(a @ c)
            del active[j]
            u, settled = np.delete(u, j), []
        h, solves = rows_of @ (c[:, None] * basis), solves + 1
    else:
        raise ConvergenceError(f"band solve: active set not settled after {solves} KKT solves")
    h[np.abs(h).max(axis=1) <= tol] = 0.0
    return np.maximum(h, 0.0, out=h), solves


def _band_terms(blocks: _Blocks) -> list:
    """Per block of a band step: its G, floored by :func:`_floored_gram`, its
    C, and its code where none is solved for, else None: NaN for a
    non-finite G or C, which the callers' finite checks report, and 0 for a
    zero G, the smallest of the codes that all fit alike."""
    terms = []
    for gram, cross in zip(blocks.gram, blocks.cross):
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(cross))):
            terms.append((gram, cross, np.full(cross.shape, np.nan)))
        elif not gram.any():
            terms.append((gram, cross, np.zeros(cross.shape)))
        else:
            terms.append((_floored_gram(gram), cross, None))
    return terms


def solve_H_band(
    gram: np.ndarray,
    cross: np.ndarray,
    h0: np.ndarray,
    mask: FrequencyMask,
) -> tuple[np.ndarray, SolveReport | list[SolveReport]]:
    """Exact code step of a fixed band: the minimizer of
    ||Xbar - Wbar H||_F^2 over H >= 0 with each row's spectrum on its row of
    ``mask``, from its terms ``gram`` G = Wbar^T Wbar and ``cross``
    C = Wbar^T Xbar, by one dual active-set solve (see :func:`_band_solve`).

    ``h0`` gives the code's shape and is not a start.  The code is clipped
    at 0, exactly nonnegative and in band to rounding.  The report's
    ``wall_iters`` counts the KKT systems solved and ``step_trace`` holds
    one 0.0 (no gradient step).  A singular dictionary Gram is floored
    (:func:`_floored_gram`); a zero one gives the zero code and a
    non-finite one a NaN code, which the callers' finite checks report,
    each after 0 solves.

    Sequences of B codes ``h0`` (k_b, T), Grams (k_b, k_b) and cross terms
    (k_b, T) solve B independent problems, one after another; the mask then
    holds the blocks' rows in order.  It
    returns a list of B codes and a list of B reports, each the one a
    separate 2-D call returns.
    """
    blocks = _Blocks(h0, gram, cross)
    n_rows, T = blocks.rows.shape
    if mask.T != T:
        raise ValueError(f"mask is for T={mask.T}, H has {T} columns")
    if mask.rows != n_rows:
        raise ValueError(f"mask has {mask.rows} rows, H has {n_rows}")
    codes, reports = [], []
    for rows, (gram, cross, fixed) in zip(blocks.spans, _band_terms(blocks)):
        code, solves = _band_solve(gram, cross, mask.keep[rows]) if fixed is None else (fixed, 0)
        codes.append(code)
        reports.append(SolveReport(step_trace=[0.0], terminated="tol_reached",
                                   wall_iters=solves))
    return blocks.unpack(codes, reports)


def band_pursuit(
    gram: np.ndarray,
    cross: np.ndarray,
    h0: np.ndarray,
    R: int,
    n_rounds: int,
    *,
    _diagnostics: bool = True,
) -> tuple[np.ndarray, SolveReport | list[SolveReport]]:
    """Code step of an adaptive top-R band: hard thresholding pursuit
    (Foucart, SIAM J. Numer. Anal. 2011) on the exact band solve.

    Each round takes a gradient step on f(H) = ||Xbar - Wbar H||_F^2, seen
    through its terms ``gram`` G = Wbar^T Wbar and ``cross`` C = Wbar^T Xbar,
    at the rate 1/L, L = 2 ||G||_2, from the code, picks each row's R bins with
    :func:`~freqfact.spectral.top_r_keep` of the step clipped at 0, and
    solves exactly on that support (:func:`_band_solve`).  The clip keeps
    DC in every support (no bin of a nonnegative row outweighs it), without
    which a nonnegative band-limited row is 0.  It stops when a round picks
    the support the last one solved on ("tol_reached"), or after
    ``n_rounds`` rounds ("max_iters").  The code is the last solve's (the
    first round always solves), nonnegative and in its band to rounding.

    The report's ``wall_iters`` counts the rounds run and ``step_trace``
    holds the rate 1/L per round.  ``extras["offmask_after_projection"]``
    records each solve's largest per-row off-band ratio against its
    support; with ``_diagnostics=False`` it is not recorded.  A singular
    dictionary Gram is floored (:func:`_floored_gram`); a zero one gives the
    zero code and a non-finite one a NaN code, each after 0 rounds.

    Sequences of B codes, Grams and cross terms run B independent problems,
    one after another, each equal bit for bit to a separate 2-D call's.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    blocks = _Blocks(h0, gram, cross)
    T = blocks.rows.shape[1]
    codes, reports = [], []
    for rows, (gram, cross, fixed) in zip(blocks.spans, _band_terms(blocks)):
        report = SolveReport(extras={"offmask_after_projection": []} if _diagnostics else {})
        if fixed is not None:
            report.step_trace.append(0.0)
            report.terminated = "tol_reached"
            codes.append(fixed)
            reports.append(report)
            continue
        h, rate = blocks.rows[rows], 1.0 / (2.0 * float(np.linalg.norm(gram, 2)))
        support = None
        for it in range(n_rounds):
            report.step_trace.append(rate)
            step = gram @ h  # H - 2 rate (G H - C), clipped at 0
            step -= cross
            step *= -2.0 * rate
            step += h
            _, keep = top_r_keep(np.maximum(step, 0.0, out=step), R)
            if support is not None and np.array_equal(keep, support):
                report.terminated = "tol_reached"
                break
            h, support = _band_solve(gram, cross, keep)[0], keep
            if not np.all(np.isfinite(h)):
                break
            if _diagnostics:
                report.extras["offmask_after_projection"].append(
                    float(half_offmask_ratio(np.fft.rfft(h, axis=1), keep, T).max()))
        report.wall_iters = it + 1
        codes.append(h)
        reports.append(report)
    return blocks.unpack(codes, reports)
