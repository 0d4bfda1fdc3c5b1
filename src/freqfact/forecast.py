"""Encode / slice / predict pipeline, the NSE score, and the atom-removal
scan.

Encoding fits a nonnegative code for the full-period auxiliary data against
the learned auxiliary dictionary; the trailing columns of that code drive the
prediction of the main data over the test period.  Encoding always uses the
entire auxiliary period: a code fit only on the short test window cannot
carry frequencies longer than that window.
"""

from dataclasses import dataclass, replace

import numpy as np

from .regularization import Penalty
from .solvers import FactorModel, SolveReport, _require_finite, code_step
from .tensor import SpatioTemporalTensor, fold

__all__ = [
    "EncodeConfig",
    "encode_new",
    "predict",
    "nse",
    "ScanEntry",
    "atom_removal_scan",
]


@dataclass(frozen=True)
class EncodeConfig:
    """Encoding solver configuration.

    Encoding runs ``sweeps`` warm-started rounds of ``sub_iters`` code-step
    iterations; restarting the subgradient step schedule each round restores
    large steps and gives fast convergence on the smooth part while every
    individual round still satisfies the diminishing-step conditions.  The
    splitting solver ("tos") instead runs one round of ``sweeps * sub_iters``
    iterations, so its ergodic average spans the whole run.  ``variant`` and
    ``R`` override the penalty's code solver and top-R count (see
    :func:`~freqfact.solvers.code_step`).
    """

    sweeps: int = 60
    sub_iters: int = 50
    seed: int = 0
    variant: str | None = None
    R: int | None = None


def encode_new(
    y_full: np.ndarray,
    wp: np.ndarray,
    penalty: Penalty,
    lam_over_xi: float,
    config: EncodeConfig | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Nonnegative penalized code for the full-period auxiliary data:

        argmin_{H >= 0}  ||Y_full - Wp H||_F^2 + (lam/xi) * psi(H)

    The penalty weight is ``lam_over_xi`` regardless of the weight stored in
    ``penalty``.  Output is elementwise nonnegative.  The report holds the
    objective of the last iterate of each round; a non-finite code or
    objective raises :class:`~freqfact.exceptions.ConvergenceError` naming
    the round.
    """
    y_full = np.asarray(y_full, dtype=float)
    wp = np.asarray(wp, dtype=float)
    if lam_over_xi < 0:
        raise ValueError("lam_over_xi must be nonnegative")
    config = config or EncodeConfig()
    r = wp.shape[1]
    rng = np.random.default_rng(config.seed)
    h = np.abs(rng.standard_normal((r, y_full.shape[1])))
    variant, step = code_step(replace(penalty, lam=lam_over_xi), config.variant, config.R)
    rounds, iters = config.sweeps, config.sub_iters
    if variant == "tos":
        rounds, iters = 1, rounds * iters
    report = SolveReport(wall_iters=rounds * iters)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(rounds):
            h, sub = step(y_full, wp, h, iters)
            _require_finite("encode_new", it, H=h, objective=sub.objective_trace[-1])
            report.objective_trace.append(sub.objective_trace[-1])
            report.step_trace.append(sub.step_trace[0])
    return h, report


def predict(w: np.ndarray, h_new: np.ndarray, A: int, B: int) -> SpatioTemporalTensor:
    """Fold W @ H_new back into an (A, B, T_new) tensor."""
    w = np.asarray(w, dtype=float)
    h_new = np.asarray(h_new, dtype=float)
    if w.shape[1] != h_new.shape[0]:
        raise ValueError(f"W has {w.shape[1]} atoms, H_new has {h_new.shape[0]} rows")
    return fold(w @ h_new, A, B)


def nse(x_true: np.ndarray, x_rec: np.ndarray) -> float:
    """Nash-Sutcliffe efficiency of the spatial-average series.

    1 - sum_t (m_t - mrec_t)^2 / sum_t (m_t - mean(m))^2 with m the spatial
    average of the truth per time step.  1 is a perfect match, 0 matches the
    temporal-mean predictor, and the score is unbounded below.  Squared
    residuals throughout; the stated range only holds for the squared form.
    """
    x_true = np.asarray(x_true, dtype=float)
    x_rec = np.asarray(x_rec, dtype=float)
    if x_true.shape != x_rec.shape:
        raise ValueError(f"shape mismatch: {x_true.shape} vs {x_rec.shape}")
    if x_true.shape[1] < 2:
        raise ValueError("need at least two time columns")
    m = x_true.mean(axis=0)
    mrec = x_rec.mean(axis=0)
    den = float(np.sum((m - m.mean()) ** 2))
    if den == 0.0:
        raise ValueError("spatial-average series is constant; NSE undefined")
    num = float(np.sum((m - mrec) ** 2))
    return 1.0 - num / den


@dataclass(frozen=True)
class ScanEntry:
    """One scan row; ``atom is None`` marks the no-removal baseline."""

    atom: int | None
    nse_after: float
    delta: float


def atom_removal_scan(
    model: FactorModel,
    x_full: np.ndarray,
    y_full: np.ndarray,
    penalty: Penalty,
    lam_over_xi: float = 0.0,
    config: EncodeConfig | None = None,
) -> list[ScanEntry]:
    """Score removing each single atom.

    For every atom: drop that column from both dictionaries (and that row
    from a fixed frequency mask in ``penalty``), re-encode the
    full-period auxiliary data with the reduced dictionary (the dropped
    atom's explanatory burden must be redistributed, so re-encoding rather
    than just deleting a code row), predict the test period, score NSE
    against the truth.  Returns the baseline entry first, then atoms sorted
    by descending NSE.  Needs r >= 2; with one atom there is nothing to
    remove.
    """
    if model.hyper.r < 2:
        raise ValueError("atom removal needs at least two atoms")
    x_full = np.asarray(x_full, dtype=float)
    y_full = np.asarray(y_full, dtype=float)
    T = model.H.shape[1]
    if x_full.shape[1] <= T + 1:
        raise ValueError("truth must extend at least two columns past the training period")

    def score(w, wp, pen):
        h_new_full, _ = encode_new(y_full, wp, pen, lam_over_xi, config)
        pred = w @ h_new_full[:, T:]
        return nse(x_full[:, T:], pred)

    baseline = score(model.W, model.Wp, penalty)
    entries = []
    for s in range(model.hyper.r):
        w_red = np.delete(model.W, s, axis=1)
        wp_red = np.delete(model.Wp, s, axis=1)
        pen_red = penalty
        if penalty.mask is not None:
            pen_red = replace(penalty, mask=penalty.mask.without_row(s))
        val = score(w_red, wp_red, pen_red)
        entries.append(ScanEntry(s, val, val - baseline))
    entries.sort(key=lambda e: -e.nse_after)
    return [ScanEntry(None, baseline, 0.0)] + entries
