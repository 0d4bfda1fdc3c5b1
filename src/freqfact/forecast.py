"""Encode / slice / predict pipeline, the NSE score, and the atom-removal
scan.

Encoding fits a nonnegative code for the full-period auxiliary data against
the learned auxiliary dictionary; the trailing columns of that code drive the
prediction of the main data over the test period.  Encoding always uses the
entire auxiliary period: a code fit only on the short test window cannot
carry frequencies longer than that window.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .regularization import Penalty
from .solvers import (
    FactorModel,
    SolveReport,
    StepSchedule,
    alternating_pgd,
    solve_H_pgd,
    three_operator_splitting,
)
from .spectral import FrequencyMask
from .tensor import SpatioTemporalTensor, fold

__all__ = [
    "EncodeConfig",
    "encode_new",
    "predict",
    "nse",
    "ScanEntry",
    "atom_removal_scan",
    "ForecastResult",
]


@dataclass(frozen=True)
class EncodeConfig:
    """Encoding solver configuration.

    The subgradient path runs ``sweeps`` warm-started rounds of ``sub_iters``
    diminishing-step iterations; restarting the step schedule each round
    restores large steps and gives fast convergence on the smooth part while
    every individual round still satisfies the diminishing-step conditions.
    ``variant`` selects the code solver: "pgd" (default for subdifferentiable
    penalties), "heuristic" or "tos" (hard constraint; "tos" needs a fixed
    mask, here or in the penalty, and is the hard default when one is set).
    """

    sweeps: int = 60
    sub_iters: int = 50
    seed: int = 0
    variant: str | None = None
    R: int | None = None
    mask: FrequencyMask | None = None
    priority: str = "nonneg"
    gamma0: float = 1.0
    sched: StepSchedule | None = None

    def resolved_variant(self, penalty: Penalty) -> str:
        if self.variant is not None:
            return self.variant
        if penalty.kind != "hard_freq":
            return "pgd"
        return "tos" if self.mask is not None or penalty.mask is not None else "heuristic"


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
    ``penalty``.  Output is elementwise nonnegative.
    """
    y_full = np.asarray(y_full, dtype=float)
    wp = np.asarray(wp, dtype=float)
    if lam_over_xi < 0:
        raise ValueError("lam_over_xi must be nonnegative")
    config = config or EncodeConfig()
    r = wp.shape[1]
    rng = np.random.default_rng(config.seed)
    h = np.abs(rng.standard_normal((r, y_full.shape[1])))
    variant = config.resolved_variant(penalty)

    if variant == "pgd":
        p = replace(penalty, lam=lam_over_xi) if penalty.kind != "hard_freq" else penalty
        if p.kind == "hard_freq":
            raise ValueError("pgd variant cannot solve a hard-frequency penalty")
        report = SolveReport()
        for _ in range(config.sweeps):
            h, sub = solve_H_pgd(y_full, wp, h, p, config.sched, config.sub_iters)
            report.objective_trace.append(sub.objective_trace[-1])
            report.step_trace.append(sub.step_trace[0])
        report.wall_iters = config.sweeps * config.sub_iters
        return h, report

    if variant == "heuristic":
        R = config.R if config.R is not None else penalty.R
        if R is None:
            raise ValueError("heuristic encoding needs R")
        report = SolveReport()
        for _ in range(config.sweeps):
            h, sub = alternating_pgd(h, wp, y_full, R, config.sub_iters, config.priority)
            report.objective_trace.append(sub.objective_trace[-1])
        # the returned code must be nonnegative whatever the projection order
        h = np.maximum(h, 0.0)
        report.wall_iters = config.sweeps * config.sub_iters
        return h, report

    if variant == "tos":
        mask = config.mask if config.mask is not None else penalty.mask
        if mask is None:
            raise ValueError("tos encoding needs a fixed FrequencyMask")
        if mask.T != y_full.shape[1]:
            raise ValueError(
                f"mask is for series length {mask.T}, auxiliary period is "
                f"{y_full.shape[1]}; band-limited index sets do not transfer "
                "across lengths, supply a mask per length"
            )
        gram = wp.T @ wp
        cross = wp.T @ y_full
        h, report = three_operator_splitting(
            lambda m: 2.0 * (gram @ m - cross),
            mask,
            h,
            config.sweeps * config.sub_iters,
            config.gamma0,
            f=lambda m: float(np.sum((y_full - wp @ m) ** 2)),
        )
        return h, report

    raise ValueError(f"unknown encode variant {variant!r}")


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
    from a fixed frequency mask in ``penalty`` or ``config``), re-encode the
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

    def score(w, wp, pen, cfg):
        h_new_full, _ = encode_new(y_full, wp, pen, lam_over_xi, cfg)
        pred = w @ h_new_full[:, T:]
        return nse(x_full[:, T:], pred)

    baseline = score(model.W, model.Wp, penalty, config)
    entries = []
    for s in range(model.hyper.r):
        w_red = np.delete(model.W, s, axis=1)
        wp_red = np.delete(model.Wp, s, axis=1)
        pen_red, cfg_red = penalty, config
        if penalty.mask is not None:
            pen_red = replace(penalty, mask=penalty.mask.without_row(s))
        if config is not None and config.mask is not None:
            cfg_red = replace(config, mask=config.mask.without_row(s))
        val = score(w_red, wp_red, pen_red, cfg_red)
        entries.append(ScanEntry(s, val, val - baseline))
    entries.sort(key=lambda e: -e.nse_after)
    return [ScanEntry(None, baseline, 0.0)] + entries


@dataclass
class ForecastResult:
    """Full forecast bundle: complete encoded code, its test-period block,
    the predicted tensor, and the score (when truth was available)."""

    h_new_full: np.ndarray
    h_new: np.ndarray
    x_pred: SpatioTemporalTensor
    nse: float | None = None
    report: SolveReport | None = field(default=None, repr=False)

    def __post_init__(self):
        self.h_new_full = np.asarray(self.h_new_full, dtype=float)
        self.h_new = np.asarray(self.h_new, dtype=float)
        if np.any(self.h_new_full < 0):
            raise ValueError("encoded code must be nonnegative")
        k = self.h_new.shape[1]
        if k > self.h_new_full.shape[1] or not np.array_equal(
            self.h_new, self.h_new_full[:, self.h_new_full.shape[1] - k :]
        ):
            raise ValueError("h_new must be the trailing column block of h_new_full")
