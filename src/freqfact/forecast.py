"""Encode / slice / predict pipeline, the NSE score, and the atom-removal
scan.

Encoding fits a nonnegative code for the full-period auxiliary data against
the learned auxiliary dictionary; the trailing columns of that code drive the
prediction of the main data over the test period.  Encoding always uses the
entire auxiliary period: a code fit only on the short test window cannot
carry frequencies longer than that window.

The atom-removal scan makes one encode per dictionary: the full one (the
baseline, encoded exactly as a forecast encodes it), then each of the r
single-atom removals of r - 1 atoms.

Code steps return codes, not scores: an encode scores the code it returns
once, as ||Y - Wp H||_F^2 plus the penalty a fit scores, by the rule the
block-coordinate fit keeps its codes by: the squared residual in Gram form
from the very terms Wp^T Wp and Wp^T Y the code step took, and exactly at
or below a small fraction of ||Y||^2, so no (rows of Y, T) residual is
formed while a fit leaves more.
"""

from dataclasses import dataclass, replace

import numpy as np

from .regularization import Penalty
from .solvers import FactorModel, SolveReport, code_step
from .solvers import _FitSide, _require_finite, _scored_penalty
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

    The encode penalty picks the code step (see
    :func:`~freqfact.solvers.code_step`), which runs once with a cap of
    ``sweeps * sub_iters``.  The prox step (ridge, lasso, soft_freq) runs at
    most that many ADMM iterations, and stops sooner once its primal and
    dual residuals are small.  Pursuit (an adaptive top-R hard_freq band)
    runs at most that many rounds, and stops sooner once a round picks the
    support the last one solved on.  A fixed mask takes one exact solve
    and no cap.
    """

    sweeps: int = 60
    sub_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        # zero rounds would forecast from the random initial code
        for name in ("sweeps", "sub_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


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
    ``penalty``.  Output is elementwise nonnegative.  The code step sees the
    problem through its terms Wp^T Wp and Wp^T Y_full, formed here once, for
    the code step and the score alike, and starts from the seeded code.
    ``wp`` is one (m, k) dictionary of Y_full's m rows; anything else raises
    ValueError naming the shapes.  The report holds one objective, that of
    the returned code, scored once after the code step as
    ||Y_full - Wp H||_F^2 plus the penalty at ``lam_over_xi`` (0 for a hard
    band), the residual by the fit's rule
    (:class:`~freqfact.solvers._FitSide`: in Gram form, and exactly at or
    below ``_GRAM_EXACT_BELOW`` ||Y_full||^2), the code step's first step,
    and in ``wall_iters`` the iterations, rounds or KKT solves it ran; it
    keeps nothing else the code step reports.  A non-finite code or
    objective raises :class:`~freqfact.exceptions.ConvergenceError` (at
    "outer iteration 1").
    """
    y_full = np.asarray(y_full, dtype=float)
    if lam_over_xi < 0:
        raise ValueError("lam_over_xi must be nonnegative")
    sequence = isinstance(wp, (list, tuple))
    if sequence or np.ndim(wp) != 2 or y_full.ndim != 2 or len(wp) != len(y_full):
        got = f"a sequence of {len(wp)}" if sequence else np.shape(wp)
        raise ValueError(f"encode takes one (m, k) dictionary of Y_full's m rows; got Wp {got} "
                         f"and Y_full {y_full.shape}")
    wp = np.asarray(wp, dtype=float)
    config = config or EncodeConfig()
    h0 = np.abs(np.random.default_rng(config.seed).standard_normal((wp.shape[1], y_full.shape[1])))
    pen = replace(penalty, lam=lam_over_xi)
    _, step = code_step(pen)
    with np.errstate(over="ignore", invalid="ignore"):
        side = _FitSide(y_full, wp, 0.0)
        h, sub = step(side.wtw, side.wtx, h0, config.sweeps * config.sub_iters)
        _require_finite("encode_new", 0, H=h)
        val = side.terms(h)[0] + _scored_penalty(h, pen)
        _require_finite("encode_new", 0, objective=val)
    return h, SolveReport(objective_trace=[val], step_trace=[sub.step_trace[0]],
                          wall_iters=sub.wall_iters)


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
    against the truth over the window a forecast scores: columns T up to
    the auxiliary period's end.  Returns the baseline entry first, then
    atoms sorted by descending NSE.  Needs r >= 2; with one atom there is
    nothing to remove.  An auxiliary period that does not extend two
    columns past T, or a truth shorter than it, raises ValueError before
    anything is encoded.

    The baseline and each removal make one :func:`encode_new` call.
    """
    if model.hyper.r < 2:
        raise ValueError("atom removal needs at least two atoms")
    x_full = np.asarray(x_full, dtype=float)
    y_full = np.asarray(y_full, dtype=float)
    T, end = model.H.shape[1], y_full.shape[1]
    if end <= T + 1:
        raise ValueError(f"auxiliary period ({end}) does not extend two columns past T={T}")
    if x_full.shape[1] < end:
        raise ValueError(f"truth tensor shorter than auxiliary period "
                         f"({x_full.shape[1]} < {end} columns)")

    def score(w, wp, pen):
        h_new_full, _ = encode_new(y_full, wp, pen, lam_over_xi, config)
        return nse(x_full[:, T:end], w @ h_new_full[:, T:])

    baseline = score(model.W, model.Wp, penalty)
    entries = []
    for s in range(model.hyper.r):
        pen = penalty if penalty.mask is None else replace(penalty,
                                                           mask=penalty.mask.without_row(s))
        val = score(np.delete(model.W, s, axis=1), np.delete(model.Wp, s, axis=1), pen)
        entries.append(ScanEntry(s, val, val - baseline))
    entries.sort(key=lambda e: -e.nse_after)
    return [ScanEntry(None, baseline, 0.0)] + entries
