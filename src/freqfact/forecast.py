"""Encode / slice / predict pipeline, the NSE score, and the atom-removal
scan.

Encoding fits a nonnegative code for the full-period auxiliary data against
the learned auxiliary dictionary; the trailing columns of that code drive the
prediction of the main data over the test period.  Encoding always uses the
entire auxiliary period: a code fit only on the short test window cannot
carry frequencies longer than that window.

The atom-removal scan makes one encode of r + 1 dictionaries of unequal
widths: the full one (the baseline, encoded exactly as a forecast encodes
it) and the r single-atom removals of r - 1 atoms each.  The code step
solves them one after another, and each block's code equals bit for bit
that of a separate encode.

Code steps return codes, not scores: an encode scores each code it returns
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
from .spectral import FrequencyMask
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
    wp,
    penalty: Penalty,
    lam_over_xi: float,
    config: EncodeConfig | None = None,
) -> tuple[np.ndarray | list[np.ndarray], SolveReport | list[SolveReport]]:
    """Nonnegative penalized code for the full-period auxiliary data:

        argmin_{H >= 0}  ||Y_full - Wp H||_F^2 + (lam/xi) * psi(H)

    The penalty weight is ``lam_over_xi`` regardless of the weight stored in
    ``penalty``.  Output is elementwise nonnegative.  The report holds one
    objective, that of the returned code, scored once after the code step
    as ||Y_full - Wp H||_F^2 plus the penalty at ``lam_over_xi`` (0 for a
    hard band), the residual by the fit's rule
    (:class:`~freqfact.solvers._FitSide`: in Gram form, with ||Y_full||^2
    taken once per call, and exactly at or below ``_GRAM_EXACT_BELOW``
    ||Y_full||^2), the code step's first step, and in ``wall_iters`` the
    iterations, rounds or KKT solves it ran.  A non-finite code or
    objective raises :class:`~freqfact.exceptions.ConvergenceError` (at
    "outer iteration 1").  The code step records no per-iteration
    diagnostics here (see :func:`~freqfact.solvers.code_step`).

    ``wp`` may also be a sequence of B dictionaries (m, k_b), of equal or
    unequal widths: they encode together, one code step over all blocks,
    and the call returns a list of B codes (k_b, T) and a list of B
    reports, each equal bit for bit to a separate 2-D call's.  The code
    step sees each block through its terms Wp_b^T Wp_b and Wp_b^T Y_full,
    formed here once, for the code step and the score alike.  Every block
    starts from the seeded code of its width, a fixed mask in ``penalty``
    holds the blocks' rows in order, and a non-finite block is named.
    """
    y_full = np.asarray(y_full, dtype=float)
    if lam_over_xi < 0:
        raise ValueError("lam_over_xi must be nonnegative")
    config = config or EncodeConfig()
    flat = not isinstance(wp, (list, tuple))
    dictionaries = [np.asarray(w, dtype=float) for w in ([wp] if flat else wp)]
    widths = [w.shape[1] for w in dictionaries]
    # each width's seeded start, drawn as a separate call draws it
    starts = {k: np.abs(np.random.default_rng(config.seed).standard_normal((k, y_full.shape[1])))
              for k in set(widths)}
    h = [starts[k] for k in widths]
    pen = replace(penalty, lam=lam_over_xi)
    _, step = code_step(pen, _diagnostics=False)
    reports = [SolveReport() for _ in dictionaries]
    with np.errstate(over="ignore", invalid="ignore"):
        yy = float(np.einsum("ij,ij->", y_full, y_full))
        sides = [_FitSide(y_full, w, 0.0, yy) for w in dictionaries]
        h, subs = step([s.wtw for s in sides], [s.wtx for s in sides], h,
                       config.sweeps * config.sub_iters)
        for b, (report, hb, sub) in enumerate(zip(reports, h, subs)):
            _require_finite("encode_new", 0, None if flat else b, H=hb)
            report.step_trace.append(sub.step_trace[0])
            report.wall_iters = sub.wall_iters
        for b, (report, side, hb) in enumerate(zip(reports, sides, h)):
            val = side.terms(hb)[0] + _scored_penalty(hb, pen)
            _require_finite("encode_new", 0, None if flat else b, objective=val)
            report.objective_trace.append(val)
    return (h[0], reports[0]) if flat else (h, reports)


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

    The baseline and the r removals encode in one :func:`encode_new` call,
    as one sequence of r + 1 dictionaries (one of r atoms, r of r - 1), so
    the code step runs once per round over all of them; each entry is
    equal bit for bit to the one a separate encode per dictionary scores.
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

    def score(w, h_new_full):
        return nse(x_full[:, T:end], w @ h_new_full[:, T:])

    # the baseline and every removal (r - 1 atoms each) encode in one call
    r = model.hyper.r
    dictionaries = [model.Wp] + [np.delete(model.Wp, s, axis=1) for s in range(r)]
    pen = penalty
    if penalty.mask is not None:
        rows = penalty.mask.kept + sum((penalty.mask.without_row(s).kept for s in range(r)), ())
        pen = replace(penalty, mask=FrequencyMask(penalty.mask.T, rows))
    codes, _ = encode_new(y_full, dictionaries, pen, lam_over_xi, config)
    baseline = score(model.W, codes[0])
    entries = []
    for s in range(r):
        val = score(np.delete(model.W, s, axis=1), codes[s + 1])
        entries.append(ScanEntry(s, val, val - baseline))
    entries.sort(key=lambda e: -e.nse_after)
    return [ScanEntry(None, baseline, 0.0)] + entries
