"""Workload definitions: inputs, subcommand configs, config-implied call
counts, and which end-to-end metric each layer metric should move.

Every workload is closed-loop and single-client: one process runs
factorize -> forecast [-> atom-scan] and starts the next subcommand only
when the previous one has returned.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    binary: bool
    factorize: dict
    forecast: dict
    jobs: int = 1
    model_subdir: str = ""
    atom_scan: bool = False
    expected_calls: dict = field(default_factory=dict)


def _soft_forecast() -> Workload:
    n_iters, sub, sweeps = 20, 50, 60
    penalty = {"kind": "soft_freq", "lambda": 1.0}
    pgd_calls = n_iters + sweeps
    return Workload(
        name="soft_forecast",
        why="soft spectral penalty: time goes to the subgradient code step and its "
            "full-residual objective; text inputs are small",
        synth={"d": 64, "T": 256, "freqs": [14, 6], "sigma": 0.5, "x_sigma": 0.5},
        binary=False,
        factorize={"variant": "bcd", "penalty": penalty, "r": 4, "xi": 0.5, "train_t": 192,
                   "n_iters": n_iters, "sub_iters": sub, "seed": 0},
        forecast={"penalty": penalty, "lam_over_xi": 0.1, "sweeps": sweeps, "sub_iters": sub},
        expected_calls={
            "cli.factorize": 1,
            "cli.factorize_point": 1,
            "cli.forecast": 1,
            "solvers.ssnmf_bcd": 1,
            "forecast.encode_new": 1,
            "solvers.solve_H_pgd": pgd_calls,
            "regularization.penalty_subgradient": pgd_calls * sub,
            # each PGD call scores its start and every step; ssnmf_bcd
            # scores the initial model and three phases per iteration
            "regularization.penalty_value": pgd_calls * (sub + 1) + 1 + 3 * n_iters,
            "solvers.objective": 1 + 3 * n_iters,
            "solvers.solve_W": 2 + 2 * n_iters,
            "io.read_tensor": 3 + 3,
            "solvers.alternating_pgd": 0,
        },
    )


def _hard_scan() -> Workload:
    n_iters, sub, sweeps, r, R = 20, 50, 20, 4, 3
    penalty = {"kind": "hard_freq", "R": R}
    encodes = 1 + 1 + r  # forecast, scan baseline, one per removed atom
    # rows encoded: forecast and baseline use r rows, each removal r - 1
    encoded_rows = 2 * r + r * (r - 1)
    return Workload(
        name="hard_scan",
        why="hard band limit with adaptive top-R masks: time goes to per-row mask "
            "building; binary inputs keep the text I/O layer idle",
        synth={"d": 64, "T": 256, "freqs": [14, 6], "sigma": 0.5, "x_sigma": 0.5},
        binary=True,
        factorize={"variant": "hard", "penalty": penalty, "R": R, "r": r, "xi": 0.5,
                   "train_t": 192, "n_iters": n_iters, "sub_iters": sub, "seed": 0},
        forecast={"penalty": penalty, "variant": "heuristic", "R": R, "sweeps": sweeps,
                  "sub_iters": sub},
        atom_scan=True,
        expected_calls={
            "cli.factorize": 1,
            "cli.factorize_point": 1,
            "cli.forecast": 1,
            "cli.atom_scan": 1,
            "solvers.ssnmf_hard": 1,
            "forecast.encode_new": encodes,
            "solvers.alternating_pgd": n_iters + encodes * sweeps,
            # one top-R mask per iteration plus one for the final off-mask ratio
            "spectral.top_r_indices": (sub + 1) * (n_iters * r + sweeps * encoded_rows),
            "solvers.solve_W": 2 + 2 * n_iters,
            "solvers.solve_H_pgd": 0,
            "regularization.penalty_value": 0,
            "io.read_tensor": 3 + 3 + 3,
        },
    )


def _large_sweep() -> Workload:
    n_iters, sub, sweeps, points = 5, 20, 5, 2
    penalty = {"kind": "ridge", "lambda": 0.1}
    return Workload(
        name="large_sweep",
        why="large text inputs and a two-point threaded grid: time goes to text "
            "parsing, slice writing and BLAS, with almost no spectral work",
        synth={"d": 512, "T": 1024, "freqs": [40, 12], "sigma": 0.5, "x_sigma": 0.5},
        binary=False,
        factorize={"variant": "bcd", "penalty": penalty, "r": 8, "xi": 0.5, "train_t": 768,
                   "n_iters": n_iters, "sub_iters": sub, "seed": 0,
                   "grid": [{"xi": 0.5}, {"xi": 1.0}]},
        forecast={"penalty": penalty, "lam_over_xi": 0.1, "sweeps": sweeps, "sub_iters": sub},
        jobs=2,
        model_subdir="point_000",
        expected_calls={
            "cli.factorize": 1,
            "cli.factorize_point": points,
            "cli.forecast": 1,
            "solvers.ssnmf_bcd": points,
            "solvers.solve_H_pgd": points * n_iters + sweeps,
            "solvers.solve_W": points * (2 + 2 * n_iters),
            # each grid point parses X and both auxiliaries again
            "io.read_tensor": points * 3 + 3,
            "spectral.top_r_indices": 0,
        },
    )


WORKLOADS = {w.name: w for w in (_soft_forecast(), _hard_scan(), _large_sweep())}

# Layer metric -> the end-to-end metrics (on the named workloads) it should
# move.  Written down before any optimization, so a claimed gain can be
# checked against where the trace says the time went.
LAYER_MAP = {
    "solvers.solve_H_pgd.self_s, solvers.objective.s, solvers.solve_W.{s,calls}":
        "factorize_s and forecast_s on soft_forecast; factorize_s on large_sweep; "
        "no change on hard_scan",
    "solvers.alternating_pgd.self_s, solvers.ssnmf_bcd.self_s, solvers.ssnmf_hard.self_s, "
    "forecast.encode_new.{s,calls}, forecast.atom_removal_scan.self_s":
        "atom_scan_s and forecast_s on hard_scan; forecast_s on soft_forecast",
    "spectral.top_r_indices.{s,calls}, spectral.FrequencyMask.from_top_r.s, "
    "spectral.FrequencyMask.to_bool.{s,calls}, spectral.project_frequency_mask.{s,calls}, "
    "spectral.offmask_ratio.{s,calls}":
        "every time on hard_scan; no such work on large_sweep",
    "spectral.dft_rows.{s,calls}, spectral.minkowski_subgradient.s, spectral.fft_calls, "
    "spectral.fft_points":
        "soft_forecast and hard_scan",
    "regularization.penalty_value.{s,calls}, regularization.penalty_subgradient.{s,calls}":
        "soft_forecast only",
    "io.read_tensor.{s,calls,bytes}, io.read_matrix.s":
        "factorize_s and forecast_s on large_sweep; about a tenth of soft_forecast; "
        "hard_scan reads binary",
    "io.write_matrix.s, io.atomic_write_bytes.{s,bytes}, cli.forecast.self_s":
        "forecast_s on large_sweep (slice formatting)",
    "io.write_tensor.s, synthetic.gen_cosine_mixture.s":
        "setup_s",
    "tensor.supervised_stack.{s,calls}, tensor.matricize.s":
        "factorize_s on large_sweep",
    "cli.factorize.self_s, cli.grid.concurrency":
        "factorize_s on large_sweep",
}
