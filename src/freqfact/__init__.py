"""Supervised semi-nonnegative matrix factorization with time- and
frequency-domain regularization, plus the encode/predict forecasting
pipeline and its evaluation metrics."""

from .band import band_pursuit, solve_H_band
from .exceptions import (
    ConvergenceError,
    SingularGramError,
    SpectrumSymmetryError,
    TensorFormatError,
)
from .forecast import (
    EncodeConfig,
    ScanEntry,
    atom_removal_scan,
    encode_new,
    nse,
    predict,
)
from .io import read_tensor, read_tensors
from .regularization import Penalty, penalty_prox, penalty_value
from .solvers import (
    FactorModel,
    Hyper,
    SolveReport,
    code_step,
    objective,
    solve_H_prox,
    solve_W,
    ssnmf_bcd,
    ssnmf_hard,
    three_operator_splitting,
)
from .spectral import (
    FrequencyMask,
    dft_rows,
    idft_rows,
    inverse_usage_ratio,
    mask_distance,
    minkowski1,
    minkowski_prox,
    minkowski_subgradient,
    offmask_ratio,
    project_frequency_mask,
)
from .synthetic import (
    CodeDecomposition,
    NormDescentResult,
    SyntheticSpec,
    closed_form_code,
    gen_cosine_mixture,
    norm_descent_experiment,
)
from .tensor import (
    SpatioTemporalTensor,
    fold,
    matricize,
    supervised_stack,
)

__version__ = "0.1.0"
