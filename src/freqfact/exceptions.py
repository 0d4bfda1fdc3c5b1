"""Exception types shared across the package.

Input/shape problems raise plain ``ValueError``; the classes here mark
failures that the CLI maps to its "numerical failure" exit code.
"""

import numpy as np

__all__ = [
    "SingularGramError",
    "SpectrumSymmetryError",
    "ConvergenceError",
    "TensorFormatError",
]


class SingularGramError(np.linalg.LinAlgError):
    """Gram matrix H H^T is singular and no ridge was requested."""


class SpectrumSymmetryError(np.linalg.LinAlgError):
    """Inverse transform of a spectrum left a non-negligible imaginary part."""


class ConvergenceError(RuntimeError):
    """An iterative procedure exhausted its step budget before its target, or
    left the finite range."""


class TensorFormatError(ValueError):
    """A tensor/matrix file could not be parsed; message names row/column."""
