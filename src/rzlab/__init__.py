"""Numerical laboratory for the completed-zeta scattering correspondence:
critical-line zero finding, the xi-ratio S-matrix, inverse-square-potential
quantum checks, dispersion reconstruction, and Hadamard factorization.
"""

from .errors import (BoundaryZeroError, DivergenceError, DomainError,
                     GridError, PoleError, PreconditionError, RangeError,
                     RZLabError, VerificationError)

__version__ = "0.1.0"

# The one xi kernel: the numpy Euler-Maclaurin sum rzlab.zeta.zeta_em, on
# one point, a batch (zeta.log_xi_array: contours, zero refinement) or a
# zero scan's uniform line (zeta.log_xi_line); all of a scan's zero
# brackets are refined together, one log_xi_array call per round.
backend_name = "python"

__all__ = [
    "__version__",
    "backend_name",
    "RZLabError",
    "DomainError",
    "RangeError",
    "PoleError",
    "PreconditionError",
    "DivergenceError",
    "BoundaryZeroError",
    "GridError",
    "VerificationError",
]
