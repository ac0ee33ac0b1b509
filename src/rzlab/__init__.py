"""Numerical laboratory for the completed-zeta scattering correspondence:
critical-line zero finding, the xi-ratio S-matrix, inverse-square-potential
quantum checks, dispersion reconstruction, and Hadamard factorization.
"""

from .errors import (BoundaryZeroError, DivergenceError, DomainError,
                     GridError, PoleError, PreconditionError, RangeError,
                     RZLabError, VerificationError)

__version__ = "0.1.0"

# The one xi kernel: the numpy Euler-Maclaurin sum rzlab.zeta.zeta_em, called
# on one point or on a batch of points (zeta.log_xi_array, which zero
# scans, winding contours and zero refinement use); all of a scan's zero
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
