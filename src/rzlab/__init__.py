"""Numerical laboratory for the completed-zeta scattering correspondence:
critical-line zero finding, the xi-ratio S-matrix, inverse-square-potential
quantum checks, dispersion reconstruction, and Hadamard factorization.
"""

from .errors import (BoundaryZeroError, DivergenceError, DomainError,
                     GridError, PoleError, PreconditionError, RangeError,
                     RZLabError, VerificationError)

__version__ = "0.1.0"

# The one xi kernel: the numpy Euler-Maclaurin sum rzlab.zeta.zeta_em, on
# one point, a batch (zeta.log_xi_array: contours) or the critical line
# (zeta.log_xi_line: a zero scan's grid, then one call per refinement
# round on all of the scan's zero brackets together).
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
