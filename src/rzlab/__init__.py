"""Numerical laboratory for the completed-zeta scattering correspondence:
critical-line zero finding, the xi-ratio S-matrix, inverse-square-potential
quantum checks, dispersion reconstruction, and Hadamard factorization.
"""

from .errors import (BoundaryZeroError, BudgetExhaustedError, DivergenceError,
                     DomainError, GridError, IntegrationLimitError, PoleError,
                     PreconditionError, RangeError, RZLabError,
                     VerificationError)

__version__ = "0.1.0"

# The one xi kernel: the numpy Euler-Maclaurin sum rzlab.zeta.zeta_em, called
# on one point or on a batch of points that share its number of terms
# (zeta.log_xi_array, which zero scans and winding contours use); zero
# brackets are refined by Brent's method one point at a time.
backend_name = "python"

__all__ = [
    "__version__",
    "backend_name",
    "RZLabError",
    "DomainError",
    "RangeError",
    "PoleError",
    "PreconditionError",
    "BudgetExhaustedError",
    "DivergenceError",
    "BoundaryZeroError",
    "GridError",
    "VerificationError",
    "IntegrationLimitError",
]
