"""Exception hierarchy shared by all rzlab modules."""


class RZLabError(Exception):
    """Base class for all rzlab errors."""


class DomainError(RZLabError):
    """Input outside the mathematical domain of an operation."""


class RangeError(RZLabError):
    """Input outside the supported desk-scale window."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class PreconditionError(RZLabError):
    """A caller-contract precondition was violated."""


class DivergenceError(RZLabError):
    """An integral was detected (or known a priori) to diverge."""


class BoundaryZeroError(RZLabError):
    """The integrand/function vanishes on a contour where it must not."""


class GridError(RZLabError):
    """Sample grid too coarse or too narrow for the requested operation."""


class VerificationError(RZLabError):
    """A numerical cross-check that must hold has failed."""
