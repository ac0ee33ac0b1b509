"""Truncated Hadamard factorization of xi from a catalog of
critical-line ordinates, with convergence diagnostics against direct
evaluation.

Each ordinate t contributes the conjugate pair of zeros 1/2 +- i t; the
pair's genus-one convergence factors are kept and grouped before
exponentiation so real arguments give real values.
"""

import cmath
import math

from .errors import PreconditionError
from .zeta import xi

EULER_GAMMA = 0.5772156649015329
# A residual at or below this is xi's own rounding: the largest bound on
# log_xi's relative error against mpmath (GRID_BOUNDS, tests/test_zeta.py).
RESIDUAL_FLOOR = 4.87e-13


def fit_constants():
    """Hadamard constants of xi in closed form: A = log xi(0) = log 1/2
    and B = (log xi)'(0) = -gamma/2 - 1 + (1/2) log 4 pi (Davenport,
    Multiplicative Number Theory, ch. 12), as the pair (A, B)."""
    a = complex(math.log(0.5))
    b = complex(-0.5 * EULER_GAMMA - 1.0 + 0.5 * math.log(4.0 * math.pi))
    return a, b


def hadamard_partial(ordinates, z, n):
    """Partial Hadamard product over the first n ordinates, with A and B
    from fit_constants:
    e^A e^{Bz} prod (1 - z/rho)(1 - z/conj rho) e^{z(1/rho + 1/conj rho)}.

    Returns exactly 0 when z coincides with a catalog zero (relative
    tolerance 1e-12); that is a value, not an error.
    """
    if n > len(ordinates):
        raise PreconditionError("n exceeds catalog size")
    z = complex(z)
    a, b = fit_constants()
    log_total = a + b * z
    total_pairs = 0j
    for t in ordinates[:n]:
        rho = complex(0.5, t)
        rho_bar = rho.conjugate()
        if abs(z - rho) < 1e-12 * abs(rho) or abs(z - rho_bar) < 1e-12 * abs(rho):
            return 0j
        pair = (1.0 - z / rho) * (1.0 - z / rho_bar)
        # 1/rho + 1/conj rho = 2 Re rho / |rho|^2, exactly real
        total_pairs += cmath.log(pair) + z * (1.0 / (rho.real * rho.real
                                                     + rho.imag * rho.imag))
    value = cmath.exp(log_total + total_pairs)
    if z.imag == 0.0:
        return complex(value.real, 0.0)
    return value


def convergence_profile(z, n_list, ordinates):
    """Relative residual |P_N(z) - xi(z)| / |xi(z)| for each N."""
    target = xi(complex(z))
    return [abs(hadamard_partial(ordinates, z, n) - target) / abs(target)
            for n in n_list]
