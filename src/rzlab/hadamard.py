"""Truncated Hadamard factorization of xi from a catalog of
critical-line ordinates, with convergence diagnostics against log xi.

Each ordinate t contributes the conjugate pair of zeros 1/2 +- i t; the
pair's genus-one convergence factors are kept and grouped before
exponentiation so real arguments give real values.
"""

import math

import numpy as np

from .errors import PreconditionError

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


def _log_partials(ordinates, z, n):
    """log P_N(z) for N = 0 .. n, one running sum over the first n pairs
    of log((1 - z/rho)(1 - z/conj rho)) + z (1/rho + 1/conj rho) from A +
    Bz; None where z is one of their zeros (relative tolerance 1e-12)."""
    if n > len(ordinates):
        raise PreconditionError("n exceeds catalog size")
    rho = 0.5 + 1j * np.asarray(ordinates[:n], dtype=float)
    # the nearer to z of rho and conj rho lies on z's side of the axis
    if np.any(abs(complex(z.real, abs(z.imag)) - rho) < 1e-12 * abs(rho)):
        return None
    # 1/rho + 1/conj rho = 2 Re rho / |rho|^2, exactly real
    pairs = np.log((1 - z / rho) * (1 - z / rho.conj())) + z / abs(rho) ** 2
    a, b = fit_constants()
    return np.cumsum(np.append(a + b * z, pairs))


def hadamard_partial(ordinates, z, n):
    """Partial Hadamard product over the first n ordinates,
    e^A e^{Bz} prod (1 - z/rho)(1 - z/conj rho) e^{z(1/rho + 1/conj rho)}
    with A and B from fit_constants; exactly 0, a value and not an error,
    when z is a catalog zero (relative tolerance 1e-12)."""
    z = complex(z)
    logs = _log_partials(ordinates, z, n)
    value = 0j if logs is None else complex(np.exp(logs[n]))
    return complex(value.real, 0.0) if z.imag == 0.0 else value


def convergence_profile(z, n_list, ordinates, log_xi_z):
    """|P_N(z) / xi(z) - 1| = |expm1(log P_N(z) - log xi(z))| for each N,
    from one pass and the caller's log xi(z); 1 for every N where z is a
    zero of the pairs taken, which the hadamard mode refuses first."""
    logs = _log_partials(ordinates, complex(z), max(n_list))
    if logs is None:
        return [1.0] * len(n_list)
    return np.abs(np.expm1(logs[n_list] - log_xi_z)).tolist()
