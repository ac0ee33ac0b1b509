"""Number-theoretic scattering objects built on xi.

S(s) = xi(2s)/xi(-2s), with xi(-2s) taken as xi(1 + 2s), at a point with
pole/zero flags and as log S on an array of points, the zero <-> pole
correspondence on Re s = -1/4, where the zero-energy Jost function
F+(s) = xi(-2s)/xi(2s) = 1/S(s) vanishes, and the coupling at a zero.

The s-plane here is the shifted one: a zeta zero rho corresponds to
s = -rho/2, so the first-zero pole of S sits at s = -1/4 - i t_1 / 2.
"""

import math

import numpy as np

from .errors import RangeError, VerificationError
from .numerics import ContourRectangle, winding_number
from .zeta import SIGMA_MIN, T_MAX, log_xi, log_xi_array

# A point p counts as a xi zero when it lies within this distance of
# one (simple zeros: |xi/xi'| is the distance to the zero).
ZERO_NEWTON_RADIUS = 1e-6


def _xi_vanishes(p, lx):
    """Whether xi, whose log at p is lx, has a zero within
    ZERO_NEWTON_RADIUS of p: a bool at a number p, a bool array at an
    array.  Decided on the decay-normalized magnitude |xi| e^{pi |t| / 4}
    (the raw linear floor would misfire at large t), then confirmed by
    the distance h / |r - 1| to a simple zero, exact where xi is linear,
    with r = exp(log xi(q) - lx) the ratio of xi at q = p + h to xi at p:
    one log_xi call at a number, one log_xi_array call on the near
    points of an array.  h sits clear of the zero itself."""
    h = 1e-3
    q = p + h
    near = lx.real + 0.25 * math.pi * abs(p.imag) <= math.log(1e-3)
    if isinstance(lx, np.ndarray):
        r = np.exp(log_xi_array(q[near]) - lx[near])
        near[near] = h < ZERO_NEWTON_RADIUS * np.abs(r - 1.0)
        return near
    return near and bool(h < ZERO_NEWTON_RADIUS
                         * abs(np.exp(log_xi(q) - lx) - 1.0))


def s_matrix(s):
    """S(s) = xi(2s)/xi(-2s) as (log S, pole, zero), the phase of log S
    unfolded; a pole of S is never also flagged as a zero.  log S is
    log_s_matrix's log xi(2s) - log xi(1 + 2s), and the pole flag tests
    xi at 1 + 2s.  s must lie in xi's window halved, |Re s| <= 5 and
    |Im s| <= 130."""
    s = complex(s)
    if not abs(s.imag) <= 0.5 * T_MAX:
        raise RangeError("|Im s| = %r outside supported window (<= %g)"
                         % (abs(s.imag), 0.5 * T_MAX))
    if not abs(s.real) <= -0.5 * SIGMA_MIN:
        raise RangeError("Re s = %r outside supported window (|Re s| <= %g)"
                         % (s.real, -0.5 * SIGMA_MIN))
    num = log_xi(2.0 * s)
    den = log_xi(1.0 + 2.0 * s)
    pole = _xi_vanishes(1.0 + 2.0 * s, den)
    return num - den, pole, not pole and _xi_vanishes(2.0 * s, num)


def log_s_matrix(s):
    """log S = log xi(2s) - log xi(1 + 2s) at every point of the complex
    array s, with no pole/zero flags: s_matrix's rule on an array, both
    halves in one log_xi_array call.  Its phase is not folded into (-pi,
    pi].  xi(-2s) is taken as xi(1 + 2s), which log_xi_array reaches
    without reflection for Re s > -1/2: on Re s = 0 the two sums run at
    Re 0 and Re 1, not at the conjugate points 2s and -2s, whose real
    parts agree to the bit, so |S(i tau)| - 1 reads rounding rather
    than exactly 0."""
    s = np.asarray(s, dtype=complex)
    num, den = log_xi_array(np.stack((2.0 * s, 1.0 + 2.0 * s)))
    return num - den


def zero_to_jost_zero(ordinates):
    """Map each zeta-zero ordinate t_n to the predicted F+ zero p = -1/4
    + i t_n/2, checking the contract: |F+| = exp(Re log xi(1 + 2p) - Re
    log xi(2p)) < 1e-6 there, with S's pole flag set, log xi at every 2p
    and 1 + 2p in one log_xi_array call, and F+ = exp(-log S) winds once
    around a 0.05-radius box about the point, every box that passed the
    point check in one winding_number call.  Returns, for each ordinate,
    |F+| at p as a float, so callers need not evaluate S there again, or
    the VerificationError its check failed with.  A failure falsifies
    the implementation, not the correspondence; a BoundaryZeroError on
    any box is raised for the batch."""
    p = -0.25 + 0.5j * np.asarray(ordinates, dtype=float)
    num, den = log_xi_array(np.stack((2.0 * p, 1.0 + 2.0 * p)))
    # math.exp: numpy's vector exp may round a point differently
    mag = [math.exp(x) for x in (den.real - num.real).tolist()]
    passed = (np.array(mag) < 1e-6) & _xi_vanishes(1.0 + 2.0 * p, den)
    winding = np.zeros(len(p), dtype=int)  # 1 where F+ winds once
    winding[passed] = winding_number(
        lambda zs: np.exp(-log_s_matrix(zs)),
        [ContourRectangle(z.real - 0.05, z.real + 0.05, z.imag - 0.05,
                          z.imag + 0.05) for z in p[passed].tolist()])
    return [m if w == 1 else VerificationError(
        "winding of F+ around %s is %d, expected 1" % (z, w) if ok
        else "|F+| = %.3g at %s; expected a zero there" % (m, z))
        for z, m, ok, w in zip(p.tolist(), mag, passed, winding)]


def coupling_at_zero(t_n):
    """Coupling lambda = rho (rho - 1) at rho = 1/2 + i t_n.

    On the critical line this is exactly -(1/4 + t_n^2): real, below
    -1/4.  Computed in that closed form so Im is exactly zero.
    """
    return complex(-(0.25 + t_n * t_n), 0.0)
