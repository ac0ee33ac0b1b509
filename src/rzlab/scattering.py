"""Number-theoretic scattering objects built on xi.

S(s) = xi(2s)/xi(-2s) at a point with pole/zero flags, log S on an
array of points, the zero-energy Jost function F+(s) = xi(-2s)/xi(2s),
the zero <-> pole correspondence on Re s = -1/4, the coupling spectrum,
and the flat-wave zero Fourier coefficient.

The s-plane here is the shifted one: a zeta zero rho corresponds to
s = -rho/2, so the first-zero pole of S sits at s = -1/4 - i t_1 / 2.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import VerificationError
from .numerics import ContourRectangle, winding_number
from .zeta import log_xi, log_xi_array, xi

# A point p counts as a xi zero when it lies within this distance of
# one (simple zeros: |xi/xi'| is the distance to the zero).
ZERO_NEWTON_RADIUS = 1e-6


@dataclass(frozen=True)
class SMatrixValue:
    """S or F+ = 1/S at s, as its log with the phase unfolded."""
    s: complex
    log_value: complex
    pole_flag: bool
    zero_flag: bool

    def __post_init__(self):
        if self.pole_flag and self.zero_flag:
            raise ValueError("pole_flag and zero_flag are mutually exclusive")


def _xi_vanishes(p, lx):
    """True when xi, whose log at p is lx, has a zero within
    ZERO_NEWTON_RADIUS of p.

    Decided on the decay-normalized magnitude |xi| e^{pi |t| / 4} (the
    raw linear floor would misfire at large t), then confirmed by the
    distance estimate |xi / xi'| for a simple zero, with xi' taken from
    a stencil wide enough to sit clear of the zero itself.
    """
    scale = lx.real + 0.25 * math.pi * abs(p.imag)
    if scale > math.log(1e-3):  # clearly away from any zero
        return False
    h = 1e-3
    deriv = (xi(p + h) - xi(p - h)) / (2.0 * h)
    if deriv == 0:
        return False
    distance = math.exp(lx.real) / abs(deriv)
    return distance < ZERO_NEWTON_RADIUS


def s_matrix(s):
    """S(s) = xi(2s)/xi(-2s) in log form, with pole/zero flags."""
    s = complex(s)
    num = log_xi(2.0 * s)
    den = log_xi(-2.0 * s)
    pole = _xi_vanishes(-2.0 * s, den)
    zero = False if pole else _xi_vanishes(2.0 * s, num)
    return SMatrixValue(s=s, log_value=num - den, pole_flag=pole,
                        zero_flag=zero)


def log_s_matrix(s):
    """log S = log xi(2s) - log xi(-2s) at every point of the complex
    array s, with no pole/zero flags: the way S is evaluated at more
    than one point.  Its phase is not folded into (-pi, pi]."""
    s = np.asarray(s, dtype=complex)
    return log_xi_array(2.0 * s) - log_xi_array(-2.0 * s)


def jost_plus(s):
    """Zero-energy Jost function F+(s) = xi(-2s)/xi(2s) = 1/S(s)."""
    m = s_matrix(s)
    return SMatrixValue(s=m.s, log_value=-m.log_value,
                        pole_flag=m.zero_flag, zero_flag=m.pole_flag)


def zero_to_jost_zero(t_n):
    """Map a zeta-zero ordinate to the predicted F+ zero p = -1/4 + i
    t_n/2, checking the contract: |F+| < 1e-6 there, and F+ = exp(-log
    S) winds once around a 0.05-radius box about the point.  Returns
    the F+ value at p (its .s is p), so callers need not evaluate S
    there again.  A failure falsifies the implementation, not the
    correspondence.
    """
    p = complex(-0.25, 0.5 * t_n)
    fp = jost_plus(p)
    mag = math.exp(fp.log_value.real)
    if not (mag < 1e-6 and fp.zero_flag):
        raise VerificationError(
            "|F+| = %.3g at %s; expected a zero there" % (mag, p))
    rect = ContourRectangle(p.real - 0.05, p.real + 0.05,
                            p.imag - 0.05, p.imag + 0.05)
    w = winding_number(lambda zs: np.exp(-log_s_matrix(zs)), rect)
    if w != 1:
        raise VerificationError(
            "winding of F+ around %s is %d, expected 1" % (p, w))
    return fp


def coupling_at_zero(t_n):
    """Coupling lambda = rho (rho - 1) at rho = 1/2 + i t_n.

    On the critical line this is exactly -(1/4 + t_n^2): real, below
    -1/4.  Computed in that closed form so Im is exactly zero.
    """
    return complex(-(0.25 + t_n * t_n), 0.0)


def coupling_from_root(rho):
    """lambda = rho (rho - 1) for an arbitrary (hypothetical) zero rho.

    Off the critical line Im lambda = 2 t (sigma - 1/2) != 0; callers
    use this as the negative control.
    """
    rho = complex(rho)
    return rho * (rho - 1.0)


def flat_wave(s, y):
    """Zero Fourier coefficient y^{1/2+s} + S(s) y^{1/2-s} of the
    Eisenstein wave, for y > 0."""
    if y <= 0:
        raise ValueError("flat_wave requires y > 0")
    s = complex(s)
    m = s_matrix(s)
    if m.pole_flag:
        raise VerificationError("S(s) has a pole at %s" % s)
    sv = cmath.exp(m.log_value)
    ly = math.log(y)
    return cmath.exp((0.5 + s) * ly) + sv * cmath.exp((0.5 - s) * ly)
