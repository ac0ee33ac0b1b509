"""Complex special functions: log-gamma, modified Bessel K of complex
order, and the Hankel function of the first kind of complex order.

Supported ranges are the documented desk-scale windows; outside them a
RangeError is raised rather than returning degraded values.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, RangeError

# B_2k / (2k (2k-1)) for the Stirling series of log Gamma.
_STIRLING = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188,
             -691.0 / 360360, 1.0 / 156, -3617.0 / 122400, 43867.0 / 244188)

_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)

BESSEL_K_MAX_REAL_ORDER = 5.0
HANKEL_MAX_ARGUMENT = 30.0


@dataclass(frozen=True)
class ComplexOrder:
    nu: complex

    def __post_init__(self):
        if not (math.isfinite(self.nu.real) and math.isfinite(self.nu.imag)):
            raise ValueError("order must be finite")


def _as_order(nu):
    return nu.nu if isinstance(nu, ComplexOrder) else complex(nu)


def _normalize_phase(w):
    """Fold Im(w) into (-pi, pi] so exp(w) is branch-independent."""
    return complex(w.real, (w.imag + math.pi) % (2.0 * math.pi) - math.pi)


def _log_sin(z):
    """log sin z, stable for large |Im z| (sin overflows there)."""
    if abs(z.imag) < 1.0:
        return cmath.log(cmath.sin(z))
    if z.imag > 0:
        return -1j * z + cmath.log((1.0 - cmath.exp(2j * z)) / (-2j))
    return 1j * z + cmath.log((1.0 - cmath.exp(-2j * z)) / (2j))


def log_gamma(z):
    """Principal-value log Gamma: exp(log_gamma(z)) = Gamma(z), phase in
    (-pi, pi].

    Stirling series after an upward recurrence shift (Re z >= 12);
    reflection formula for Re z < 1/2.  Relative accuracy ~1e-14 for
    |z| <= 200.  z may also be a complex array with Re z >= 1/2
    throughout; every point then takes the shift of the leftmost one.
    """
    if isinstance(z, np.ndarray):
        lo = z.real.min(initial=12.0)
        if lo < 0.5:
            raise DomainError("array log_gamma needs Re z >= 1/2")
        shifts = max(0, math.ceil(12.0 - lo))
        acc = sum(np.log(z + j) for j in range(shifts))
        res = _stirling(z + shifts, np.log) - acc
        return res.real + 1j * ((res.imag + math.pi) % (2.0 * math.pi)
                                - math.pi)
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError("log_gamma pole at nonpositive integer %g" % z.real)
    if z.real < 0.5:
        w = _LOG_PI - _log_sin(math.pi * z) - log_gamma(1.0 - z)
        return _normalize_phase(w)
    acc = 0j
    w = z
    while w.real < 12.0:
        acc += cmath.log(w)
        w += 1.0
    return _normalize_phase(_stirling(w, cmath.log) - acc)


def _stirling(w, log):
    """Stirling series for log Gamma(w), Re w >= 12; log is cmath.log
    for a number or np.log for an array."""
    res = (w - 0.5) * log(w) - w + 0.5 * _LOG_2PI
    zi = 1.0 / w
    z2 = zi * zi
    term = zi
    for c in _STIRLING:
        res += c * term
        term *= z2
    return res


def bessel_k(nu, y):
    """Modified Bessel K of complex order for y > 0 and |Re nu| <= 5;
    real for real nu and for purely imaginary nu.

    One trapezoid sum of int_0^oo exp(-y cosh t) cosh(nu t) dt (DLMF
    10.32.9).  Its error falls like e^(-2 pi b / h) (Trefethen and
    Weideman, SIAM Review 56, 2014) against the growth e^(|Im nu| b) and
    e^(y b^2 / 2) of the integrand at Im t = b, hence the step below.
    The sum stops where y (cosh T - 1) >= 40 + 5 T.  Against mpmath for
    1e-20 <= y <= 700 it is within 1e-14 relative, except that at
    imaginary order the terms cancel down to |K| ~ e^(-pi |nu| / 2):
    3e-12 relative at nu = 5i, 1e-10 at nu = 7i, y = 1e-20.
    """
    nu = _as_order(nu)
    if not 0.0 < y < math.inf:
        raise DomainError("bessel_k requires finite y > 0")
    if abs(nu.real) > BESSEL_K_MAX_REAL_ORDER:
        raise RangeError("|Re nu| > %g unsupported" % BESSEL_K_MAX_REAL_ORDER)
    r = math.sqrt(y)
    h = min(0.1, 2.0 * math.pi / (abs(nu.imag) + 40.0 + 13.0 * r))
    cut = 0.0
    for _ in range(4):  # fixed point of 2 y sinh^2(T/2) = 40 + 5 T
        cut = 2.0 * math.asinh(math.sqrt(20.0 + 2.5 * cut) / r)
    t = h * np.arange(int(cut / h) + 1)
    # -y cosh t = -y - 2 (sqrt(y) sinh(t/2))^2 keeps the exponent accurate
    # near t = 0 and finite for tiny y; e^-y comes out of the sum.
    e = -2.0 * (r * np.sinh(0.5 * t)) ** 2
    f = np.exp(e + nu * t) + np.exp(e - nu * t)
    v = 0.5 * h * math.exp(-y) * (f.sum() - 0.5 * f[0])
    if nu.imag == 0.0 or nu.real == 0.0:
        return complex(v.real, 0.0)
    return complex(v)


def _bessel_j_series(nu, x):
    """Power series for J_nu(x); accurate for x <= 30 and moderate order."""
    t = cmath.exp(nu * cmath.log(0.5 * x) - log_gamma(nu + 1.0))
    total = t
    q = -0.25 * x * x
    m = 0
    while True:
        m += 1
        t *= q / (m * (nu + m))
        total += t
        if abs(t) < 1e-18 * max(abs(total), 1e-30) and m > 0.5 * x:
            return total
        if m > 500:
            return total


def hankel1(nu, x):
    """Hankel function of the first kind, complex order, 0 < x <= 30.

    Uses H1_nu = (J_{-nu} - e^{-i nu pi} J_nu) / (i sin nu pi); integer
    order is handled by averaging nu +- eps (the O(eps) terms cancel).
    Half-integer orders collapse to the closed elementary form.
    """
    nu = _as_order(nu)
    if not 0.0 < x <= HANKEL_MAX_ARGUMENT:
        raise RangeError("hankel1 supports 0 < x <= %g" % HANKEL_MAX_ARGUMENT)
    if nu.imag == 0.0 and abs(abs(nu.real) - 0.5) < 1e-14:
        w = math.sqrt(2.0 / (math.pi * x))
        if nu.real > 0:  # H1_{1/2}(x) = -i sqrt(2/(pi x)) e^{ix}
            return -1j * w * cmath.exp(1j * x)
        return w * cmath.exp(1j * x)  # H1_{-1/2}(x)
    if nu.imag == 0.0 and abs(nu.real - round(nu.real)) < 1e-9:
        eps = 1e-6
        return 0.5 * (_hankel1_noninteger(nu.real + eps, x)
                      + _hankel1_noninteger(nu.real - eps, x))
    return _hankel1_noninteger(nu, x)


def _hankel1_noninteger(nu, x):
    nu = complex(nu)
    jp = _bessel_j_series(nu, x)
    jm = _bessel_j_series(-nu, x)
    return (jm - cmath.exp(-1j * math.pi * nu) * jp) / (
        1j * cmath.sin(math.pi * nu))
