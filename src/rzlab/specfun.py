"""Complex special functions: log-gamma, modified Bessel K of complex
order, and the Hankel function of the first kind of complex order.

Supported ranges are the documented desk-scale windows; outside them a
RangeError is raised rather than returning degraded values.
"""

import cmath
import math

import numpy as np

from .errors import DomainError, PoleError, RangeError
from .numerics import MAX_GRID_POINTS, _fold_phase

# B_2k / (2k (2k-1)) for the Stirling series of log Gamma.
_STIRLING = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188,
             -691.0 / 360360, 1.0 / 156, -3617.0 / 122400, 43867.0 / 244188)

_LOG_PI = math.log(math.pi)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_STIRLING_CONST = 0.5 * math.log(2.0 * math.pi) - 0.5

BESSEL_K_MAX_REAL_ORDER = 5.0
HANKEL_MAX_ARGUMENT = 30.0


def _normalize_phase(w):
    """Fold Im(w) into (-pi, pi] so exp(w) is branch-independent; w may
    be a number or an array."""
    return w.real + 1j * _fold_phase(w.imag)


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
        if z.real.min(initial=12.0) < 0.5:
            raise DomainError("array log_gamma needs Re z >= 1/2")
        return _normalize_phase(_stirling(z, np.log))
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError("log_gamma pole at nonpositive integer %g" % z.real)
    if z.real < 0.5:
        n = round(z.real)  # z - n is exact: sin stays accurate at a pole
        w = (_LOG_PI - _log_sin(math.pi * (z - n)) - 1j * math.pi * n
             - log_gamma(1.0 - z))
        return _normalize_phase(w)
    return _normalize_phase(_stirling(z, cmath.log))


def _stirling(z, log):
    """log Gamma(z), Re z >= 1/2, unfolded, for a number or an array z
    with log = cmath.log or np.log to match.  Stirling at w = z + n, with
    n = 12 - Re z rounded up at the leftmost point, so Re w >= 12
    throughout, and one log of q = prod (z + j) / w for the shift: its n
    factors have modulus in [1/25, 1], so q cannot overflow."""
    lo = z.real.min(initial=12.0) if isinstance(z, np.ndarray) else z.real
    n = max(0, math.ceil(12.0 - lo))
    w = z + n
    zi = 1.0 / w
    q = 1.0
    for j in range(n):
        q = q * ((z + j) * zi)
    lw = log(w)  # Im(w) (log|w| - 1) is the large phase, rounded once
    res = (w - 0.5) * (lw - 1.0) + _STIRLING_CONST - (n * lw + log(q))
    z2 = zi * zi
    term = zi
    for c in _STIRLING:
        res += c * term
        term *= z2
    return res


def _trapezoid_step(nu, x):
    """Step of the trapezoid sums for K_nu(x) and H1_nu(x).  Their error
    falls like e^(-2 pi b / h) (Trefethen and Weideman, SIAM Review 56,
    2014) against the growth e^(|Im nu| b) and e^(x b^2 / 2) of the
    integrand at distance b off the real axis."""
    return min(0.1, math.tau / (abs(nu.imag) + 40.0 + 13.0 * math.sqrt(x)))


def bessel_k(nu, y):
    """Modified Bessel K of complex order for y > 0 and |Re nu| <= 5;
    real for real nu and for purely imaginary nu.

    One trapezoid sum of int_0^oo exp(-y cosh t) cosh(nu t) dt (DLMF
    10.32.9) with the step of _trapezoid_step, stopped where y (cosh T
    - 1) >= 40 + 5 T.  Against mpmath for 1e-20 <= y <= 700 it is within
    1e-14 relative, except that at imaginary order the terms cancel down
    to |K| ~ e^(-pi |nu| / 2): 3e-12 relative at nu = 5i, 1e-10 at
    nu = 7i, y = 1e-20.  RangeError for a sum above MAX_GRID_POINTS
    nodes (|Im nu| beyond about 10^5 at y = 1e-20).
    """
    nu = complex(nu)
    if not 0.0 < y < math.inf:
        raise DomainError("bessel_k requires finite y > 0")
    if abs(nu.real) > BESSEL_K_MAX_REAL_ORDER:
        raise RangeError("|Re nu| > %g unsupported" % BESSEL_K_MAX_REAL_ORDER)
    r = math.sqrt(y)
    h = _trapezoid_step(nu, y)
    cut = 0.0
    for _ in range(4):  # fixed point of 2 y sinh^2(T/2) = 40 + 5 T
        cut = 2.0 * math.asinh(math.sqrt(20.0 + 2.5 * cut) / r)
    if cut / h > MAX_GRID_POINTS:
        raise RangeError("bessel_k would sum more than %d nodes"
                         % MAX_GRID_POINTS)
    t = h * np.arange(int(cut / h) + 1)
    # -y cosh t = -y - 2 (sqrt(y) sinh(t/2))^2 keeps the exponent accurate
    # near t = 0 and finite for tiny y; e^-y comes out of the sum.
    e = -2.0 * (r * np.sinh(0.5 * t)) ** 2
    f = np.exp(e + nu * t) + np.exp(e - nu * t)
    v = 0.5 * h * math.exp(-y) * (f.sum() - 0.5 * f[0])
    if nu.imag == 0.0 or nu.real == 0.0:
        return complex(v.real, 0.0)
    return complex(v)


def hankel1(nu, x):
    """Hankel function of the first kind, complex order, 0 < x <= 30.

    One trapezoid sum of the Sommerfeld integral (DLMF 10.9.10) on its
    steepest-descent path t = u + i (pi/2 + gd u), gd u = arctan(sinh u),
    through the saddle i pi/2: H1_nu(x) is e^(ix) / (pi i) times the
    integral over the real line of exp(-x sinh u tanh u - nu t)
    (1 + i sech u) du.  The x part keeps a constant phase on the path,
    and the integrand decays doubly exponentially at both ends.  The
    step is _trapezoid_step's; the sum runs from -L to U, the fixed
    points of x sinh L = 40 + 2 |Re nu| L and x sinh U = 40 + |Re nu| U.
    Against mpmath for 1e-6 <= x <= 30 and |Re nu| <= 5 it is within
    1e-14 relative at real order.  Phase rounding grows with the range
    e^(pi |Im nu|) of the terms: 3e-14 for |Im nu| <= 2, 2e-13 at order
    3i, 2.7e-12 at 0.62 + 3i, x = 2.5e-3.

    x may be a number, which gives a complex, or an array of arguments,
    which gives an array of that shape.  An array takes one node grid:
    the step of its largest x and the range of its smallest, each row's
    largest exponent taken out on its own.  RangeError for an empty
    array, for any x outside (0, 30], for a grid above MAX_GRID_POINTS
    nodes (|Im nu| beyond about 10^6), and where |H1| leaves the float
    range (nu = 2.5, x = 1e-200)."""
    nu = complex(nu)
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if not (flat.size and np.all((flat > 0.0) & (flat <= HANKEL_MAX_ARGUMENT))):
        raise RangeError("hankel1 supports 0 < x <= %g" % HANKEL_MAX_ARGUMENT)
    h = _trapezoid_step(nu, flat.max())
    a = abs(nu.real)
    x_min = float(flat.min())
    lx_min = math.log(x_min)
    lo = hi = 0.0
    for _ in range(4):  # asinh(c / x) without forming c / x
        lo, hi = [math.log(c + math.hypot(c, x_min)) - lx_min
                  for c in (40.0 + 2.0 * a * lo, 40.0 + a * hi)]
    if flat.size * (lo + hi) / h > MAX_GRID_POINTS:
        raise RangeError("hankel1 would sum more than %d nodes"
                         % MAX_GRID_POINTS)
    u = h * np.arange(-int(lo / h), int(hi / h) + 1)
    g = 2.0 * np.arctan(np.tanh(0.5 * u))  # sin g = tanh u, cos g = sech u
    lx = np.log(flat)[:, None]
    # -x sinh u from exponentials of log x -+ u stays finite for subnormal
    # x; on the rows of larger x it may overflow to -inf, a zero term
    with np.errstate(over="ignore"):
        e = (0.5 * (np.exp(lx - u) - np.exp(lx + u)) * np.sin(g)
             - nu * (u + 1j * (0.5 * math.pi + g)))
    m = e.real.max(axis=1)
    s = h / math.pi * (np.exp(e - m[:, None]) * (1.0 + 1j * np.cos(g))).sum(
        axis=1)
    w = m + 1j * (flat - 0.5 * math.pi) + np.log(s)
    if not (w.real < _LOG_FLOAT_MAX).all():
        raise RangeError("|H1_nu(x)| overflows a float")
    v = np.exp(w)
    return complex(v[0]) if xs.ndim == 0 else v.reshape(xs.shape)
