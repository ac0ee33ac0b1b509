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
# _mod_tau's constants as a short high part plus the rest: 2 pi in 33
# bits, so that its product with an integer below 2^20 is exact, log 2
# and log pi in 14.  x + _ROUND - _ROUND rounds x to an integer for
# |x| < 2^51, and y _SPLIT splits y into two halves of 26 bits.
_TAU_HI, _TAU_LO = 6.2831853069365025, 2.430840202602477e-10
_LN2_HI, _LN2_LO = 0.69317626953125, -2.908897130469058e-05
_LOG_PI_HI, _LOG_PI_LO = 1.14471435546875, 1.5530380650174144e-05
_ROUND, _SPLIT = 1.5 * 2.0 ** 52, 2.0 ** 27 + 1.0

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
    |z| <= 200.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError("log_gamma pole at nonpositive integer %g" % z.real)
    if z.real < 0.5:
        n = round(z.real)  # z - n is exact: sin stays accurate at a pole
        w = (_LOG_PI - _log_sin(math.pi * (z - n)) - 1j * math.pi * n
             - log_gamma(1.0 - z))
        return _normalize_phase(w)
    return _normalize_phase(_stirling(z))


def _mod_tau(y, hi, lo):
    """y (hi + lo) mod 2 pi, in about (-pi, pi], for a number or an array
    y, hi of at most 26 bits and |lo| < 1: y hi is summed exactly from the
    halves of y (Dekker, Numer. Math. 18, 1971), so the result rounds at
    its own size, not at that of y hi (5.7e-14 at 300 rad)."""
    c = _SPLIT * y
    y_hi = c - (c - y)
    p = y_hi * hi
    n = p / math.tau + _ROUND - _ROUND
    # p - n _TAU_HI is exact: n _TAU_HI is a float within pi of p
    return (p - n * _TAU_HI) + ((y - y_hi) * hi + y * lo - n * _TAU_LO)


def _stirling(z, over_pi=False):
    """log Gamma(z) for a number z, by cmath and math, or an array z, by
    numpy; over_pi takes i Im(z) log pi from it.  Stirling at w = z + n,
    Re w >= 12: n = 12 - Re z rounded up for a number with Re z >= 1/2,
    and n = 11 for an array, whose points z = s/2 + 1 from log_xi have
    Re z >= 1, so a point reads the same value in any batch.  One log of
    q = prod (z + j) / w for the shift: its n factors have modulus in
    [1/25, 1], so q cannot overflow.  The large phase Im(w) (log|w| - 1),
    less Im(z) log pi, is reduced mod 2 pi before it rounds."""
    array = isinstance(z, np.ndarray)
    lib, log = (np, np.log) if array else (math, cmath.log)
    n = 11 if array else max(0, math.ceil(12.0 - z.real))
    w = z + n
    zi = 1.0 / w
    q = 1.0
    for j in range(n):
        q = q * ((z + j) * zi)
    lw = log(w)
    # log|w| = k log 2 + log m, with |w| = m 2^k and m in [sqrt(1/2),
    # sqrt(2)), is within 2e-16, and the high part of the factor of Im(w)
    # is exact
    m, k = lib.frexp(lib.hypot(w.real, w.imag))
    low = m * m < 0.5
    m, k = m + m * low, k - low
    phase = _mod_tau(w.imag, k * _LN2_HI - (1.0 + over_pi * _LOG_PI_HI),
                     k * _LN2_LO - over_pi * _LOG_PI_LO + lib.log1p(m - 1.0))
    res = ((w.real - 0.5) * (lw - 1.0) - w.imag * lw.imag + 1j * phase
           + _STIRLING_CONST - (n * lw + log(q)))
    z2 = zi * zi
    term = zi
    for c in _STIRLING:
        res += c * term
        term *= z2
    return res


def _trapezoid_step(nu, x):
    """Step of the trapezoid sums for K_nu(x) and H1_nu(x), for a number
    or an array x.  Their error falls like e^(-2 pi b / h) (Trefethen and
    Weideman, SIAM Review 56, 2014) against the growth e^(|Im nu| b) and
    e^(x b^2 / 2) of the integrand at distance b off the real axis."""
    return np.minimum(0.1, math.tau / (abs(nu.imag) + 40.0
                                       + 13.0 * np.sqrt(x)))


def bessel_k(nu, y):
    """Modified Bessel K of complex order for y > 0 and |Re nu| <= 5;
    real for real nu and for purely imaginary nu.  y may be a number,
    which gives a complex, or an array, which gives an array of its shape.

    One trapezoid sum of int_0^oo exp(-y cosh t) cosh(nu t) dt (DLMF
    10.32.9) per y, to the cut T where y (cosh T - 1) = 40 + 5 T with a
    step no longer than _trapezoid_step's.  The y whose cut / step lie in
    one [2^(g-1), 2^g) share a grid: their smallest step, to their largest
    cut, in chunks of at most MAX_GRID_POINTS nodes.  Against mpmath for
    1e-20 <= y <= 700 it is within 1e-14 relative at real order.  At
    complex order the terms, of the size of K_Re(nu)(y), cancel down to
    |K|: within 1e-14 K_Re(nu)(y), which is 1e-11 relative at nu = 5i and
    1e-10 at 7i, y = 1e-20.  DomainError for a y that is not finite and
    positive, RangeError for a sum above MAX_GRID_POINTS nodes (|Im nu|
    beyond about 10^5 at y = 1e-20).
    """
    nu = complex(nu)
    ys = np.asarray(y, dtype=float)
    flat = ys.ravel()
    if not np.all((flat > 0.0) & (flat < math.inf)):
        raise DomainError("bessel_k requires finite y > 0")
    if abs(nu.real) > BESSEL_K_MAX_REAL_ORDER:
        raise RangeError("|Re nu| > %g unsupported" % BESSEL_K_MAX_REAL_ORDER)
    r = np.sqrt(flat)
    cut = np.zeros_like(flat)
    for _ in range(4):  # fixed point of 2 y sinh^2(T/2) = 40 + 5 T
        cut = 2.0 * np.arcsinh(np.sqrt(20.0 + 2.5 * cut) / r)
    step = _trapezoid_step(nu, flat)
    v = np.empty(flat.size, dtype=complex)
    group = np.frexp(np.ceil(cut / step))[1]  # step counts in [2^(g-1), 2^g)
    for g in np.unique(group):
        rows = np.flatnonzero(group == g)
        h = step[rows].min()
        m = cut[rows].max() / h
        if not m < MAX_GRID_POINTS:
            raise RangeError("bessel_k would sum more than %d nodes"
                             % MAX_GRID_POINTS)
        t = h * np.arange(math.ceil(m) + 1)
        # -y cosh t = -y - 2 (sqrt(y) sinh(t/2))^2 keeps the exponent
        # accurate near t = 0 and finite for tiny y; e^-y comes out of the
        # sum, and the rows share cosh(nu t), Re and Im apart
        w = np.cosh(nu * t)
        w[0] *= 0.5
        w = np.array([w.real, w.imag])
        u = np.sinh(0.5 * t)
        for rows in np.array_split(rows, -(-rows.size * t.size
                                          // MAX_GRID_POINTS)):
            re, im = np.einsum("ij,kj->ki", np.exp(
                -2.0 * np.multiply.outer(r[rows], u) ** 2), w)
            v[rows] = h * np.exp(-flat[rows]) * (re + 1j * im)
    if nu.imag == 0.0 or nu.real == 0.0:
        v.imag = 0.0
    return complex(v[0]) if ys.ndim == 0 else v.reshape(ys.shape)


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
    The phase of exp(-nu t) depends on the node alone, so, as in
    bessel_k, its factor is formed once per node and each x takes only
    real exponentials.  Against mpmath for 1e-6 <= x <= 30 and
    |Re nu| <= 5 it is within 1.1e-14 relative at real order.  Phase
    rounding grows with the range e^(pi |Im nu|) of the terms: 3e-14 for
    |Im nu| <= 2, 9e-14 at order 3i, 9e-13 at 0.62 + 3i, x = 2.5e-3.
    Below x = 1e-6, down to 5e-324, log x -+ u cancel from about 700:
    measured at 20 x per order, each alone, 6.9e-14 at real order to 2.5,
    3.2e-13 at imaginary order to 2i, 1.2e-12 at 2.2i and 2.5e-12 at 3i.

    x may be a number, which gives a complex, or an array of arguments,
    which gives an array of that shape.  An array takes one node grid:
    the step of its largest x and the range of its smallest, each row's
    largest exponent taken out on its own.  So tiny x reads more beside
    x = 30: [5e-324, 1e-300, 1e-6, 1, 30] is within 3.7e-13 at order 2i,
    4.1e-12 at 2.2i and 5.5e-12 at 3i.  RangeError for an empty
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
    p = 0.5 * math.pi + g
    # the rows share the node's factor, Re and Im apart
    unit = np.exp(-1j * (nu.real * p + nu.imag * u)) * (1.0 + 1j * np.cos(g))
    # -x sinh u from exponentials of log x -+ u stays finite for subnormal
    # x; on the rows of larger x it may overflow to -inf, a zero term
    with np.errstate(over="ignore"):
        e = (0.5 * (np.exp(lx - u) - np.exp(lx + u)) * np.sin(g)
             - (nu.real * u - nu.imag * p))
    m = e.max(axis=1)
    re, im = np.einsum("ij,kj->ki", np.exp(e - m[:, None]),
                       np.array([unit.real, unit.imag]))
    w = m + 1j * (flat - 0.5 * math.pi) + np.log(h / math.pi * (re + 1j * im))
    if not (w.real < _LOG_FLOAT_MAX).all():
        raise RangeError("|H1_nu(x)| overflows a float")
    v = np.exp(w)
    return complex(v[0]) if xs.ndim == 0 else v.reshape(xs.shape)
