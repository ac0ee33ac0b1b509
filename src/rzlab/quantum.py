"""Quantum-mechanical side: inverse-square potential with an infinite
barrier at the origin, zero-energy solutions, the Hankel Jost solution,
the Bessel-K moment integral, and the reality argument for the
zero-energy coupling spectrum.

Units: 2m/hbar^2 = 1, so the coupling is dimensionless and V = lambda/y^2.

numpy is the only dependency: the Jost ODE is integrated by a Magnus
propagator written here, not by a general-purpose solver.
"""

import cmath
import math

import numpy as np

from .errors import (DivergenceError, DomainError, IntegrationLimitError,
                     PoleError, PreconditionError, RangeError)
from .numerics import integrate_adaptive, QuadratureResult
from .specfun import _log_sin, bessel_k, hankel1, log_gamma

ODE_Y_FLOOR = 1e-3
# jost_solution_ode's step rule: the largest advance of the phase k y
# plus the potential's scale sqrt(|lambda| + 1) per step, in log y.
_ODE_STEP = 0.05
# Gauss-Legendre nodes of a step, as fractions of it.
_GAUSS = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
# k_moment_integral's quadrature ends in y, its series/quadrature split,
# the terms per I series, and the largest |Im nu| its scale follows.
_MOMENT_Y_MIN, _MOMENT_Y_MAX = 1e-20, 60.0
_MOMENT_SPLIT = 0.5
_MOMENT_TERMS = 12
_MOMENT_MAX_SCALED_IM = 8.0
# From this |Im nu| on, bessel_k's real-axis trapezoid cancels from O(1)
# terms down to |K| ~ e^(-pi |Im nu| / 2), and the relative error of
# k_moment_integral nears or passes the 1e-9 khuri asks of it: against
# pi nu / (2 sin pi nu), worst over Re nu in {0.05, 0.2, 0.5, 0.8}, it
# is 3.3e-11 at |Im nu| = 9, 7.7e-10 at 10, 1.8e-8 at 10.5, 1.5e-5 at
# 12 and 1.5 at 21.  Only its absolute error stays small.
MOMENT_RELATIVE_IM_MAX = 10.0


def order_from_coupling(lam):
    """nu = sqrt(lambda + 1/4), principal root with Re nu >= 0 (ties
    broken to Im nu >= 0); K symmetry makes the choice observable-neutral."""
    nu = cmath.sqrt(complex(lam) + 0.25)
    if nu.real < 0 or (nu.real == 0 and nu.imag < 0):
        nu = -nu
    return nu


def potential(lam, y):
    """V(y) = lambda / y^2 for y > 0; y <= 0 is inside the infinite
    barrier."""
    if y <= 0:
        raise DomainError("barrier region: V = infinity for y <= 0")
    v = complex(lam) / (y * y)
    return v.real if v.imag == 0 else v


def _sinhc(x):
    """sinh(x)/x, stable at x -> 0."""
    if abs(x) < 1e-5:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return cmath.sinh(x) / x


def zero_energy_solutions(s, y):
    """The pair ((y^s + y^{1-s})/2, (y^s - y^{1-s})/(2s - 1)).

    Near s = 1/2 the second solution is taken by its limit
    y^{1/2} log y (via sinh series), keeping both branches finite.
    """
    if y <= 0:
        raise DomainError("solutions live on y > 0")
    s = complex(s)
    ly = math.log(y)
    u1 = 0.5 * (cmath.exp(s * ly) + cmath.exp((1.0 - s) * ly))
    delta = s - 0.5  # y^s - y^{1-s} = 2 sqrt(y) sinh(delta ln y)
    u2 = math.sqrt(y) * ly * _sinhc(delta * ly)
    return u1, u2


def jost_solution_analytic(k, nu, y):
    """Jost solution sqrt(pi k y / 2) e^{i(pi nu/2 + pi/4)} H1_nu(k y).

    y may be a number, which gives a complex, or a list or array, which
    gives an array from one hankel1 call.  Half-integer nu = 1/2 collapses
    exactly to the plane wave e^{iky}.
    """
    ys = np.asarray(y, dtype=float)
    if not (k > 0 and np.all(ys > 0)):
        raise DomainError("need k > 0 and y > 0")
    nu = complex(nu)
    if nu.imag == 0.0 and abs(nu.real - 0.5) < 1e-14:
        f = np.exp(1j * k * ys)
    else:
        phase = cmath.exp(1j * (0.5 * math.pi * nu + 0.25 * math.pi))
        f = np.sqrt(0.5 * math.pi * k * ys) * phase * hankel1(nu, k * ys)
    return complex(f) if ys.ndim == 0 else f


def asymptotic_residual(k, nu, y):
    """|f(k, y) e^{-iky} - 1| = |f(k, y) - e^{iky}|: deviation from the
    plane-wave limit (the difference form is exact at nu = 1/2)."""
    f = jost_solution_analytic(k, nu, y)
    return abs(f - cmath.exp(1j * k * y))


def _plane_wave_tail(k, nu, y):
    """(f, f') at large ky from e^{iky} sum_{m <= 14} i^m a_m(nu) / (ky)^m,
    the standard large-argument expansion whose m = 0 term is the bare
    plane wave; independent of hankel1's Sommerfeld integral."""
    x = k * y
    a = 1.0 + 0j
    s = a
    ds = 0j  # d/dx of the sum
    for m in range(1, 15):
        a *= (4.0 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m)
        term = (1j ** m) * a / x ** m
        s += term
        ds += term * (-m) / x
        if abs(term) < 1e-16:
            break
    e = cmath.exp(1j * x)
    return e * s, k * e * (1j * s + ds)


def _bracket(a, b):
    """[a, b] of traceless 2x2 matrices, each held as the rows (alpha,
    beta, gamma) of [[alpha, beta], [gamma, -alpha]]."""
    return np.array([a[1] * b[2] - b[1] * a[2],
                     2.0 * (a[0] * b[1] - b[0] * a[1]),
                     2.0 * (b[0] * a[2] - a[0] * b[2])])


def jost_solution_ode(k, lam, y_end, y_start):
    """Independent route to the Jost solution: integrate
    f'' = (V - k^2) f inward from the plane-wave regime at y_start.

    Requires y_start inside the asymptotic regime (plane-wave residual
    below 0.2 there; the boundary values themselves come from the
    large-argument tail expansion, so the O(1/ky) plane-wave error does
    not limit accuracy), y_start^2 finite for the potential lam/y^2,
    and y_end above the singular-origin floor 1e-3.
    Returns [(y, f(y))] at 200 evenly spaced y from y_end to y_start.

    The system u' = A u, u = (f, f'), A = [[0, 1], [q, 0]] with q =
    lambda/y^2 - k^2, is linear, so each step's propagator exp(Omega)
    is closed form: Omega is the sixth-order Magnus sum of Blanes, Casas
    and Ros (BIT 40, 2000) from q at the step's three Gauss nodes, and
    since Omega is traceless, exp(Omega) = cosh(d) I + (sinh(d)/d) Omega
    with d^2 = -det Omega.  Every step's propagator comes from one numpy
    pass; a Python loop carries u through them.  Output interval y_i >
    y_i+1 takes (k y_i + sqrt(|lambda| + 1)) log(y_i / y_i+1) / 0.05
    steps, rounded up and spaced geometrically: the steps follow the
    phase k y and the potential's scale in log y, so an interval that
    spans decades at tiny k stays a few thousand steps.  The
    preconditions bound the total to about 28,000.  Against mpmath, on
    lambda in [-5, 6] (also complex, |Im lambda| <= 3) and k in [0.3, 3],
    it is within 2e-12 relative on 1 <= y <= 10 and at y_start.
    """
    if not (y_start > y_end > 0):
        raise PreconditionError("need y_start > y_end > 0")
    y_max = float(y_start)
    if math.isinf(y_max * y_max):
        raise RangeError("y_start = %g is too large: y^2 overflows" % y_start)
    if y_end < ODE_Y_FLOOR:
        raise IntegrationLimitError(
            "cannot integrate through the y -> 0 singularity (floor %g)"
            % ODE_Y_FLOOR)
    lam = complex(lam)
    nu = order_from_coupling(lam)
    f, g = _plane_wave_tail(k, nu, y_start)
    # the tail's own residual |f e^{-iky} - 1|; not ... < refuses a NaN
    if not abs(f * cmath.exp(-1j * k * y_start) - 1.0) < 2e-1:
        raise PreconditionError(
            "y_start too small: not yet in the plane-wave regime")

    ys = np.linspace(y_max, y_end, 200)
    log_ratio = np.log(ys[1:] / ys[:-1])
    n = np.maximum(1, np.ceil((k * ys[:-1] + math.sqrt(abs(lam) + 1.0))
                              * -log_ratio / _ODE_STEP)).astype(int)
    # step j of interval i runs from ys[i] (ys[i+1] / ys[i])^(j / n_i)
    interval = np.repeat(np.arange(len(n)), n)
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    left = ys[interval] * np.exp(j / n[interval] * log_ratio[interval])
    h = np.diff(np.append(left, ys[-1]))
    q1, q2, q3 = lam / (left + np.multiply.outer(_GAUSS, h)) ** 2 - k * k
    zero = np.zeros_like(q2)
    a1 = np.array([zero, h, h * q2])
    a2 = np.array([zero, zero, math.sqrt(15.0) / 3.0 * h * (q3 - q1)])
    a3 = np.array([zero, zero, 10.0 / 3.0 * h * (q3 - 2.0 * q2 + q1)])
    c1 = _bracket(a1, a2)
    c2 = -_bracket(a1, 2.0 * a3 + c1) / 60.0
    alpha, beta, gamma = (a1 + a3 / 12.0
                          + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0)
    d2 = alpha * alpha + beta * gamma
    d = np.sqrt(d2)
    ch = np.cosh(d)
    small = np.abs(d) < 1e-3  # sinh(d)/d by its series there
    d = np.where(small, 1.0, d)
    sh = np.where(small, 1.0 + d2 / 6.0 + d2 * d2 / 120.0, np.sinh(d) / d)
    fs = [f]
    for e00, e01, e10, e11 in zip(*(v.tolist() for v in (
            ch + sh * alpha, sh * beta, sh * gamma, ch - sh * alpha))):
        f, g = e00 * f + e01 * g, e10 * f + e11 * g
        fs.append(f)
    values = np.array(fs)[np.concatenate(([0], np.cumsum(n)))]
    if not np.isfinite(values).all():
        raise RangeError("the Jost solution overflows a float")
    samples = list(zip(ys.tolist(), values.tolist()))
    samples.reverse()  # ascending in y
    return samples


def k_moment_integral(nu, tol=1e-10):
    """The moment integral int_0^oo y K_nu(y)^2 dy, converging for
    |Re nu| < 1; real positive for real nu and for imaginary nu.

    One adaptive pass over y^2 K_nu(y)^2 in u = log y, up to y = 60
    (beyond, y K^2 ~ (pi/2) e^-2y is negligible).  For |Re nu| <= 1/2
    it starts at y = 1e-20, where y^2 K^2 vanishes at least like y.
    Beyond, y K^2 ~ y^(1 - 2 |Re nu|) is nearly singular at 0, so
    (0, 1/2] is integrated exactly from the I series and the pass
    starts at y = 1/2.  No closed form of the moment is used.
    """
    nu = complex(nu)
    if abs(nu.real) >= 1.0:
        raise DivergenceError("integral diverges for |Re nu| >= 1")
    _check_not_nonzero_integer(nu)
    # K_nu(y)^2 and the moment are of size e^(-pi |Im nu|): tol applies
    # to the integrand scaled by the inverse.  Beyond |Im nu| = 8 the
    # cancellation in bessel_k (about 1e-16 e^(pi |Im nu| / 2) relative)
    # would leave the scaled integrand noisier than tol.
    scale = math.exp(-math.pi * min(abs(nu.imag), _MOMENT_MAX_SCALED_IM))

    def f(u):
        y = math.exp(u)
        kv = bessel_k(nu, y)
        return y * y * kv * kv / scale

    lo, head = _MOMENT_Y_MIN, 0.0
    if abs(nu.real) > _MOMENT_SPLIT:
        lo, head = _MOMENT_SPLIT, _series_moment(nu, _MOMENT_SPLIT)
    res = integrate_adaptive(f, math.log(lo), math.log(_MOMENT_Y_MAX), tol)
    value = head + scale * res.value
    if nu.imag == 0.0:
        value = complex(value.real, 0.0)
    return QuadratureResult(value, scale * res.error_estimate,
                            res.evaluations)


def _series_moment(nu, a):
    """int_0^a y K_nu(y)^2 dy with K_nu = pi (I_-nu - I_nu) / (2 sin pi nu)
    (DLMF 10.27.4) and I_+-nu(y) = sum_k (y/2)^(2k +- nu) / (k! Gamma(k +-
    nu + 1)) (DLMF 10.25.2): the square is a sum of powers (y/2)^(2m + p),
    p in {-2 nu, 0, 2 nu}, each integrated exactly."""
    k = np.arange(_MOMENT_TERMS)
    # 1/Gamma(1 +- nu) grows like e^(pi |Im nu| / 2) and 1/sin(pi nu)
    # decays like e^(-pi |Im nu|): both leave the sums in log form.
    shift = 0.5 * math.pi * abs(nu.imag)

    def coefficients(order):
        ratio = np.concatenate(([1.0], 1.0 / (k[1:] * (k[1:] + order))))
        return cmath.exp(-log_gamma(1.0 + order) - shift) * np.cumprod(ratio)

    lo, hi = coefficients(-nu), coefficients(nu)
    m = np.arange(2 * _MOMENT_TERMS - 1)
    total = 0j
    for c, p in ((np.convolve(lo, lo), -2.0 * nu),
                 (-2.0 * np.convolve(lo, hi), 0.0),
                 (np.convolve(hi, hi), 2.0 * nu)):
        q = 2.0 * m + p + 2.0
        total += (c * (0.5 * a) ** q / q).sum()
    log_scale = math.log(0.5 * math.pi) - _log_sin(math.pi * nu) + shift
    return 4.0 * cmath.exp(2.0 * log_scale) * total


def _check_not_nonzero_integer(nu):
    if nu.imag == 0.0 and abs(nu.real - round(nu.real)) < 1e-12 \
            and round(nu.real) != 0:
        raise PoleError("closed form has a pole at integer nu = %g" % nu.real)


def k_moment_closed_form(nu, coefficient):
    """coefficient * pi nu / sin(pi nu), the closed-form candidate for
    the moment integral; the prefactor is left as a parameter and
    adjudicated against quadrature (see fit_moment_coefficient)."""
    nu = complex(nu)
    _check_not_nonzero_integer(nu)
    if nu == 0:
        return complex(coefficient)
    v = coefficient * math.pi * nu / cmath.sin(math.pi * nu)
    return complex(v.real, 0.0) if abs(v.imag) < 1e-14 * abs(v) else v


def fit_moment_coefficient():
    """Measure the closed-form prefactor as quadrature / (pi nu / sin pi nu)
    at nu = 1/2, where the integral is elementarily pi/4.

    Standard tables give 1/2; the printed source value 1/8 disagrees
    with quadrature, and reports flag the discrepancy.
    """
    measured = k_moment_integral(0.5, tol=1e-10).value.real
    return measured / (math.pi * 0.5 / math.sin(math.pi * 0.5))


def khuri_reality_residual(lam):
    """|Im(lambda)| times the positive normalization integral
    (2/pi) int_0^oo y K_nu(y)^2 dy, with nu = sqrt(lambda + 1/4).

    Vanishes identically for real lambda; for couplings from
    critical-line zeros it is exactly zero.
    """
    lam = complex(lam)
    nu = order_from_coupling(lam)
    if abs(nu.real) >= 1.0:
        raise DivergenceError(
            "normalization integral diverges for |Re nu| >= 1")
    if lam.imag == 0.0:
        return 0.0  # integral is finite by the check above
    moment = k_moment_integral(nu, tol=1e-9)
    return abs(lam.imag) * (2.0 / math.pi) * abs(moment.value)
