"""Quantum-mechanical side: inverse-square potential with an infinite
barrier at the origin, zero-energy solutions, the Hankel Jost solution,
the Bessel-K moment integral, and the reality argument for the
zero-energy coupling spectrum.

Units: 2m/hbar^2 = 1, so the coupling is dimensionless and V = lambda/y^2.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivergenceError, DomainError, IntegrationLimitError,
                     PoleError, PreconditionError, RangeError)
from .numerics import integrate_adaptive, QuadratureResult
from .specfun import _log_sin, bessel_k, hankel1, log_gamma

ODE_Y_FLOOR = 1e-3
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


@dataclass(frozen=True)
class PotentialSpec:
    """V(y) = coupling / y^2 for y > 0, infinite barrier for y <= 0."""
    coupling: complex


@dataclass(frozen=True)
class OrderParameter:
    coupling: complex
    nu: complex

    @staticmethod
    def from_coupling(lam):
        """nu = sqrt(lambda + 1/4), principal root with Re nu >= 0
        (ties broken to Im nu >= 0); K symmetry makes the choice
        observable-neutral."""
        lam = complex(lam)
        nu = cmath.sqrt(lam + 0.25)
        if nu.real < 0 or (nu.real == 0 and nu.imag < 0):
            nu = -nu
        return OrderParameter(coupling=lam, nu=nu)


def potential(spec, y):
    """lambda / y^2; y <= 0 is inside the infinite barrier."""
    if y <= 0:
        raise DomainError("barrier region: V = infinity for y <= 0")
    v = spec.coupling / (y * y)
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

    Half-integer nu = 1/2 collapses exactly to the plane wave e^{iky}.
    """
    if k <= 0 or y <= 0:
        raise DomainError("need k > 0 and y > 0")
    nu = complex(nu)
    if nu.imag == 0.0 and abs(nu.real - 0.5) < 1e-14:
        return cmath.exp(1j * k * y)
    amp = math.sqrt(0.5 * math.pi * k * y)
    phase = cmath.exp(1j * (0.5 * math.pi * nu + 0.25 * math.pi))
    return amp * phase * hankel1(nu, k * y)


def asymptotic_residual(k, nu, y):
    """|f(k, y) e^{-iky} - 1| = |f(k, y) - e^{iky}|: deviation from the
    plane-wave limit (the difference form is exact at nu = 1/2)."""
    f = jost_solution_analytic(k, nu, y)
    return abs(f - cmath.exp(1j * k * y))


def _plane_wave_tail(k, nu, y, n_terms=14):
    """(f, f') at large ky from e^{iky} sum_m i^m a_m(nu) / (ky)^m,
    the standard large-argument expansion whose m = 0 term is the bare
    plane wave; independent of hankel1's Sommerfeld integral."""
    x = k * y
    a = 1.0 + 0j
    s = a
    ds = 0j  # d/dx of the sum
    for m in range(1, n_terms + 1):
        a *= (4.0 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m)
        term = (1j ** m) * a / x ** m
        s += term
        ds += term * (-m) / x
        if abs(term) < 1e-16:
            break
    e = cmath.exp(1j * x)
    return e * s, k * e * (1j * s + ds)


def jost_solution_ode(k, lam, y_end, y_start, n_samples=200,
                      rtol=1e-11, atol=1e-12):
    """Independent route to the Jost solution: integrate
    f'' = (V - k^2) f inward from the plane-wave regime at y_start.

    Requires y_start inside the asymptotic regime (plane-wave residual
    below 0.2 there; the boundary values themselves come from the
    large-argument tail expansion, so the O(1/ky) plane-wave error does
    not limit accuracy), y_start^2 finite for the potential lam/y^2,
    and y_end above the singular-origin floor 1e-3.
    Returns [(y, f(y))] on a uniform grid from y_end up to y_start.
    """
    # scipy.integrate takes most of a second to import, and no other
    # function here needs it.
    from scipy.integrate import solve_ivp

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
    nu = OrderParameter.from_coupling(lam).nu
    if asymptotic_residual(k, nu, y_start) >= 2e-1:
        raise PreconditionError(
            "y_start too small: not yet in the plane-wave regime")

    f0, df0 = _plane_wave_tail(k, nu, y_start)

    def rhs(y, u):
        fr, fi, gr, gi = u
        f = complex(fr, fi)
        d2 = (lam / (y * y) - k * k) * f
        return [gr, gi, d2.real, d2.imag]

    ys = np.linspace(y_start, y_end, n_samples)
    sol = solve_ivp(rhs, (y_start, y_end),
                    [f0.real, f0.imag, df0.real, df0.imag],
                    t_eval=ys, rtol=rtol, atol=atol, method="DOP853")
    if not sol.success:
        raise IntegrationLimitError("ODE integration failed: %s" % sol.message)
    samples = [(float(y), complex(fr, fi))
               for y, fr, fi in zip(sol.t, sol.y[0], sol.y[1])]
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


def fit_moment_coefficient(tol=1e-10):
    """Measure the closed-form prefactor as quadrature / (pi nu / sin pi nu)
    at nu = 1/2, where the integral is elementarily pi/4.

    Standard tables give 1/2; the printed source value 1/8 disagrees
    with quadrature, and reports flag the discrepancy.
    """
    measured = k_moment_integral(0.5, tol=tol).value.real
    return measured / (math.pi * 0.5 / math.sin(math.pi * 0.5))


def khuri_reality_residual(lam, tau=1.0):
    """|Im(lambda)| times the positive normalization integral
    (2/pi)(1/tau) int_0^oo y K_nu(y)^2 dy, with nu = sqrt(lambda + 1/4).

    Vanishes identically for real lambda; for couplings from
    critical-line zeros it is exactly zero.
    """
    if tau <= 0:
        raise DomainError("tau must be positive")
    lam = complex(lam)
    nu = OrderParameter.from_coupling(lam).nu
    if abs(nu.real) >= 1.0:
        raise DivergenceError(
            "normalization integral diverges for |Re nu| >= 1")
    if lam.imag == 0.0:
        return 0.0  # integral is finite by the check above
    moment = k_moment_integral(nu, tol=1e-9)
    return abs(lam.imag) * (2.0 / math.pi) / tau * abs(moment.value)
