"""Riemann zeta on the desk-scale window and the completed xi function,
held in underflow-safe log form (|xi(1/2+it)| ~ exp(-pi t / 4)).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, RangeError
from .specfun import log_gamma, _log_sin, _normalize_phase

# Window: |t| large enough that a 100-ordinate zero catalog exists
# (t_100 ~ 236.5); Euler-Maclaurin stays well below 1e-12 there.
T_MAX = 260.0
SIGMA_MIN = -10.0

_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)

# Stieltjes constants gamma_0 .. gamma_4 for the Laurent expansion of
# (s-1) zeta(s) about s = 1.
_STIELTJES = (0.5772156649015329, -0.07281584548367672, -0.009690363192872318,
              0.002053834420303346, 0.0023253700654673)

# Bernoulli numbers B_2 .. B_12 for the Euler-Maclaurin correction terms.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


@dataclass(frozen=True)
class ComplexArgument:
    sigma: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise ValueError("components must be finite")

    @property
    def s(self):
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class SignedLogComplex:
    """w = exp(log_modulus + i phase), phase normalized to (-pi, pi].

    sign_hint is +-1 for real-valued contexts (phase near 0 vs pi).
    """
    log_modulus: float
    phase: float
    sign_hint: int = 1

    @staticmethod
    def from_log(logw):
        ph = (logw.imag + math.pi) % (2.0 * math.pi) - math.pi
        if ph == -math.pi:
            ph = math.pi
        return SignedLogComplex(logw.real, ph, 1 if abs(ph) < 0.5 * math.pi else -1)

    @staticmethod
    def from_complex(w):
        w = complex(w)
        if w == 0:
            return SignedLogComplex(-math.inf, 0.0, 1)
        return SignedLogComplex.from_log(cmath.log(w))

    def to_complex(self):
        if self.log_modulus == -math.inf:
            return 0j
        return cmath.exp(complex(self.log_modulus, self.phase))

    def abs(self):
        return math.exp(self.log_modulus) if self.log_modulus != -math.inf else 0.0

    def __mul__(self, other):
        return SignedLogComplex.from_log(
            complex(self.log_modulus + other.log_modulus,
                    self.phase + other.phase))

    def __truediv__(self, other):
        return SignedLogComplex.from_log(
            complex(self.log_modulus - other.log_modulus,
                    self.phase - other.phase))

    def reciprocal(self):
        return SignedLogComplex.from_log(
            complex(-self.log_modulus, -self.phase))


def _as_s(s):
    if isinstance(s, ComplexArgument):
        return s.s
    return complex(s)


def _check_window(s):
    if abs(s.imag) > T_MAX:
        raise RangeError("|Im s| = %g outside supported window (<= %g)"
                         % (abs(s.imag), T_MAX))
    if s.real < SIGMA_MIN:
        raise RangeError("Re s = %g below supported window (>= %g)"
                         % (s.real, SIGMA_MIN))


def zeta_em(sigma, t, n):
    """Euler-Maclaurin value of zeta(sigma + i t) with n initial terms.

    Valid for sigma > -1 once n >= max(20, 2|t|); correction terms run
    through B_12.  Callers handle reflection and the s = 1 pole.
    """
    s = complex(sigma, t)
    k = np.arange(1, n, dtype=float)
    total = np.sum(k ** (-s))
    total += 0.5 * n ** (-s)
    total += n ** (1.0 - s) / (s - 1.0)
    fac = s * n ** (-s - 1.0)
    n2 = float(n) * float(n)
    for i, b in enumerate(_BERNOULLI):
        twok = 2 * (i + 1)
        total += b / math.factorial(twok) * fac
        fac *= (s + twok - 1.0) * (s + twok) / n2
    return complex(total)


def _em_terms(t):
    return max(20, int(math.ceil(2.0 * abs(t))))


def _zeta_em_window(s):
    """Euler-Maclaurin zeta for sigma >= 0 (away from s = 1)."""
    return zeta_em(s.real, s.imag, _em_terms(s.imag))


def _log_chi(s):
    """log of the functional-equation factor chi(s) = 2^s pi^{s-1}
    sin(pi s / 2) Gamma(1 - s), so zeta(s) = chi(s) zeta(1-s)."""
    return (s * _LOG_2 + (s - 1.0) * _LOG_PI + _log_sin(0.5 * math.pi * s)
            + log_gamma(1.0 - s))


def zeta(s):
    """zeta(s) on the window Re s >= -10, |Im s| <= 260 (s != 1).

    Euler-Maclaurin for Re s >= 0; the functional equation reflects
    Re s < 0 to Re s > 1.
    """
    s = _as_s(s)
    if s == 1.0:
        raise PoleError("zeta has its pole at s = 1")
    _check_window(s)
    if s.real < 0.0:
        return cmath.exp(_log_chi(s)) * _zeta_em_window(1.0 - s)
    if abs(s - 1.0) < 1e-6:
        return zeta_times_s_minus_1(s) / (s - 1.0)
    return _zeta_em_window(s)


def zeta_times_s_minus_1(s):
    """(s - 1) zeta(s), entire on the window; stable through s = 1."""
    s = _as_s(s)
    _check_window(s)
    d = s - 1.0
    if abs(d) >= 1e-6:
        return d * zeta(s)
    total = 1.0 + 0j
    fact = 1.0
    p = d
    for n, g in enumerate(_STIELTJES):
        if n > 0:
            fact *= n
        total += (-1) ** n * g * p / fact
        p *= d
    return total


def log_xi(s):
    """log xi(s) with xi(s) = (1/2) s (s-1) pi^{-s/2} Gamma(s/2) zeta(s).

    Assembled as log Gamma(s/2 + 1) - (s/2) log pi + log((s-1) zeta(s)),
    using s Gamma(s/2) = 2 Gamma(s/2 + 1); entire at s = 0 and s = 1.
    """
    s = _as_s(s)
    g = zeta_times_s_minus_1(s)
    return (log_gamma(0.5 * s + 1.0) - 0.5 * s * _LOG_PI + cmath.log(g))


def xi(s):
    """Completed xi function as a SignedLogComplex (underflow-safe)."""
    return SignedLogComplex.from_log(log_xi(s))


def xi_symmetry_residual(s):
    """|xi(s) - xi(1-s)| / (|xi(s)| + |xi(1-s)|), in [0, 1].

    Both sides are evaluated independently and compared after factoring
    out the common magnitude scale.
    """
    s = _as_s(s)
    a = xi(s)
    b = xi(1.0 - s)
    scale = max(a.log_modulus, b.log_modulus)
    wa = cmath.exp(complex(a.log_modulus - scale, a.phase))
    wb = cmath.exp(complex(b.log_modulus - scale, b.phase))
    return abs(wa - wb) / (abs(wa) + abs(wb))
