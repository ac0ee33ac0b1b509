"""Riemann zeta on the desk-scale window and the completed xi function,
held as its complex log, which never underflows (|xi(1/2+it)| ~
exp(-pi t / 4)).
"""

import cmath
import math

import numpy as np

from .errors import PoleError, RangeError
from .specfun import log_gamma, _log_sin, _stirling

# Window: |t| large enough that a 100-ordinate zero catalog exists
# (t_100 ~ 236.5).  Euler-Maclaurin with n = _em_terms(t) <= 88 terms
# is within 1.2e-12 of mpmath there at Re s = 0 and 1.7e-13 at Re s = 1/2
# (worst absolute error over 200 ordinates up to 260).
T_MAX = 260.0
SIGMA_MIN = -10.0
# Right edge: log xi(1e300) is 3.44e302, still finite.  From about
# Re s = 5e305 log Gamma(s/2 + 1) and so log xi are inf, and nearer the
# largest float the Euler-Maclaurin exponents -s log k overflow.
SIGMA_MAX = 1e300

_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)

# Stieltjes constants gamma_0 .. gamma_4 for the Laurent expansion of
# (s-1) zeta(s) about s = 1.
_STIELTJES = (0.5772156649015329, -0.07281584548367672, -0.009690363192872318,
              0.002053834420303346, 0.0023253700654673)

# For Re s < 0 within this radius of 0, zeta(1 - s) comes from the
# Laurent series in the exact offset d = -s: forming 1 - s would cost
# 1e-16/|s| of relative accuracy, and the first omitted term,
# gamma_5 d^6 / 5!, stays below 1e-17 here.
_REFLECTED_LAURENT_RADIUS = 1e-2

# B_2k / (2k)! for k = 1 .. 22, the coefficient of s (s+1) ... (s+2k-2)
# n^(-s-2k+1) in the Euler-Maclaurin corrections.
_EM_TAIL = (8.333333333333333e-02, -1.388888888888889e-03,
            3.306878306878307e-05, -8.267195767195768e-07,
            2.08767569878681e-08, -5.284190138687493e-10,
            1.3382536530684679e-11, -3.3896802963225827e-13,
            8.586062056277845e-15, -2.174868698558062e-16,
            5.5090028283602295e-18, -1.3954464685812522e-19,
            3.534707039629467e-21, -8.953517427037546e-23,
            2.267952452337683e-24, -5.744790668872202e-26,
            1.455172475614865e-27, -3.6859949406653103e-29,
            9.336734257095045e-31, -2.36502241570063e-32,
            5.990671762482134e-34, -1.5174548844682903e-35)
# 1, 2, ..., 42: the offsets k/n of the factors u + k/n in zeta_em.
_EM_OFFSETS = np.arange(1.0, 2 * len(_EM_TAIL) - 1)
# Unit roundoff, where zeta_em stops the corrections of a single point.
_ROUNDOFF = 2.0 ** -53


def _em_terms(t):
    """Euler-Maclaurin main-sum length n at ordinate t, a float or an
    array: |t|/4 + 20 rounded up to 20 plus a multiple of 4, so that a
    scan's points share few values of n.  Then |s| < pi n on the window,
    each B_2k term is below a third of the one before, and the remainder
    after B_44 stays below the rounding of the sum (Edwards, Riemann's
    Zeta Function, 1974, 6.4)."""
    return 20 + 4 * -(-abs(t) // 16.0)


# log 1, log 2, ... for the Euler-Maclaurin sums of the window, whose
# n = _em_terms(t) terms stay at or below _em_terms(T_MAX) = 88.
_LOG_K = np.log(np.arange(1, int(_em_terms(T_MAX)), dtype=float))
# log_xi_array passes zeta_em at most this many points times max(n, 44)
# at once, so that its (points x (n-1)) terms and (points x 43)
# correction factors stay below glibc's 128 KB mmap threshold: arrays
# above it are mapped and page-faulted afresh on every call unless an
# earlier large free has raised the threshold.
_CHUNK_TERMS = 2 ** 13


def _check_window(s):
    if not abs(s.imag) <= T_MAX:
        raise RangeError("|Im s| = %g outside supported window (<= %g)"
                         % (abs(s.imag), T_MAX))
    if not s.real >= SIGMA_MIN:
        raise RangeError("Re s = %g below supported window (>= %g)"
                         % (s.real, SIGMA_MIN))
    if not s.real <= SIGMA_MAX:
        raise RangeError("Re s = %g above supported window (<= %g)"
                         % (s.real, SIGMA_MAX))


def zeta_em(sigma, t, n):
    """Euler-Maclaurin value of zeta(sigma + i t) with n initial terms.

    Valid for sigma > -1 once n >= _em_terms(t), with corrections
    through B_44.  sigma and t may be arrays, which broadcast to the
    shape of the result; n is one int for every point.  A single point
    stops the corrections at the first term below rounding of the larger
    of |total| and |n^(-s)|; an array adds all 22 as one running product
    per point, which costs less than the test.  Callers handle
    reflection and the s = 1 pole.
    """
    log_k = (_LOG_K[:n - 1] if n <= len(_LOG_K) + 1
             else np.log(np.arange(1, n, dtype=float)))
    if isinstance(sigma, np.ndarray) or isinstance(t, np.ndarray):
        s = np.add(sigma, np.multiply(1j, t))
        total = np.exp(np.multiply.outer(-s, log_k)).sum(axis=-1)
        p = n ** (-s)
        total += p * (0.5 + n / (s - 1.0))
        # Running products of u p, u + 1/n, u + 2/n, ..., u + 42/n: every
        # other one is the factor s (s+1) ... (s+2k-2) n^(-s-2k+1) of
        # B_2k/(2k)!.  Each factor is finite, so where n^(-s) underflows
        # to 0 (real s above ~250) the products stay 0, never 0 * inf.
        u = (s / n)[..., None]
        f = np.concatenate((u * p[..., None], u + _EM_OFFSETS / n), axis=-1)
        return total + (np.cumprod(f, axis=-1)[..., ::2] * _EM_TAIL).sum(-1)
    s = complex(sigma, t)
    total = complex(np.exp(-s * log_k).sum())
    p = n ** (-s)
    total += p * (0.5 + n / (s - 1.0))
    floor = _ROUNDOFF * max(abs(total), abs(p))
    h = 1.0 / n
    u = s * h
    fac = u * p
    # From the k-th term to the next, fac gains the factor
    # g = (u + (2k-1) h)(u + 2k h), and g grows by 4 h u + (8k + 2) h^2.
    # Where n^(-s) underflows, the first term is 0 and the loop stops
    # before fac meets an infinite g.
    h2 = h * h
    g = (u + h) * (u + 2.0 * h)
    dg = 4.0 * h * u + 10.0 * h2
    for c in _EM_TAIL:
        term = c * fac
        total += term
        if abs(term) <= floor:
            break
        fac *= g
        g += dg
        dg += 8.0 * h2
    return total


def _zeta_em_window(s):
    """Euler-Maclaurin zeta for sigma >= 0 (away from s = 1)."""
    return zeta_em(s.real, s.imag, int(_em_terms(s.imag)))


def _log_chi(s):
    """log of the functional-equation factor chi(s) = 2^s pi^{s-1}
    sin(pi s / 2) Gamma(1 - s), so zeta(s) = chi(s) zeta(1-s).  log
    Gamma(1 - s) is taken unfolded, as in _log_xi_reflected."""
    return (s * _LOG_2 + (s - 1.0) * _LOG_PI + _log_sin(0.5 * math.pi * s)
            + _stirling(1.0 - s, cmath.log))


def zeta(s):
    """zeta(s) on the window -10 <= Re s <= 1e300, |Im s| <= 260 (s != 1).

    Euler-Maclaurin for Re s >= 0; the functional equation reflects
    Re s < 0 to Re s > 1.
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has its pole at s = 1")
    _check_window(s)
    if s.real < 0.0:
        if abs(s) < _REFLECTED_LAURENT_RADIUS:
            return cmath.exp(_log_chi(s)) * (_laurent(-s) / -s)
        return cmath.exp(_log_chi(s)) * _zeta_em_window(1.0 - s)
    if abs(s - 1.0) < 1e-6:
        return zeta_times_s_minus_1(s) / (s - 1.0)
    return _zeta_em_window(s)


def _laurent(d):
    """(s - 1) zeta(s) at s = 1 + d from the Stieltjes series, with the
    offset d passed exactly rather than recovered as s - 1."""
    total = 1.0 + 0j
    fact = 1.0
    p = d
    for n, g in enumerate(_STIELTJES):
        if n > 0:
            fact *= n
        total += (-1) ** n * g * p / fact
        p *= d
    return total


def zeta_times_s_minus_1(s):
    """(s - 1) zeta(s), entire on the window; stable through s = 1."""
    s = complex(s)
    _check_window(s)
    d = s - 1.0
    if abs(d) >= 1e-6:
        return d * zeta(s)
    return _laurent(d)


def _log_xi_reflected(s, g, log):
    """log xi(s) for -10 <= Re s < 0 from g = (s/2)(s - 1) zeta(1 - s):

        xi(s) = 2^s pi^(s/2) Gamma(1 - s) / Gamma(1 - s/2) g,

    which is the definition with zeta(s) reflected and Gamma(s/2)
    sin(pi s / 2) = pi / Gamma(1 - s/2) (DLMF 5.5.3), so no Gamma pole
    meets zeta's trivial zeros at s = -2, -4, ...  s and g are numbers
    or arrays, with log = cmath.log or np.log to match.  Both Stirling
    values are added unfolded: each fold would round a phase near 1000
    rad at |Im s| = 260, and the phase of the sum is not folded either.
    """
    return (_stirling(1.0 - s, log) - _stirling(1.0 - 0.5 * s, log)
            + s * _LOG_2 + 0.5 * s * _LOG_PI + log(g))


def log_xi(s):
    """log xi(s) with xi(s) = (1/2) s (s-1) pi^{-s/2} Gamma(s/2) zeta(s).

    For Re s >= 0, assembled as log Gamma(s/2 + 1) - (s/2) log pi +
    log((s-1) zeta(s)), using s Gamma(s/2) = 2 Gamma(s/2 + 1); entire at
    s = 0 and s = 1.  For Re s < 0, the pole-free Gamma ratio of
    _log_xi_reflected with zeta at 1 - s, so the trivial zeros s = -2,
    -4, ... are answered; within _REFLECTED_LAURENT_RADIUS of 0,
    (s/2)(s - 1) zeta(1 - s) = ((1 - s)/2) (-s) zeta(1 - s) comes from
    the Laurent series.  The phase is not folded into (-pi, pi].
    """
    s = complex(s)
    if s.real < 0.0:
        _check_window(s)
        if abs(s) < _REFLECTED_LAURENT_RADIUS:
            g = 0.5 * (1.0 - s) * _laurent(-s)
        else:
            g = 0.5 * s * (s - 1.0) * _zeta_em_window(1.0 - s)
        return _log_xi_reflected(s, g, cmath.log)
    g = zeta_times_s_minus_1(s)
    return (log_gamma(0.5 * s + 1.0) - 0.5 * s * _LOG_PI + cmath.log(g))


def log_xi_array(s):
    """log xi at every point of the complex array s: log_xi point by
    point, up to rounding.

    Points of the window (-10 <= Re s <= 1e300, |Im s| <= T_MAX) share
    zeta_em calls, at s where Re s >= 0 and at 1 - s where Re s < 0,
    which takes log_xi's reflected assembly: grouped by their number of
    terms n and cut into chunks of _CHUNK_TERMS // max(n, 44) points.
    The scalar log_xi takes only the points outside the window, those
    within 1e-6 of s = 1 and those within _REFLECTED_LAURENT_RADIUS of 0
    with Re s < 0.
    """
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    out = np.empty(flat.shape, dtype=complex)
    window = ((flat.real >= SIGMA_MIN) & (flat.real <= SIGMA_MAX)
              & (np.abs(flat.imag) <= T_MAX))
    direct = window & (flat.real >= 0.0) & (np.abs(flat - 1.0) >= 1e-6)
    reflected = (window & (flat.real < 0.0)
                 & (np.abs(flat) >= _REFLECTED_LAURENT_RADIUS))
    for i in np.flatnonzero(~(direct | reflected)):
        out[i] = log_xi(flat[i])
    # the k direct points first, then the reflected ones
    idx = np.concatenate((np.flatnonzero(direct), np.flatnonzero(reflected)))
    if not idx.size:
        return out.reshape(s.shape)
    k = np.count_nonzero(direct)
    z = flat[idx]
    zd, zr = z[:k], z[k:]
    w = np.concatenate((zd, 1.0 - zr))
    terms = _em_terms(z.imag).astype(int)
    zeta_w = np.empty(z.shape, dtype=complex)
    order = np.argsort(terms, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(terms[order])) + 1):
        n = int(terms[group[0]])
        chunk = _CHUNK_TERMS // max(n, 2 * len(_EM_TAIL))
        for lo in range(0, len(group), chunk):
            j = group[lo:lo + chunk]
            zeta_w[j] = zeta_em(w.real[j], w.imag[j], n)
    if zd.size:
        out[idx[:k]] = (log_gamma(0.5 * zd + 1.0) - 0.5 * zd * _LOG_PI
                        + np.log((zd - 1.0) * zeta_w[:k]))
    if zr.size:
        out[idx[k:]] = _log_xi_reflected(
            zr, 0.5 * zr * (zr - 1.0) * zeta_w[k:], np.log)
    return out.reshape(s.shape)


def xi(s):
    """Completed xi function as a complex number, exp(log_xi(s)).
    Callers whose values may under- or overflow take log_xi itself."""
    return cmath.exp(log_xi(s))


def xi_symmetry_residual(s):
    """|xi(s) - xi(1-s)| / (|xi(s)| + |xi(1-s)|), in [0, 1].

    Both sides are evaluated independently and compared after factoring
    out the common magnitude scale.
    """
    s = complex(s)
    a, b = log_xi(s), log_xi(1.0 - s)
    scale = max(a.real, b.real)
    wa, wb = cmath.exp(a - scale), cmath.exp(b - scale)
    return abs(wa - wb) / (abs(wa) + abs(wb))
