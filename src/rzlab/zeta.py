"""Riemann zeta on the desk-scale window and the completed xi function,
held as its complex log, which never underflows (|xi(1/2+it)| ~
exp(-pi t / 4)).
"""

import cmath

import numpy as np

from .errors import PoleError, RangeError
from .specfun import (log_gamma, _LOG_PI, _LOG_PI_HI, _LOG_PI_LO, _mod_tau,
                      _stirling)

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
# 0, 1, ..., 42: the offsets k/n of the factors u + k/n in zeta_em.
_EM_OFFSETS = np.arange(0.0, 2 * len(_EM_TAIL) - 1)
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
# _zeta_em_batch keeps each zeta_em temporary, its (points x (n-1)) main
# sum terms and (points x 43) correction factors, below this many complex
# numbers, glibc's 128 KB mmap threshold: larger arrays are mapped and
# page-faulted afresh on every call unless a large free has raised it.
_CHUNK_TERMS = 2 ** 13
_ANCHOR = 32  # log_xi_line's points per exponential row k^(-s)


class _Terms(np.ndarray):  # zeta_em's n, each point's own; int() gives
    __int__ = lambda self: max(self.tolist())  # the largest, for call logs


def _check_window(s):
    # %r: %g would print 260.0000001 as the bound it exceeds
    if not abs(s.imag) <= T_MAX:
        raise RangeError("|Im s| = %r outside supported window (<= %g)"
                         % (float(abs(s.imag)), T_MAX))
    if not s.real >= SIGMA_MIN:
        raise RangeError("Re s = %r below supported window (>= %g)"
                         % (float(s.real), SIGMA_MIN))
    if not s.real <= SIGMA_MAX:
        raise RangeError("Re s = %r above supported window (<= %g)"
                         % (float(s.real), SIGMA_MAX))


def zeta_em(sigma, t, n, total=None):
    """Euler-Maclaurin value of the entire function (s - 1) zeta(s) at
    s = sigma + i t with n initial terms.  zeta's pole sits in the one
    term n^(1-s) / (s - 1), which the factor s - 1 turns into n n^(-s),
    so s = 1 needs no case of its own.

    Valid for sigma > -1 once n >= _em_terms(t), with corrections through
    B_44.  sigma and t may be arrays, which broadcast to the shape of the
    result, and then total, if given, holds their main sums over k < n,
    and n, one int, may be an int array of each point's own.  A single
    point stops the corrections at the first term below rounding of
    max(|total|, |n^(-s)|); an array adds all 22 as one running product
    per point, which costs less than the test.  Callers handle reflection.
    """
    if total is None:  # n is one int
        log_k = (_LOG_K[:n - 1] if n <= len(_LOG_K) + 1
                 else np.log(np.arange(1, n, dtype=float)))
    if isinstance(sigma, np.ndarray) or isinstance(t, np.ndarray):
        s = np.add(sigma, np.multiply(1j, t))
        if total is None:
            total = np.exp(np.multiply.outer(-s, log_k)).sum(axis=-1)
        p = n ** (-s)
        total = total + 0.5 * p
        # Running products of u p, u + 1/n, u + 2/n, ..., u + 42/n: every
        # other one is the factor s (s+1) ... (s+2k-2) n^(-s-2k+1) of
        # B_2k/(2k)!.  Each factor is finite, so where n^(-s) underflows
        # to 0 (real s above ~250) the products stay 0, never 0 * inf.
        u = s / n
        f = np.zeros(np.shape(u) + _EM_OFFSETS.shape, complex)
        np.divide(_EM_OFFSETS, np.asarray(n)[..., None], out=f.real)
        f += u[..., None]  # in place: one (points x 43) array, no more
        f[..., 0] = u * p
        f.cumprod(-1, out=f)[..., ::2] *= _EM_TAIL
        corrections = np.add.reduce(f[..., ::2], -1)
        return (s - 1.0) * (total + corrections) + n * p
    s = complex(sigma, t)
    total = complex(np.exp(-s * log_k).sum())
    p = n ** (-s)
    total += 0.5 * p
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
    return (s - 1.0) * total + n * p


def _zeta_em_window(s):
    """Euler-Maclaurin (s - 1) zeta(s) for sigma >= 0."""
    return zeta_em(s.real, s.imag, int(_em_terms(s.imag)))


def _log_pi_power(s):
    """log pi^(s/2), its phase (Im s / 2) log pi reduced mod 2 pi."""
    return complex(0.5 * s.real * _LOG_PI,
                   _mod_tau(0.5 * s.imag, _LOG_PI_HI, _LOG_PI_LO))


def zeta(s):
    """zeta(s) on the window -10 <= Re s <= 1e300, |Im s| <= 260 (s != 1).

    Euler-Maclaurin (s - 1) zeta(s), divided by s - 1, for Re s >= 0.
    Re s < 0 is divided out of log_xi, which takes xi(s) = xi(1 - s) at
    1 - s: zeta(s) = xi(s) / ((s - 1) pi^(-s/2) Gamma(s/2 + 1)).
    At s = -2, -4, ..., -10, the pole of Gamma(s/2 + 1), zeta is exactly 0.
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has its pole at s = 1")
    _check_window(s)
    if s.real < 0.0:
        try:
            log_g = log_gamma(0.5 * s + 1.0)
        except PoleError:
            return 0j
        return cmath.exp(log_xi(s) - log_g + _log_pi_power(s)) / (s - 1.0)
    return _zeta_em_window(s) / (s - 1.0)


def log_xi(s):
    """log xi(s) with xi(s) = (1/2) s (s-1) pi^{-s/2} Gamma(s/2) zeta(s),
    assembled as log Gamma(s/2 + 1) - (s/2) log pi + log((s-1) zeta(s)),
    using s Gamma(s/2) = 2 Gamma(s/2 + 1); entire at s = 0 and s = 1.
    For Re s < 0 it is taken at 1 - s, as xi(s) = xi(1 - s), so no Gamma
    pole meets a trivial zero.  The large phases of the first two terms,
    near (Im s / 2) log(|s| / (2 e)) and (Im s / 2) log pi, are reduced
    mod 2 pi before they round; the sum is not folded into (-pi, pi].
    """
    s = complex(s)
    _check_window(s)
    if s.real < 0.0:
        s = 1.0 - s
    g = _zeta_em_window(s)
    return log_gamma(0.5 * s + 1.0) - _log_pi_power(s) + cmath.log(g)


def log_xi_array(s):
    """log xi at every point of the complex array s: log_xi point by
    point, up to rounding and to a multiple of 2 pi in the phase.  Each
    point's Euler-Maclaurin sum is its own, whatever the batch.  The
    first point outside the window raises log_xi's RangeError."""
    s = np.asarray(s, dtype=complex)
    if not s.size:  # no fixed numpy work for an empty batch
        return np.empty(s.shape, complex)
    return _log_xi(s.ravel()).reshape(s.shape)


def log_xi_line(t):
    """log_xi_array at 1/2 + i t for a real t of one or two dimensions, a
    zero scan's grid or a refinement round's rows, in one batch: exact
    where t fits one _zeta_em_batch chunk and at a grid's two ends, else
    up to rounding.  Each row of t (a grid is one) takes its main sums
    along the line (Odlyzko and Schonhage, 1988).  A point takes its own
    row k^(-s), to its own n, where it starts a row (a grid's interior, at
    index 1), has another n than the point before it, lies, or follows one
    that lies, more than 4 eps |t| off its row's first point plus its
    column times dt, the rows' median step, or lies a multiple of _ANCHOR
    points past the last such point; any other point takes that anchor's
    row times k^(-i m dt), m points past it."""
    w = np.empty(np.shape(t), complex)  # set, not multiplied: NaN and inf
    w.real, w.imag = 0.5, t  # t reach the window check with no warning
    top = (0.0 if w.size * _em_terms(T_MAX) <= _CHUNK_TERMS  # fits at any n
           else np.abs(w.imag).max())
    if not top <= T_MAX or (w.size * max(_em_terms(top), 2 * len(_EM_TAIL))
                            <= _CHUNK_TERMS):  # one plain batch, or the
        return _log_xi(w.ravel()).reshape(w.shape)  # array's RangeError
    line = np.atleast_2d(w)  # a grid is one row
    t, terms = line.imag, _em_terms(line.imag).astype(int)
    col = np.arange(t.shape[1])
    dt = np.sort((t[:, -1] - t[:, 0]) / max(len(col) - 1, 1))[len(t) // 2]
    off = np.abs(t - t[:, :1] - dt * col) > 8 * _ROUNDOFF * np.abs(t)
    start = off | (col <= (w.ndim == 1))  # a grid's interior starts at 1
    start[:, 1:] |= off[:, :-1] | (terms[:, 1:] != terms[:, :-1])
    m = (col - np.maximum.accumulate(np.where(start, col, 0), 1)) % _ANCHOR
    anchor, lk = m == 0, _LOG_K[:terms.max() - 1]
    rows = np.multiply.outer(-line[anchor], lk)  # in place: one such array
    np.multiply(np.exp(rows, out=rows),
                np.arange(len(lk)) < terms[anchor][:, None] - 1, out=rows)
    sums = np.einsum("ak,mk->am", rows, np.exp(np.multiply.outer(
        -1j * dt * np.arange(m.max() + 1), lk)))[
            np.cumsum(anchor).reshape(m.shape) - 1, m]
    if w.ndim == 1:  # the ends summed as log_xi_array sums them, so that a
        for j in (0, -1):  # scan's ends read what the contour reads there
            sums[0, j] = np.exp(-w[j] * _LOG_K[:terms[0, j] - 1]).sum()
    return _log_xi(w.ravel(), sums.ravel()).reshape(w.shape)


def _log_xi(w, total=None):
    """log_xi_array at the 1-d array w.  total, if given, holds the main
    sums over k < n of points with Re w >= 0, for _zeta_em_batch."""
    re = w.real
    inside = (np.abs(w.imag) <= T_MAX) & (re >= SIGMA_MIN) & (re <= SIGMA_MAX)
    if not inside.all():
        _check_window(complex(w[np.argmin(inside)]))
    left = re < 0.0
    if left.any():  # an all-right batch does not pay for the mapping
        w = np.where(left, 1.0 - w, w)
    h = 0.5 * w
    return (_stirling(h + 1.0, True) - h.real * _LOG_PI
            + np.log(_zeta_em_batch(w, total)))


def _zeta_em_batch(w, total=None):
    """zeta_em, (w - 1) zeta(w), at every point of the 1-d array w, each
    at its own n = _em_terms(Im w), so that a point reads the same value
    in any batch: one call per n on _CHUNK_TERMS // max(n, 44) points, or
    given total, their main sums over k < n, one per 186 (// 44) points."""
    terms = _em_terms(w.imag).astype(int)
    out = np.empty_like(w)
    if total is not None:  # zeta_em forms 43 factors a point, whatever n
        each, c = terms.view(_Terms), _CHUNK_TERMS // (2 * len(_EM_TAIL))
        for j in (slice(lo, lo + c) for lo in range(0, len(w), c)):
            out[j] = zeta_em(w.real[j], w.imag[j], each[j], total[j])
        return out
    # no n is above len(_LOG_K) + 1 = 88, so an empty batch takes none
    for n in range(terms.min(initial=len(_LOG_K) + 1),
                   terms.max(initial=20) + 1, 4):
        group = np.flatnonzero(terms == n)
        chunk = _CHUNK_TERMS // max(n, 2 * len(_EM_TAIL))
        for j in (group[lo:lo + chunk] for lo in range(0, len(group), chunk)):
            out[j] = zeta_em(w.real[j], w.imag[j], n)
    return out


def xi_symmetry_residual(s):
    """|xi(s) - xi(1-s)| / (|xi(s)| + |xi(1-s)|), in [0, 1], after
    factoring out the common magnitude scale.  The sides are independent
    only for 0 <= Re s <= 1, each with its own Euler-Maclaurin sum.  As
    log_xi takes Re s < 0 at 1 - s, off that strip the residual is an
    identity: 0 at Re s < 0, and at Re s > 1 where 1 - (1 - s) is s.
    """
    s = complex(s)
    a, b = log_xi(s), log_xi(1.0 - s)
    scale = max(a.real, b.real)
    wa, wb = cmath.exp(a - scale), cmath.exp(b - scale)
    return abs(wa - wb) / (abs(wa) + abs(wb))
