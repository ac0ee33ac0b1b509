"""Nontrivial-zero location and counting.

Sign-change scanning of the real-valued xi(1/2 + it), plus
argument-principle counts over critical-strip rectangles; the two
routes cross-check each other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryZeroError, PreconditionError
from .numerics import (MAX_GRID_POINTS, BracketInterval, ContourRectangle,
                       find_root_bracketed, winding_number)
from .zeta import SignedLogComplex, T_MAX, log_xi_array, xi

DEFAULT_STEP = 0.1
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class ZetaZero:
    ordinate: float
    residual: float
    index: int


def _sign(phase):
    """+-1 as the phase of log xi(1/2 + it), a number or an array, lies
    nearer 0 or pi; plain arithmetic keeps a number cheap."""
    folded = (phase + math.pi) % (2.0 * math.pi) - math.pi
    return 1 - 2 * (abs(folded) >= 0.5 * math.pi)


def critical_line_function(t):
    """xi(1/2 + it) snapped to its exactly-real value.

    xi is real on the critical line; the computed phase lands within
    rounding of 0 or pi and is snapped so the sign is unambiguous.
    """
    v = xi(complex(0.5, abs(t)))
    sign = _sign(v.phase)
    return SignedLogComplex(v.log_modulus, 0.0 if sign > 0 else math.pi, sign)


def _scaled(sign, lm, t):
    """sign |xi(1/2 + it)| e^{pi t / 4}, the function whose sign changes
    are refined: with the e^{-pi t / 4} decay taken out, the values the
    root finder interpolates stay far from underflow."""
    return sign * np.exp(np.maximum(lm + 0.25 * math.pi * t, -700.0))


def _scan(grid):
    """Signs and log-magnitudes of xi(1/2 + it) over the grid, from one
    batched evaluation."""
    lx = log_xi_array(0.5 + 1j * np.abs(grid))
    return _sign(lx.imag), lx.real


def find_zeros(t_min, t_max, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    """All critical-line zeros with ordinate in (t_min, t_max).

    xi(1/2 + it) is evaluated on a grid of spacing at most step in one
    batched call; each sign change is refined by Brent's method to a
    bracket of width tol, starting from the grid values at its ends.
    """
    if not (0.0 <= t_min < t_max <= T_MAX):
        raise PreconditionError("need 0 <= t_min < t_max <= %g" % T_MAX)
    if not (0.0 < step <= 0.5):
        raise PreconditionError("step must be in (0, 0.5]")
    if not tol > 0.0:
        raise PreconditionError("tol must be positive")
    span = (t_max - t_min) / step
    if span > MAX_GRID_POINTS - 1:
        raise PreconditionError("step %g gives more than %d grid points"
                                % (step, MAX_GRID_POINTS))
    n = int(math.ceil(span))
    grid = t_min + np.arange(n + 1) * (t_max - t_min) / n
    signs, lms = _scan(grid)
    # measure-zero collision with a grid point: shift and rescan
    if np.any((lms < -600.0) & (lms != -math.inf)):
        grid = np.concatenate((grid[:1], grid[:-1] + step / 3.0, grid[-1:]))
        signs, lms = _scan(grid)
    f_grid = _scaled(signs, lms, grid)
    # log |xi| at every point evaluated, for the residual at the root
    log_mod = {}

    def f(t):
        v = critical_line_function(t)
        log_mod[t] = v.log_modulus
        return float(_scaled(v.sign_hint, v.log_modulus, t))

    zeros = []
    for j in np.flatnonzero(signs[:-1] != signs[1:]).tolist():
        t0, t1 = float(grid[j]), float(grid[j + 1])
        log_mod[t0], log_mod[t1] = float(lms[j]), float(lms[j + 1])
        root = find_root_bracketed(f, BracketInterval(t0, t1), tol,
                                   f_lo=float(f_grid[j]),
                                   f_hi=float(f_grid[j + 1]))
        zeros.append(ZetaZero(ordinate=root, residual=math.exp(log_mod[root]),
                              index=len(zeros) + 1))
    return zeros


def count_zeros_rectangle(rect, nudge=1e-3):
    """Number of xi zeros (with multiplicity) inside the rectangle,
    by the argument principle, the four sides evaluated in one batched
    call.

    If a zero sits on the horizontal boundary at sampling resolution,
    the rectangle is nudged by +-1e-3 in t before giving up.
    """
    g = lambda z: np.exp(log_xi_array(z))
    for attempt, (dlo, dhi) in enumerate(
            [(0.0, 0.0), (-nudge, nudge), (nudge, -nudge)]):
        r = ContourRectangle(rect.re_min, rect.re_max,
                             rect.im_min + dlo, rect.im_max + dhi)
        try:
            return winding_number(g, r)
        except BoundaryZeroError:
            if attempt == 2:
                raise
    raise AssertionError("unreachable")
