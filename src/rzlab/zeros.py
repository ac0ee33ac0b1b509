"""Nontrivial-zero location and counting.

Sign-change scanning of the real-valued xi(1/2 + it), plus
argument-principle counts over critical-strip rectangles; the two
routes cross-check each other.
"""

import math
from dataclasses import dataclass

from .errors import BoundaryZeroError, PreconditionError
from .numerics import (MAX_GRID_POINTS, BracketInterval, ContourRectangle,
                       find_root_bracketed, winding_number)
from .zeta import SignedLogComplex, T_MAX, xi

DEFAULT_STEP = 0.1
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class ZetaZero:
    ordinate: float
    residual: float
    index: int


def critical_line_function(t):
    """xi(1/2 + it) snapped to its exactly-real value.

    xi is real on the critical line; the computed phase lands within
    rounding of 0 or pi and is snapped so the sign is unambiguous.
    """
    v = xi(complex(0.5, abs(t)))
    sign = 1 if abs(v.phase) < 0.5 * math.pi else -1
    return SignedLogComplex(v.log_modulus, 0.0 if sign > 0 else math.pi, sign)


def _signed_log_mag(t):
    """Sign times log-magnitude of xi(1/2+it); monotone proxy unusable,
    used only for sign changes and bisection."""
    v = critical_line_function(t)
    return v.sign_hint, v.log_modulus


def find_zeros(t_min, t_max, step=DEFAULT_STEP, tol=DEFAULT_TOL):
    """All critical-line zeros with ordinate in (t_min, t_max).

    Sign changes on a grid of spacing at most step, refined by bisection
    to bracket width tol.
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
    grid = [t_min + i * (t_max - t_min) / n for i in range(n + 1)]
    vals = [_signed_log_mag(t) for t in grid]
    # measure-zero collision with a grid point: shift and rescan
    if any(lm < -600.0 and lm != -math.inf for _, lm in vals):
        shifted = [t + step / 3.0 for t in grid]
        grid = grid[:1] + shifted[:-1] + grid[-1:]
        vals = [_signed_log_mag(t) for t in grid]

    def f(t):
        sign, lm = _signed_log_mag(t)
        return sign * math.exp(max(lm + 0.25 * math.pi * t, -700.0))

    zeros = []
    for (t0, (s0, _)), (t1, (s1, _)) in zip(zip(grid[:-1], vals[:-1]),
                                            zip(grid[1:], vals[1:])):
        if s0 != s1:
            root = find_root_bracketed(f, BracketInterval(t0, t1), tol)
            residual = math.exp(critical_line_function(root).log_modulus)
            zeros.append(ZetaZero(ordinate=root, residual=residual,
                                  index=len(zeros) + 1))
    return zeros


def count_zeros_rectangle(rect, samples_per_side=None, nudge=1e-3):
    """Number of xi zeros (with multiplicity) inside the rectangle,
    by the argument principle.

    If a zero sits on the horizontal boundary at sampling resolution,
    the rectangle is nudged by +-1e-3 in t before giving up.
    """
    if samples_per_side is None:
        per = max(rect.re_max - rect.re_min, rect.im_max - rect.im_min)
        samples_per_side = max(32, int(10.0 * per))
    g = lambda z: xi(z).to_complex()
    for attempt, (dlo, dhi) in enumerate(
            [(0.0, 0.0), (-nudge, nudge), (nudge, -nudge)]):
        r = ContourRectangle(rect.re_min, rect.re_max,
                             rect.im_min + dlo, rect.im_max + dhi)
        try:
            return winding_number(g, r, samples_per_side=samples_per_side)
        except BoundaryZeroError:
            if attempt == 2:
                raise
    raise AssertionError("unreachable")
