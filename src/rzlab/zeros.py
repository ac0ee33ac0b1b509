"""Nontrivial-zero location and counting.

Sign-change scanning of the real-valued xi(1/2 + it), plus argument-
principle counts over rectangles such as -2 <= Re s <= 3 (the strip's
zeros and no others), taken on the right half of the boundary by xi's
mirror symmetry about Re s = 1/2; the two routes cross-check each other.
"""

import math

import numpy as np

from .errors import PreconditionError
from .numerics import find_root_bracketed, real_sign, winding_number
from .zeta import T_MAX, log_xi_array, log_xi_line

# find_zeros' grid spacing (at most 867 intervals) and bracket width
STEP = 0.3
TOL = 1e-10


def _signed_scaled(t, lx=None):
    """xi(1/2 + it) e^{pi t / 4} at every t of the array, from lx = log
    xi(1/2 + it) or one batched evaluation, with the sign real_sign reads
    off the computed phase: with the e^{-pi t / 4} decay taken out, the
    values the refiner interpolates stay far from underflow."""
    lx = log_xi_array(0.5 + 1j * np.abs(t)) if lx is None else lx
    return real_sign(lx.imag) * np.exp(
        np.maximum(lx.real + 0.25 * math.pi * t, -700.0))


def find_zeros(t_min, t_max):
    """All critical-line zeros with ordinate in (t_min, t_max), as two
    float arrays: the ordinates, ascending, and their residuals.

    xi(1/2 + it) is evaluated on a grid of spacing at most STEP; its sign
    changes are refined together by find_root_bracketed, one batched call
    per round, to brackets of width TOL, from the grid values at their
    ends.  Each residual is |xi| at the ordinate, from its last round.
    """
    if not (0.0 <= t_min < t_max <= T_MAX):
        raise PreconditionError("need 0 <= t_min < t_max <= %g" % T_MAX)
    n = int(math.ceil((t_max - t_min) / STEP))
    h = (t_max - t_min) / n
    grid = np.concatenate(([t_min], t_min + h + h * np.arange(n - 1), [t_max]))
    # no grid point lands on a zero: at the floats next to each zero below
    # T_MAX, log |xi| stays above -223 (-222.6 at t = 256.38)
    f_grid = _signed_scaled(grid, log_xi_line(grid))
    j = np.flatnonzero((f_grid[:-1] > 0.0) != (f_grid[1:] > 0.0))
    t, ft = find_root_bracketed(_signed_scaled, grid[j], grid[j + 1], TOL,
                                f_lo=f_grid[j], f_hi=f_grid[j + 1])
    return t, np.abs(ft) * np.exp(-0.25 * math.pi * t)


def count_zeros_rectangle(rect):
    """Number of xi zeros (with multiplicity) inside the rectangle,
    by the argument principle, the boundary evaluated in one batched
    call.

    A rectangle symmetric about the critical line (re_min + re_max = 1,
    as is -2 <= Re s <= 3, counted by `rzlab zeros`, whose side Re s = 3
    needs no refinement round) takes winding_number's mirror path: xi(1 -
    conj s) = conj xi(s), so only the right half of the boundary is
    evaluated, its ends on the critical line signed by real_sign as
    find_zeros' grid is.  Any other rectangle takes the full boundary.
    """
    count, = winding_number(lambda z: np.exp(log_xi_array(z)), [rect],
                            mirror=rect.re_min + rect.re_max == 1.0)
    return count
