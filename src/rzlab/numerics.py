"""Shared numeric kernels: adaptive Gauss-Kronrod quadrature on a finite
interval, bracketed root refinement, the sign of a computed real value,
and argument-principle winding counts.

All routines are pure functions over caller-supplied callables; nothing
here knows about zeta or scattering.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryZeroError, BudgetExhaustedError,
                     PreconditionError)

DEFAULT_BUDGET = 10 ** 6
# Largest scan grid built; a finer step is rejected before allocation.
MAX_GRID_POINTS = 10 ** 6
# Contour sampling of winding_number: per unit of side length, and the
# fewest samples on any side.
SAMPLES_PER_UNIT = 10
MIN_SIDE_SAMPLES = 32
# Double-precision machine epsilon, for Brent's stopping test.
_EPS = 2.0 ** -52


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


@dataclass(frozen=True)
class BracketInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket requires lo < hi")


@dataclass(frozen=True)
class ContourRectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("degenerate rectangle")


# Gauss 7 / Kronrod 15 pair on [-1, 1].
_XK = (0.991455371120813, 0.949107912342759, 0.864864423359769,
       0.741531185599394, 0.586087235467691, 0.405845151377397,
       0.207784955007898, 0.0)
_WK = (0.022935322010529, 0.063092092629979, 0.104790010322250,
       0.140653259715525, 0.169004726639267, 0.190350578064785,
       0.204432940075298, 0.209482141084728)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)


def _gk15(f, a, b):
    """Return (kronrod value, |K15-G7| error estimate, 15)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = complex(f(c))
    resk = _WK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        x = h * _XK[j]
        fsum = complex(f(c - x)) + complex(f(c + x))
        resk += _WK[j] * fsum
        if j % 2 == 1:
            resg += _WG[j // 2] * fsum
    return resk * h, abs((resk - resg) * h), 15


def integrate_adaptive(f, a, b, tol, budget=DEFAULT_BUDGET):
    """Adaptive Gauss-Kronrod integration of complex-valued f on [a, b].

    Intervals are bisected worst-error-first until the summed error
    estimate drops below tol or the evaluation budget runs out (the
    latter raises BudgetExhaustedError carrying the best estimate).
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if a == b:
        return QuadratureResult(0j, 0.0, 1)
    val, err, n = _gk15(f, a, b)
    evals = n
    # heap of (-error, counter, a, b, value, error); counter breaks ties
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    total_val, total_err = val, err
    stagnant = 0
    while total_err > tol:
        if stagnant > 40:
            # rounding-noise floor: splitting no longer reduces the
            # estimate; report the honest error_estimate instead
            break
        if evals + 30 > budget:
            raise BudgetExhaustedError(
                "quadrature budget exhausted (error %.3g > tol %.3g)"
                % (total_err, tol),
                best_estimate=QuadratureResult(total_val, total_err, evals))
        neg, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # interval at float resolution
            heapq.heappush(heap, (0.0, counter, lo, hi, v, 0.0))
            total_err -= e
            counter += 1
            continue
        v1, e1, n1 = _gk15(f, lo, mid)
        v2, e2, n2 = _gk15(f, mid, hi)
        evals += n1 + n2
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        stagnant = stagnant + 1 if e1 + e2 > 0.9 * e else 0
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
    return QuadratureResult(total_val, total_err, evals)


def find_root_bracketed(f, interval, tol, f_lo=None, f_hi=None):
    """Brent's method (zeroin; Brent 1973, Algorithms for Minimization
    without Derivatives, ch. 4) for a sign change of real-valued f.

    Inverse quadratic or secant steps where they stay safely inside the
    bracket, bisection where they do not.  Returns a point of the final
    sign-change bracket once its width is <= tol (or a few units in the
    last place when tol is finer than that).  f_lo and f_hi are f at the
    ends when the caller already has them; f is then called only inside.
    """
    a, b = interval.lo, interval.hi
    fa = f(a) if f_lo is None else f_lo
    fb = f(b) if f_hi is None else f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise PreconditionError("no sign change on bracket [%g, %g]" % (a, b))
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # b is the best point, [b, c] the bracket
        tol1 = 0.5 * max(tol, 4.0 * _EPS * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            break
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            r = fb / fa
            if a == c:  # secant
                p = 2.0 * m * r
                q = 1.0 - r
            else:  # inverse quadratic interpolation
                q = fa / fc
                s = fb / fc
                p = r * (2.0 * m * q * (q - s) - (b - a) * (s - 1.0))
                q = (q - 1.0) * (s - 1.0) * (r - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)
    return b


def _fold_phase(x):
    """x mod 2 pi in (-pi, pi] for a float or an array, by arithmetic that
    keeps a float cheap (rounding may put x just above pi on -pi)."""
    return math.pi - (math.pi - x) % math.tau


def real_sign(phase):
    """+-1 as phase, a number or an array, lies nearer 0 or pi: the sign of
    a real value computed with a noisy phase (cheap for a number)."""
    return 1 - 2 * (abs(_fold_phase(phase)) >= 0.5 * math.pi)


def winding_number(g, rect, mirror=False):
    """Total argument change of g around the rectangle boundary, / 2 pi.

    g maps an array of points to the array of its values.  Each side is
    sampled SAMPLES_PER_UNIT times per unit of its length (at least
    MIN_SIDE_SAMPLES), and all samples are evaluated in one call;
    phase steps between consecutive samples are then refined by
    bisection, one point per call, until every step is below pi/2,
    which rules out 2 pi aliasing near zeros close to the contour.

    mirror=True is for g with g(re_min + re_max - conj z) = conj g(z),
    as xi(1 - conj s) = conj xi(s) about Re s = 1/2.  The left half of
    the boundary then mirrors the right half and carries the same
    argument change, so only the right half is sampled: from the bottom
    midpoint through the two right corners to the top midpoint, both
    ends on the symmetry line, where g is real: real_sign snaps their
    phases to 0 or pi, so the computed sign there decides a zero at an
    end.  The argument change is a multiple of pi, / pi the count.
    """
    lo = complex(rect.re_min, rect.im_min)
    hi = complex(rect.re_max, rect.im_max)
    right = [complex(hi.real, lo.imag), hi]
    if mirror:
        mid = 0.5 * (rect.re_min + rect.re_max)
        path = [complex(mid, lo.imag)] + right + [complex(mid, hi.imag)]
    else:
        path = [lo] + right + [complex(lo.real, hi.imag), lo]

    def phases(z):
        w = np.asarray(g(z), dtype=complex)
        low = np.abs(w) < 1e-300
        if low.any():
            raise BoundaryZeroError("|g| below floor at boundary point %s"
                                    % z[np.argmax(low)])
        return np.angle(w)

    sides = []
    for za, zb in zip(path, path[1:]):
        m = max(MIN_SIDE_SAMPLES, int(SAMPLES_PER_UNIT * abs(zb - za)))
        pts = za + (zb - za) * np.arange(m + 1) / m
        pts[-1] = zb  # za + (zb - za) m / m can round past zb
        sides.append(pts)
    ends = np.cumsum([len(pts) for pts in sides])[:-1]
    ph = phases(np.concatenate(sides))
    if mirror:
        ph[[0, -1]] = 0.5 * math.pi * (1 - real_sign(ph[[0, -1]]))
    total = 0.0
    for pts, ph in zip(sides, np.split(ph, ends)):
        steps = _fold_phase(np.diff(ph))
        fine = np.abs(steps) < 0.5 * math.pi
        total += steps[fine].sum()
        stack = [(pts[j], pts[j + 1], ph[j], ph[j + 1], 0)
                 for j in np.flatnonzero(~fine)]
        while stack:
            z0, z1, p0, p1, depth = stack.pop()
            d = _fold_phase(p1 - p0)
            # at a zero on a mirror end the snapped phase sets the sign
            if abs(d) < 0.5 * math.pi or depth >= 40 and mirror and (
                    z0 == path[0] or z1 == path[-1]):
                total += d
                continue
            if depth >= 40:
                raise BoundaryZeroError(
                    "phase step not resolving near %s; zero on contour?" % z0)
            zm = 0.5 * (z0 + z1)
            pm = phases(np.array([zm]))[0]
            stack.append((z0, zm, p0, pm, depth + 1))
            stack.append((zm, z1, pm, p1, depth + 1))
    # exact multiple: the steps telescope between equal or snapped ends
    return round(total / (math.pi if mirror else 2.0 * math.pi))
