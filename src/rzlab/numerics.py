"""Shared numeric kernels: adaptive quadrature, principal-value integrals,
bracketed root refinement, and argument-principle winding counts.

All routines are pure functions over caller-supplied callables; nothing
here knows about zeta or scattering.
"""

import cmath
import heapq
import math
from dataclasses import dataclass

from .errors import (BoundaryZeroError, BudgetExhaustedError, DivergenceError,
                     DomainError, PreconditionError)

DEFAULT_BUDGET = 10 ** 6
# Largest scan grid built; a finer step is rejected before allocation.
MAX_GRID_POINTS = 10 ** 6


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


def integrate_semi_infinite(f, a, tol, budget=DEFAULT_BUDGET):
    """Integrate f over [a, oo) via the map x = a + u/(1-u) on [0, 1).

    The caller contract requires (at least) exponential decay of f at
    +infinity; a coarse probe of |f| at growing abscissae rejects
    clearly non-decaying integrands up front.
    """
    probes = [abs(complex(f(a + 2.0 ** j))) for j in range(3, 8)]
    peak = max(probes)
    if peak > 0 and probes[-1] > 0.5 * peak and probes[-1] >= probes[0]:
        raise DivergenceError("integrand does not decay at +infinity")

    def g(u):
        r = 1.0 - u
        return f(a + u / r) / (r * r)

    res = integrate_adaptive(g, 0.0, 1.0, tol, budget=budget)
    return QuadratureResult(res.value, res.error_estimate,
                            res.evaluations + len(probes))


def principal_value_integral(f, c, a, b, tol, budget=DEFAULT_BUDGET):
    """Cauchy principal value of integral f(x)/(x - c) dx over [a, b].

    Symmetric excision about c: on the window c +- h the odd part of
    1/(x - c) cancels exactly against paired nodes, leaving the regular
    integrand (f(c+u) - f(c-u))/u; the leftover one-sided piece is
    integrated directly.
    """
    if not (a < c < b):
        raise DomainError("singularity must lie strictly inside [a, b]")
    h = min(c - a, b - c)

    def paired(u):
        return (complex(f(c + u)) - complex(f(c - u))) / u

    r1 = integrate_adaptive(paired, 0.0, h, tol / 2, budget=budget)
    total = r1.value
    evals = r1.evaluations
    if c - a > h:
        r2 = integrate_adaptive(lambda x: complex(f(x)) / (x - c),
                                a, c - h, tol / 2, budget=budget)
        total += r2.value
        evals += r2.evaluations
    elif b - c > h:
        r2 = integrate_adaptive(lambda x: complex(f(x)) / (x - c),
                                c + h, b, tol / 2, budget=budget)
        total += r2.value
        evals += r2.evaluations
    return total


def find_root_bracketed(f, interval, tol, max_iter=200):
    """Bisection refinement of a sign change of real-valued f.

    Returns the midpoint of the final bracket once its width is <= tol.
    """
    lo, hi = interval.lo, interval.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise PreconditionError("no sign change on bracket [%g, %g]" % (lo, hi))
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def _wrap_phase(d):
    """Reduce a phase difference to (-pi, pi]."""
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def winding_number(g, rect, samples_per_side=64, magnitude_floor=1e-300,
                   max_depth=40):
    """Total argument change of g around the rectangle boundary, / 2 pi.

    Phase steps between consecutive boundary samples are refined by
    bisection until every step is below pi/2, which rules out 2 pi
    aliasing near zeros close to the contour.
    """
    corners = [complex(rect.re_min, rect.im_min),
               complex(rect.re_max, rect.im_min),
               complex(rect.re_max, rect.im_max),
               complex(rect.re_min, rect.im_max)]

    def probe(z):
        w = complex(g(z))
        if abs(w) < magnitude_floor:
            raise BoundaryZeroError("|g| below floor at boundary point %s" % z)
        return cmath.phase(w)

    total = 0.0
    for i in range(4):
        za, zb = corners[i], corners[(i + 1) % 4]
        pts = [za + (zb - za) * j / samples_per_side
               for j in range(samples_per_side + 1)]
        phases = [probe(z) for z in pts]
        stack = list(zip(pts[:-1], pts[1:], phases[:-1], phases[1:],
                         [0] * samples_per_side))
        while stack:
            z0, z1, p0, p1, depth = stack.pop()
            d = _wrap_phase(p1 - p0)
            if abs(d) < 0.5 * math.pi:
                total += d
                continue
            if depth >= max_depth:
                raise BoundaryZeroError(
                    "phase step not resolving near %s; zero on contour?" % z0)
            zm = 0.5 * (z0 + z1)
            pm = probe(zm)
            stack.append((z0, zm, p0, pm, depth + 1))
            stack.append((zm, z1, pm, p1, depth + 1))
    w = total / (2.0 * math.pi)
    n = round(w)
    if abs(w - n) > 0.25:
        raise BoundaryZeroError(
            "winding total %.6f is not close to an integer" % w)
    return int(n)
