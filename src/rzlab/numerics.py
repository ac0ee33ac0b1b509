"""Shared numeric kernels: a step-halving trapezoid sum on a finite
interval, bracketed root refinement of many brackets at once, the sign of
a computed real value, and argument-principle winding counts.

All routines are pure functions over caller-supplied callables; nothing
here knows about zeta or scattering.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryZeroError, PreconditionError, RangeError

# Steps of integrate_adaptive's first trapezoid sum.
_FIRST_STEPS = 48
# One node cap: of every scan grid, of winding_number's refinement and of
# every trapezoid sum (integrate_adaptive, bessel_k and hankel1).
MAX_GRID_POINTS = 10 ** 6
# Contour sampling of winding_number: per unit of side length, and the
# fewest samples on any side.  On Re s = 3, the long side of the strip
# count of `rzlab zeros`, the phase of xi moves at most 1.96 rad per unit
# below T_MAX (measured on a grid of 400 per unit): every first step, at
# most 9/16 long, stays below pi/2.
SAMPLES_PER_UNIT = 2
MIN_SIDE_SAMPLES = 8
# Double-precision machine epsilon: where tol is finer than the float
# spacing, find_root_bracketed closes a bracket at 4 eps max(|lo|, |hi|),
# and integrate_adaptive stops at 4 eps times the sum of |terms|.
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
class ContourRectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("degenerate rectangle")


def integrate_adaptive(f, a, b, tol):
    """Trapezoid sum of complex-valued f on [a, b], for an f analytic near
    [a, b] and negligible at both ends, where the sum converges
    geometrically (Trefethen and Weideman, SIAM Review 56, 2014).

    f maps an array of points to the array of its values.  From
    _FIRST_STEPS steps on, each sum halves the step and calls f once, on
    the midpoints, until two sums differ by at most tol or by at most the
    rounding floor 4 eps sum |terms|; error_estimate is the larger of that
    difference and the floor.  A sum that would pass MAX_GRID_POINTS
    nodes raises RangeError, as bessel_k and hankel1 do.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    n = _FIRST_STEPS
    h = (b - a) / n
    y = np.asarray(f(a + h * np.arange(n + 1)), dtype=complex)
    total = h * (y.sum() - 0.5 * (y[0] + y[-1]))
    mass = h * (np.abs(y).sum() - 0.5 * (abs(y[0]) + abs(y[-1])))
    nodes, err = n + 1, math.inf
    while nodes + n <= MAX_GRID_POINTS:
        h *= 0.5
        y = np.asarray(f(a + h * np.arange(1, 2 * n, 2)), dtype=complex)
        old, total = total, 0.5 * total + h * y.sum()
        mass = 0.5 * mass + h * np.abs(y).sum()
        nodes, n = nodes + n, 2 * n
        diff, floor = abs(total - old), 4.0 * _EPS * abs(mass)
        err = float(max(diff, floor))
        if not diff > max(tol, floor):  # a NaN sum stops too
            return QuadratureResult(complex(total), err, nodes)
    raise RangeError("integrate_adaptive would sum more than %d nodes "
                     "(error %.3g > tol %.3g)" % (MAX_GRID_POINTS, err, tol))


# A spread round of find_root_bracketed samples 7 points evenly inside
# each bracket: with its ends, 9 nodes on [-1, 1].  Row i of _BASIS holds
# the coefficients, in increasing _POWERS, of the Lagrange polynomial of
# node i, and _FIT takes values at the nodes to the coefficients of the
# polynomial p through them and of p'.  Both are built and applied
# without BLAS, whose first call adds about 0.5 MB of resident memory.
_NODES = np.linspace(-1.0, 1.0, 9)
_POWERS = np.arange(9.0)
_BASIS = np.array([np.poly(np.delete(_NODES, i))[::-1]
                   / np.prod(u - np.delete(_NODES, i))
                   for i, u in enumerate(_NODES)])
_FIT = np.concatenate(
    (_BASIS, np.roll(_BASIS * _POWERS, -1, axis=1)), axis=1)
_TRIPLE = np.array([-1.0, 0.0, 1.0])


def find_root_bracketed(f, lo, hi, tol, f_lo, f_hi):
    """Refine the sign changes of real-valued f on the brackets
    [lo[i], hi[i]], where f is f_lo[i] and f_hi[i], all together, in
    rounds that each call f once on an array of points strictly inside;
    return the refined points and f there, each value from the round
    that evaluated its point.

    Rounds alternate.  A spread round samples 7 points evenly inside
    each bracket, which keeps the neighbouring samples across which f
    changes sign; Newton's method on the polynomial through the 9, from
    the secant root of that pair, estimates the root x.  A certifying
    round samples x and x -+ d, d = max(tol/2, 2 eps |x|), or the
    quarters of a bracket narrower than 4 d.  A bracket closes once f is
    0 at an end or it is tol (or 4 eps max(|lo|, |hi|)) wide; its end
    with the smaller |f| is the result.  Brackets up to half a smooth
    f's scale wide (sin's on brackets 0.5 wide), as the zero scan's are,
    close in one round of each kind.  A bracket without a sign change
    raises PreconditionError before any call.
    """
    if not tol > 0.0:
        raise PreconditionError("tol must be positive")
    n = len(lo)
    pair, pair_f = np.empty((n, 2)), np.empty((n, 2))
    pair[:, 0], pair[:, 1] = lo, hi
    pair_f[:, 0], pair_f[:, 1] = f_lo, f_hi
    sign = np.sign(pair_f)
    change = sign[:, 0] * sign[:, 1]
    if np.count_nonzero(change > 0.0):
        raise PreconditionError("no sign change on bracket [%g, %g]"
                                % tuple(pair[(change > 0.0).argmax()]))
    floor = np.fmax(tol, 4.0 * _EPS * np.abs(pair).max(axis=1))
    root, value, todo = np.empty(n), np.empty(n), np.arange(n)
    spread = True
    while True:
        width = pair[:, 1] - pair[:, 0]
        closed = (width <= floor) | (change == 0.0)
        if np.count_nonzero(closed):
            end = np.abs(pair_f[closed]).argmin(axis=1)
            root[todo[closed]] = pair[closed, end]
            value[todo[closed]] = pair_f[closed, end]
            keep = ~closed
            todo, pair, pair_f = todo[keep], pair[keep], pair_f[keep]
            width, floor = width[keep], floor[keep]
            if not spread:
                y, centre, half = y[keep], centre[keep], half[keep]
            n = len(todo)
        if not n:
            return root, value
        if spread:
            centre, half = pair[:, 0] + 0.5 * width, 0.5 * width
            inner = _NODES[1:-1]
        else:
            # Newton's method in the spread's units u = (x - centre) / half
            u = (pair - centre[:, None]) / half[:, None]
            r = u[:, 0] + (u[:, 1] - u[:, 0]) * (
                pair_f[:, 0] / (pair_f[:, 0] - pair_f[:, 1]))
            coef = np.add.reduce(y[:, :, None] * _FIT, 1).reshape(n, 2, -1)
            for _ in range(2):
                p, dp = np.add.reduce(coef * (r[:, None] ** _POWERS)[:, None],
                                      2).T
                r = np.fmin(np.fmax(r - np.divide(
                    p, dp, out=np.zeros(n), where=dp != 0.0), u[:, 0]),
                    u[:, 1])
            est = centre + half * r
            half = np.fmin(np.fmax(0.5 * tol, 2.0 * _EPS * np.abs(est)),
                           0.25 * width)
            centre = np.fmin(np.fmax(est, pair[:, 0] + 2.0 * half),
                             pair[:, 1] - 2.0 * half)
            inner = _TRIPLE
        m = len(inner) + 2
        x, y = np.empty((n, m)), np.empty((n, m))
        x[:, ::m - 1], y[:, ::m - 1] = pair, pair_f
        x[:, 1:-1] = centre[:, None] + half[:, None] * inner
        y[:, 1:-1] = np.asarray(f(x[:, 1:-1].ravel()),
                                dtype=float).reshape(n, m - 2)
        # the first neighbouring samples across which f changes sign or is
        # 0: the left one is never 0, nor f there equal to f at the right
        s = np.sign(y)
        k = (s[:, :-1] * s[:, 1:] <= 0.0).argmax(axis=1) + np.arange(
            0, n * m, m)
        k = k[:, None] + (0, 1)
        pair, pair_f, sign = x.take(k), y.take(k), s.take(k)
        change = sign[:, 0] * sign[:, 1]
        spread = not spread


def _fold_phase(x):
    """x mod 2 pi in (-pi, pi] for a float or an array, by arithmetic that
    keeps a float cheap (rounding may put x just above pi on -pi)."""
    return math.pi - (math.pi - x) % math.tau


def real_sign(phase):
    """+-1 as phase, a number or an array, lies nearer 0 or pi: the sign of
    a real value computed with a noisy phase (cheap for a number)."""
    return 1 - 2 * (abs(_fold_phase(phase)) >= 0.5 * math.pi)


def winding_number(g, rects, mirror=False):
    """Total argument change of g around each rectangle's boundary, / 2
    pi: one count per rectangle of the sequence rects.

    g maps an array of points to the array of its values.  Each side is
    sampled SAMPLES_PER_UNIT times per unit of its length (at least
    MIN_SIDE_SAMPLES), each side with both of its corners, and the
    samples of every contour are evaluated in one call.  Phase steps
    between consecutive samples of a contour are then refined in
    rounds: each round bisects every step not below pi/2, of all the
    contours together, with one call of g on all their midpoints, until
    every step is below pi/2, which rules out 2 pi aliasing near zeros
    close to a contour.  No step joins one contour to the next.  A step
    still unresolved after 40 rounds, or a round that would pass
    MAX_GRID_POINTS points, raises BoundaryZeroError for the batch, as
    does a zero of g on any contour.

    mirror=True is for g with g(re_min + re_max - conj z) = conj g(z),
    as xi(1 - conj s) = conj xi(s) about Re s = 1/2.  The left half of
    the boundary then mirrors the right half and carries the same
    argument change, so only the right half is sampled: from the bottom
    midpoint through the two right corners to the top midpoint, both
    ends on the symmetry line, where g is real: real_sign snaps their
    phases to 0 or pi, so the computed sign there decides a zero at an
    end, and a step at an end still unresolved after 40 rounds is taken
    as it is.  The argument change is a multiple of pi, / pi the count.
    """
    if not len(rects):
        return []
    re_min, re_max, im_min, im_max = np.array(
        [(r.re_min, r.re_max, r.im_min, r.im_max) for r in rects]).T
    right = [re_max + 1j * im_min, re_max + 1j * im_max]
    if mirror:
        mid = 0.5 * (re_min + re_max)
        path = [mid + 1j * im_min] + right + [mid + 1j * im_max]
    else:
        lo = re_min + 1j * im_min
        path = [lo] + right + [re_min + 1j * im_max, lo]
    # side i runs from za[i] to zb[i] in m[i] steps: its samples are
    # za + (zb - za) j / m for j = 0 .. m, the contours one after another
    path = np.stack(path, axis=1)
    za, zb = path[:, :-1].ravel(), path[:, 1:].ravel()
    m = np.maximum(MIN_SIDE_SAMPLES,
                   (SAMPLES_PER_UNIT * np.abs(zb - za)).astype(int))
    side = np.repeat(np.arange(len(m)), m + 1)
    end = np.cumsum(m + 1) - 1
    j = np.arange(len(side)) - np.repeat(end - m, m + 1)
    z = za[side] + (zb - za)[side] * j / m[side]
    z[end] = zb  # za + (zb - za) m / m can round past zb
    owner = side // (path.shape[1] - 1)

    def phases(z):
        w = np.asarray(g(z), dtype=complex)
        low = np.abs(w) < 1e-300
        if low.any():
            raise BoundaryZeroError("|g| below floor at boundary point %s"
                                    % z[np.argmax(low)])
        return np.angle(w)

    ph = phases(z)
    for depth in range(41):
        # the first and last sample of each contour
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        last = np.append(first[1:] - 1, len(z) - 1)
        if mirror and depth == 0:
            ends = np.append(first, last)
            ph[ends] = 0.5 * math.pi * (1 - real_sign(ph[ends]))
        steps = _fold_phase(np.diff(ph))
        steps[last[:-1]] = 0.0  # the joins between contours
        wide = np.flatnonzero(~(np.abs(steps) < 0.5 * math.pi))
        if depth == 40 and mirror:
            # at a zero on a mirror end the snapped phase sets the sign
            wide = np.setdiff1d(wide, np.append(first, last - 1))
        if not len(wide):
            # exact multiples: the steps telescope between equal or
            # snapped ends
            total = np.bincount(owner[1:], weights=steps)
            return [round(w) for w in
                    total / (math.pi if mirror else 2 * math.pi)]
        # a NaN or noise phase doubles its wide steps every round
        if depth == 40 or len(z) + len(wide) > MAX_GRID_POINTS:
            raise BoundaryZeroError("phase step not resolving near %s; zero "
                                    "on contour?" % z[wide[len(wide) // 2]])
        at = wide + 1
        zm = 0.5 * (z[wide] + z[at])
        z, ph = np.insert(z, at, zm), np.insert(ph, at, phases(zm))
        owner = np.insert(owner, at, owner[wide])
