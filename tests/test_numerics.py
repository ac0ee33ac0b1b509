import cmath
import math

import numpy as np
import pytest

from rzlab.errors import BoundaryZeroError, PreconditionError, RangeError
from rzlab.numerics import (MAX_GRID_POINTS, MIN_SIDE_SAMPLES,
                            SAMPLES_PER_UNIT, ContourRectangle,
                            QuadratureResult, find_root_bracketed,
                            integrate_adaptive, real_sign, winding_number)


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(0j, -1.0, 10)
    with pytest.raises(ValueError):
        QuadratureResult(0j, 0.0, 0)


def test_bracket_validation():
    with pytest.raises(PreconditionError, match="tol"):
        find_root_bracketed(np.cos, [1.0], [2.0], 0.0, [0.5], [-0.4])
    with pytest.raises(ValueError):
        ContourRectangle(0.0, 0.0, 0.0, 1.0)


def test_integrate_exp():
    # int e^(-x^2) over [-8, 8] = sqrt(pi) to 1e-29; each sum after the
    # first calls f once, on new points only
    f, calls = _counted(lambda x: np.exp(-x * x))
    r = integrate_adaptive(f, -8.0, 8.0, 1e-12)
    assert abs(r.value - math.sqrt(math.pi)) < 1e-12
    assert r.error_estimate < 1e-12
    points = np.concatenate(calls)
    assert r.evaluations == points.size == np.unique(points).size >= 49
    assert [c.size for c in calls] == [49] + [48 * 2 ** k
                                            for k in range(len(calls) - 1)]


def test_integrate_oscillatory():
    # int sech(x) cos(10 x) over the line = pi sech(5 pi); [-40, 40]
    # leaves out less than 4 e^-40
    r = integrate_adaptive(lambda x: np.cos(10.0 * x) / np.cosh(x),
                           -40.0, 40.0, 1e-11)
    assert abs(r.value - math.pi / math.cosh(5.0 * math.pi)) < 1e-11


def test_integrate_complex_valued():
    # int sech(x) e^(ix) over the line = pi sech(pi / 2)
    r = integrate_adaptive(lambda x: np.exp(1j * x) / np.cosh(x),
                           -40.0, 40.0, 1e-12)
    assert abs(r.value - math.pi / math.cosh(0.5 * math.pi)) < 1e-11


def test_integrate_stops_at_the_node_cap():
    # sign(sin(1e6 x)) flips a million times on [0, 1]: no sum settles to
    # 1e-14, and the one node cap stops it loudly
    f, calls = _counted(lambda x: np.sign(np.sin(1e6 * x)))
    with pytest.raises(RangeError, match="more than 1000000 nodes"):
        integrate_adaptive(f, 0.0, 1.0, 1e-14)
    assert sum(c.size for c in calls) <= MAX_GRID_POINTS


def test_integrate_stops_at_the_rounding_floor():
    # no sum can reach tol = 1e-300: the rounding floor stops it with an
    # honest error estimate instead of running on to the node cap
    r = integrate_adaptive(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-300)
    assert abs(r.value - math.sqrt(math.pi)) < 1e-14
    assert 1e-300 < r.error_estimate < 1e-13
    assert r.evaluations < 2000


def test_integrate_empty_interval():
    r = integrate_adaptive(np.ones_like, 2.0, 2.0, 1e-10)
    assert r.value == 0j
    assert r.error_estimate == 0.0


def _counted(fn):
    """fn, and the list of the arrays it is called on."""
    calls = []

    def f(x):
        calls.append(np.array(x))
        return fn(x)
    return f, calls


def test_root_bracketed_cosine():
    f, calls = _counted(np.cos)
    r, fr = find_root_bracketed(f, [1.0], [2.0], 1e-12, np.cos([1.0]),
                                np.cos([2.0]))
    assert abs(r[0] - 0.5 * math.pi) <= 1e-12
    assert abs(fr[0]) <= 1e-12
    # a spread round and a certifying one, twice over
    assert [len(x) for x in calls] == [7, 3, 7, 3]


def test_root_bracketed_many_brackets_few_rounds():
    # 200 roots of sin, each in a bracket a tenth wide: a spread round of
    # 7 points per bracket and a certifying round of 3, one call each
    k = np.arange(1, 201)
    lo = k * math.pi - 0.037
    f, calls = _counted(np.sin)
    r, fr = find_root_bracketed(f, lo, lo + 0.1, 1e-12, np.sin(lo),
                                np.sin(lo + 0.1))
    assert np.all(np.abs(r - k * math.pi) <= 1e-12)
    assert [len(x) for x in calls] == [1400, 600]
    # brackets half a scale wide take at most a second pair of rounds
    f, calls = _counted(np.sin)
    r, fr = find_root_bracketed(f, lo, lo + 0.5, 1e-12, np.sin(lo),
                                np.sin(lo + 0.5))
    assert np.all(np.abs(r - k * math.pi) <= 1e-12)
    assert len(calls) <= 4


def test_root_bracketed_takes_known_end_values():
    f, calls = _counted(lambda x: x * x - 2.0)
    r, fr = find_root_bracketed(f, [1.0], [2.0], 1e-12, [-1.0], [2.0])
    assert abs(r[0] - math.sqrt(2.0)) <= 1e-12
    x = np.concatenate(calls)
    assert x.size and np.all((1.0 < x) & (x < 2.0))
    assert fr[0] == r[0] * r[0] - 2.0


def test_root_bracketed_requires_sign_change():
    # the end values decide, before any call, for every bracket at once
    f, calls = _counted(lambda x: 1.0 + x * x)
    with pytest.raises(PreconditionError, match=r"no sign change.*\[0, 1\]"):
        find_root_bracketed(f, [-1.0, 0.0], [0.0, 1.0], 1e-10,
                            [-1.0, 1.0], [1.0, 2.0])
    assert calls == []


def test_root_bracketed_zero_end_value_returns_that_end():
    f, calls = _counted(lambda x: x - 1.5)
    r, fr = find_root_bracketed(f, [1.0, 1.5, 0.0], [1.5, 2.0, 3.0], 1e-12,
                                [-0.5, 0.0, -1.5], [0.0, 0.5, 1.5])
    assert list(r[:2]) == [1.5, 1.5] and list(fr[:2]) == [0.0, 0.0]
    assert r[2] == 1.5
    # the closed brackets add no points to the rounds
    assert all(len(x) % 7 == 0 or len(x) == 3 for x in calls)


def test_root_bracketed_tol_finer_than_float_spacing():
    # near 1e5 floats are 1.46e-11 apart: tol = 1e-300 stops at the
    # spacing, a few units in the last place from the sign change
    root = 1e5 + 0.3
    f, calls = _counted(lambda x: np.log(x / root))
    r, fr = find_root_bracketed(f, [1e5], [1e5 + 1.0], 1e-300,
                                np.log([1e5 / root]),
                                np.log([(1e5 + 1.0) / root]))
    assert abs(r[0] - root) <= 4 * np.spacing(root)
    assert [len(x) for x in calls] == [7, 3]


@pytest.mark.parametrize("fn,lo,hi", [
    # a step: equal values at every sample on each side
    (lambda x: np.where(x < 1.2345, -1.0, 1.0), 1.0, 2.0),
    # exactly 0 over a stretch that the first round lands in
    (lambda x: np.maximum(0.0, x - 1.8) - np.maximum(0.0, 1.2 - x), 1.0,
     2.0),
    # a triple root: the slope vanishes at the root
    (lambda x: (x - 1.5) ** 3, 1.0, 2.3),
])
def test_root_bracketed_degenerate_values_raise_no_warning(fn, lo, hi):
    # any 0/0 in the interpolation would be a RuntimeWarning, which the
    # test configuration turns into an error
    r, fr = find_root_bracketed(fn, [lo], [hi], 1e-12, fn(np.array([lo])),
                                fn(np.array([hi])))
    a, b = fn(np.array([r[0] - 1e-12, r[0] + 1e-12]))
    assert fr[0] == 0.0 or a * b <= 0.0


def _side(length):
    """Samples winding_number first takes on a side of this length, both
    corners included."""
    return max(MIN_SIDE_SAMPLES, int(SAMPLES_PER_UNIT * length)) + 1


def test_winding_polynomial():
    rect = ContourRectangle(-1.0, 3.0, -1.0, 3.0)
    # (z - 1)(z - 2j): both roots inside
    assert winding_number(lambda z: (z - 1.0) * (z - 2j), [rect]) == [2]
    # one root inside, one outside
    assert winding_number(lambda z: (z - 1.0) * (z - 10.0), [rect]) == [1]
    # no roots
    assert winding_number(lambda z: np.exp(z), [rect]) == [0]


def test_winding_zero_near_contour_refines():
    # root at distance 1e-4 from the boundary still resolves
    rect = ContourRectangle(0.0, 1.0, 0.0, 1.0)
    assert winding_number(lambda z: z - complex(0.5, 1e-4), [rect]) == [1]


def test_winding_refines_every_wide_step_in_one_call_per_round():
    # zeros 1e-4 inside the bottom and top sides, below and above the
    # samples at Re z = 1/2: the steps either side of each stay at or
    # above pi/2 until they are about 0.01 long, and four rounds each
    # bisect all four wide steps in one call
    sizes = []

    def g(z):
        sizes.append(len(z))
        return (z - complex(0.5, 1e-4)) * (z - complex(0.5, 1.0 - 1e-4))

    rect = ContourRectangle(0.0, 1.0, 0.0, 1.0)
    assert winding_number(g, [rect]) == [2]
    assert sizes == [4 * _side(1.0), 4, 4, 4, 4]


def test_winding_unresolving_region_raises_with_bounded_work():
    # g is NaN within 1e-3 of a point on the right side: every step there
    # stays wide, and bisecting them doubles their number each round, so
    # the refinement gives up before the contour passes MAX_GRID_POINTS
    sizes = []

    def g(z):
        sizes.append(len(z))
        return np.where(abs(z - (1.0 + 3.0j)) < 1e-3, np.nan, z - 0.5 - 3.0j)

    with pytest.raises(BoundaryZeroError, match="not resolving"):
        winding_number(g, [ContourRectangle(0.0, 1.0, 1.0, 5.0)])
    assert sum(sizes) <= MAX_GRID_POINTS


def test_winding_zero_on_contour_raises():
    rect = ContourRectangle(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(BoundaryZeroError):
        winding_number(lambda z: z - 0.5, [rect])


def test_winding_samples_all_sides_in_one_call():
    # sides of length 1 and 25, all four in the first call, and no
    # refinement
    sizes = []

    def g(z):
        sizes.append(len(z))
        return z - complex(0.5, 3.0)

    rect = ContourRectangle(0.0, 1.0, 0.0, 25.0)
    assert winding_number(g, [rect]) == [1]
    assert sizes[0] == 2 * _side(1.0) + 2 * _side(25.0)
    assert all(n == 1 for n in sizes[1:])


def _mirror_symmetric(roots):
    """i^N prod (z - r) over the roots and the mirror 1 - conj r of each
    root off the midline: g(1 - conj z) = conj g(z), the symmetry of xi
    about Re s = 1/2."""
    roots = list(roots) + [1.0 - r.conjugate() for r in roots
                           if r.real != 0.5]

    def g(z):
        w = np.full(np.shape(z), 1j ** len(roots), dtype=complex)
        for r in roots:
            w *= z - r
        return w
    return g


@pytest.mark.parametrize("roots,count", [
    ([], 0),
    # midline roots, one of them close to the top edge
    ([0.5 + 2j], 1),
    ([0.5 + 1.5j, 0.5 + 2j, 0.5 + 4.2j, 0.5 + 4.9999j], 4),
    # off-line pairs: inside, and one pair straddling both sides
    ([0.3 + 2j], 2),
    ([0.25 + 3j, 0.5 + 3.5j, -0.5 + 1j, 0.1 + 1.2j], 5),
    ([1.5 + 2.5j], 0),
    # pairs near the right side, just inside and just outside
    ([0.9999 + 3j, 1.0001 + 4j], 2),
    # roots beyond the top and bottom edges
    ([0.5 + 0.5j, 0.5 + 6j, 0.8 + 0.99j, 0.7 + 5.01j], 0),
])
def test_winding_mirror_matches_full_contour(roots, count):
    g = _mirror_symmetric(roots)
    rect = ContourRectangle(0.0, 1.0, 1.0, 5.0)
    assert winding_number(g, [rect]) == [count]
    assert winding_number(g, [rect], mirror=True) == [count]


def test_winding_mirror_samples_the_right_half_in_one_call():
    # the two half sides of length 1/2 and the right side of length 25:
    # about half of the full path, in one call
    sizes = []

    def g(z):
        sizes.append(len(z))
        return 1j * (z - complex(0.5, 3.0))

    rect = ContourRectangle(0.0, 1.0, 0.0, 25.0)
    assert winding_number(g, [rect], mirror=True) == [1]
    assert sizes[0] == 2 * _side(0.5) + _side(25.0)
    assert all(n == 1 for n in sizes[1:])


def test_winding_mirror_zero_on_top_edge_raises():
    g = _mirror_symmetric([0.5 + 5j])
    with pytest.raises(BoundaryZeroError):
        winding_number(g, [ContourRectangle(0.0, 1.0, 1.0, 5.0)],
                       mirror=True)


def _with_top_value(monkeypatch, value):
    """count_zeros_rectangle over [0, 1] x [1, 5] for a mirror-symmetric g
    with roots at 0.5 + 2i and, on the top edge's midpoint, 0.5 + 5i,
    where g is replaced by value.  On the midline g = (t - 2)(t - 5)
    (0.01 + (t - 5.5)^2) is negative between the two roots."""
    import rzlab.zeros

    g = _mirror_symmetric([0.5 + 2j, 0.5 + 5j, 0.4 + 5.5j])

    def log_g(z):
        w = g(z)
        w[z == 0.5 + 5j] = value
        with np.errstate(divide="ignore"):
            return np.log(w)

    monkeypatch.setattr(rzlab.zeros, "log_xi_array", log_g)
    return rzlab.zeros.count_zeros_rectangle(
        ContourRectangle(0.0, 1.0, 1.0, 5.0))


@pytest.mark.parametrize("phase", [0.3, -1.2, 1.5, 1.6, 2.0, -2.9, math.pi])
def test_count_rectangle_snaps_a_midline_root_on_the_top_edge(
        monkeypatch, phase):
    # a root on the top midpoint computes as a tiny value with a noise
    # phase; real_sign reads it as the scan would: + is a sign change
    # above the root at 2, so the top root is inside, - leaves it out
    count = _with_top_value(monkeypatch, 1e-12 * cmath.exp(1j * phase))
    assert count == (2 if real_sign(phase) > 0 else 1)


def test_count_rectangle_exact_zero_on_a_mirror_end_raises(monkeypatch):
    with pytest.raises(BoundaryZeroError, match="below floor"):
        _with_top_value(monkeypatch, 0.0)


@pytest.mark.parametrize("mirror", [False, True])
def test_winding_samples_stay_on_the_rectangle(mirror):
    # computed as za + (zb - za) m / m, the right side's last sample
    # would sit at Im z = 260.00000000000006; each side ends on its
    # corner exactly, so g is never asked for a point beyond it
    rect = ContourRectangle(0.0, 1.0, 78.33, 260.0)
    seen = []

    def g(z):
        seen.append(z)
        return 1j * (z - complex(0.5, 100.0))

    assert winding_number(g, [rect], mirror=mirror) == [1]
    z = np.concatenate(seen)
    assert z.imag.min() == 78.33 and z.imag.max() == 260.0
    assert z.real.min() == (0.5 if mirror else 0.0) and z.real.max() == 1.0


def _on_boundary(z, rects):
    """True where z lies on the boundary of one of the rectangles."""
    hit = np.zeros(len(z), dtype=bool)
    for r in rects:
        inside = ((r.re_min <= z.real) & (z.real <= r.re_max)
                  & (r.im_min <= z.imag) & (z.imag <= r.im_max))
        edge = ((z.real == r.re_min) | (z.real == r.re_max)
                | (z.imag == r.im_min) | (z.imag == r.im_max))
        hit |= inside & edge
    return hit


@pytest.mark.parametrize("mirror", [False, True])
def test_winding_counts_a_batch_of_contours_in_one_call(mirror):
    # counts 0, 1 and 2 from one call of g on all three contours, each
    # the count of its rectangle alone, and g sees no point off them
    g = _mirror_symmetric([0.5 + 2j, 0.5 + 4.2j, 0.5 + 4.6j])
    rects = [ContourRectangle(0.0, 1.0, 1.0, 1.5),
             ContourRectangle(0.0, 1.0, 1.5, 3.0),
             ContourRectangle(0.0, 1.0, 4.0, 5.0)]
    seen = []

    def counted(z):
        seen.append(z)
        return g(z)

    assert winding_number(counted, rects, mirror=mirror) == [0, 1, 2]
    assert len(seen) == 1 and _on_boundary(seen[0], rects).all()
    assert [winding_number(g, [r], mirror=mirror) for r in rects] == [
        [0], [1], [2]]
    assert winding_number(g, [], mirror=mirror) == []


def test_winding_batch_takes_no_step_between_contours():
    # g changes sign between the last sample of the first contour (its
    # corner 0) and the first of the second (its corner 4), and vanishes
    # half way: a step joining them would be wide, and its midpoint a
    # zero of g, a BoundaryZeroError
    sizes = []

    def g(z):
        sizes.append(len(z))
        return z - 2.0

    rects = [ContourRectangle(0.0, 1.0, 0.0, 1.0),
             ContourRectangle(4.0, 5.0, 0.0, 1.0)]
    assert winding_number(g, rects) == [0, 0]
    assert sizes == [2 * 4 * _side(1.0)]


def test_winding_batch_refines_one_contour_one_call_per_round():
    # only the middle contour has zeros near its sides: each round calls
    # g once, on its wide steps alone, as when it is counted by itself
    sizes = []

    def g(z):
        sizes.append(len(z))
        return (z - complex(0.5, 1e-4)) * (z - complex(0.5, 1.0 - 1e-4))

    rects = [ContourRectangle(-3.0, -2.0, 0.0, 1.0),
             ContourRectangle(0.0, 1.0, 0.0, 1.0),
             ContourRectangle(3.0, 4.0, 0.0, 1.0)]
    assert winding_number(g, rects[1:2]) == [2]
    alone = sizes[:]
    del sizes[:]
    assert winding_number(g, rects) == [0, 2, 0]
    assert sizes == [3 * alone[0]] + alone[1:] and len(alone) > 2


@pytest.mark.parametrize("mirror", [False, True])
def test_winding_boundary_zero_on_one_contour_raises_for_the_batch(mirror):
    g = _mirror_symmetric([0.5 + 2j, 0.5 + 5j])
    rects = [ContourRectangle(0.0, 1.0, 1.0, 3.0),
             ContourRectangle(0.0, 1.0, 4.0, 5.0),
             ContourRectangle(0.0, 1.0, 6.0, 7.0)]
    assert winding_number(g, rects[::2], mirror=mirror) == [1, 0]
    with pytest.raises(BoundaryZeroError):
        winding_number(g, rects, mirror=mirror)


@pytest.mark.parametrize("phase", [0.3, -1.2, 1.5, 1.6, 2.0, -2.9, math.pi])
def test_winding_mirror_reads_a_root_on_the_end_of_any_contour(phase):
    # a midline root on the first contour's top end, a sample inside the
    # batch, computes as a tiny value with a noise phase: its snapped
    # phase and the end step taken as it is after 40 rounds count it as
    # when that contour is counted alone (+ puts the root inside)
    base = _mirror_symmetric([0.5 + 2j, 0.5 + 5j, 0.4 + 5.5j])

    def g(z):
        w = base(z)
        w[z == 0.5 + 5j] = 1e-12 * cmath.exp(1j * phase)
        return w

    rects = [ContourRectangle(0.0, 1.0, 1.0, 5.0),
             ContourRectangle(0.0, 1.0, 6.0, 7.0)]
    count = 2 if real_sign(phase) > 0 else 1
    assert winding_number(g, rects, mirror=True) == [count, 0]
    assert winding_number(g, rects[:1], mirror=True) == [count]
