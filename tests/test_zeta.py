import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rzlab.zeta
from rzlab.errors import PoleError, RangeError
from rzlab.zeta import (SIGMA_MAX, SIGMA_MIN, T_MAX, log_xi, log_xi_array,
                        log_xi_line, xi_symmetry_residual, zeta, zeta_em)

# Frozen references from an independent high-precision evaluation.
ZETA_REFS = [
    (complex(2.0, 0.0), complex(math.pi ** 2 / 6.0, 0.0)),
    (complex(2.0, 3.0), complex(0.7980219851462758, -0.1137443080529385)),
    (complex(0.5, 25.0), complex(0.004984593364035676, -0.014012301962583382)),
    (complex(-3.5, 12.0), complex(11.875377494991096, -7.5680809329707825)),
    (complex(0.1, -7.0), complex(1.0108619462898203, -0.48658344975017)),
]

XI_REFS = [
    (complex(0.0, 0.0), complex(0.5, 0.0)),
    (complex(1.0, 0.0), complex(0.5, 0.0)),
    (complex(2.0, 0.0), complex(0.5235987755982989, 0.0)),
    (complex(0.5, 5.0), complex(0.2755499973442042, 0.0)),
    (complex(-1.5, 20.0),
     complex(7.018659744276138e-05, 7.309788652278974e-05)),
]


@pytest.mark.parametrize("s,ref", ZETA_REFS)
def test_zeta_reference(s, ref):
    assert abs(zeta(s) - ref) < 1e-11 * abs(ref)


def test_zeta_pole():
    with pytest.raises(PoleError):
        zeta(1.0)


def test_zeta_near_pole():
    # zeta(s) ~ 1/(s-1) + gamma near s = 1 (using the rounded s - 1)
    s = 1.0 + 1e-8
    v = zeta(s)
    want = 1.0 / (s - 1.0) + 0.5772156649015329
    assert abs(v - want) < 1e-4


# s = 1 + 10^-e u on six rays, s = 1 itself and 1 +- 1e-300 i.
NEAR_POLE = ([1.0 + 10.0 ** -e * u for e in range(1, 17)
              for u in (1.0, -1.0, 1j, -1j, 1.0 + 1j, -1.0 + 0.5j)]
             + [1.0, complex(1.0, 1e-300), complex(1.0, -1e-300)])


def test_log_xi_entire_at_pole():
    # log xi(1) = log(1/2); zeta_em sums the entire (s - 1) zeta(s), so
    # log_xi and log_xi_array need no case of their own at the pole, and
    # zeta, which divides by s - 1, keeps full relative accuracy next to it
    pts = np.array(NEAR_POLE, dtype=complex)
    array = log_xi_array(pts)
    for s, a in zip(pts, array):
        s = complex(s)
        with mpmath.workdps(40):
            m = mpmath.mpc(s)
            g = 1 if s == 1.0 else (m - 1) * mpmath.zeta(m)
            want = complex(mpmath.log(g * mpmath.gamma(m / 2 + 1)
                                      * mpmath.pi ** (-m / 2)))
            ref = None if s == 1.0 else complex(mpmath.zeta(m))
        assert abs(log_xi(s) - want) < 1e-14, s
        assert abs(a - want) < 1e-14, s
        if ref is not None:
            assert abs(zeta(s) / ref - 1.0) < 1e-15, s


def test_zeta_window_errors():
    with pytest.raises(RangeError):
        zeta(complex(0.5, T_MAX + 1.0))
    with pytest.raises(RangeError):
        zeta(complex(-11.0, 0.0))


@pytest.mark.parametrize("s", [complex(math.nan, 0.0),
                               complex(-1.0, math.nan),
                               complex(math.nan, 5.0)])
def test_nan_is_outside_the_window(s):
    for f in (zeta, log_xi, lambda s: log_xi_array(np.array([s]))):
        with pytest.raises(RangeError):
            f(s)


def test_window_right_edge():
    # log xi is still finite at the edge; beyond it, up to infinity, the
    # scalar and the array route raise before any term overflows
    assert math.isfinite(log_xi(SIGMA_MAX).real)
    assert log_xi_array(np.array([SIGMA_MAX]))[0] == log_xi(SIGMA_MAX)
    for s in (math.nextafter(SIGMA_MAX, math.inf), 8.9e307, math.inf):
        for f in (zeta, log_xi, lambda s: log_xi_array(np.array([s]))):
            with pytest.raises(RangeError, match="above supported window"):
                f(complex(s, 0.0))


@pytest.mark.parametrize("s,ref", XI_REFS)
def test_xi_reference(s, ref):
    got = cmath.exp(log_xi(s))
    assert abs(got - ref) < 1e-11 * abs(ref)


def test_xi_log_form_tracks_decay():
    # |xi(1/2 + it)| decays like exp(-pi t / 4); the log form must hold
    # the value far below linear underflow thresholds of naive products.
    lm = log_xi(complex(0.5, 200.0)).real
    assert lm < -100.0
    assert math.isfinite(lm)


def test_xi_symmetry_residual_grid():
    # off 0 <= Re s <= 1 the residual is an identity (it reads 0 at the
    # second and third point); in the strip both sides run their own
    # Euler-Maclaurin sums, also at large |t|
    for s in (complex(0.3, 7.0), complex(-1.0, 12.5), complex(2.0, 40.0),
              complex(0.1, 200.0), complex(0.9, -250.0)):
        assert xi_symmetry_residual(s) < 1e-10


def test_log_xi_consistent_with_xi():
    # xi from its definition, by mpmath
    s = complex(0.25, 18.0)
    assert abs(cmath.exp(log_xi(s)) - _mp_xi(s)) < 1e-12


@pytest.mark.parametrize("x", [1e160, 1e300])
def test_zeta_huge_real_argument(x):
    # n^(-s-1) underflows to 0 long before the Bernoulli factors overflow
    ref = complex(mpmath.zeta(mpmath.mpf(x)))
    assert ref == 1.0
    assert zeta(x) == ref


@pytest.mark.parametrize("e", range(6, 16))
def test_zeta_just_left_of_zero(e):
    # the reflection needs zeta(1 - s) with the offset -s kept exact
    s = -(10.0 ** -e)
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(mpmath.mpf(s)))
    assert abs(zeta(s) - ref) < 1e-13 * abs(ref)


@pytest.mark.parametrize("k", range(1, 6))
def test_zeta_next_to_trivial_zeros(k):
    # Gamma(s/2 + 1) has its pole where zeta has its zero; both are
    # taken with s/2 + 1 exact, so the ratio keeps full relative accuracy
    assert zeta(-2.0 * k) == 0.0
    for e in range(1, 15):
        for u in (1.0, -1.0, 1j, -1j, 1.0 + 1j):
            s = -2.0 * k + u * 10.0 ** -e
            if s.real < SIGMA_MIN:
                continue
            with mpmath.workdps(30):
                ref = complex(mpmath.zeta(mpmath.mpc(s)))
            assert abs(zeta(s) - ref) < 1e-13 * abs(ref), s


def _box_sides(re_min, re_max, im_min, im_max):
    u = np.linspace(0.0, 1.0, 33)
    v = np.linspace(0.0, 1.0, 2501)
    return [re_min + (re_max - re_min) * u + 1j * im_min,
            re_max + 1j * (im_min + (im_max - im_min) * v),
            re_max - (re_max - re_min) * u + 1j * im_max,
            re_min + 1j * (im_max - (im_max - im_min) * v)]


@pytest.mark.parametrize("points", [0.5 + 1j * np.linspace(0.1, 249.9, 2499)]
                         + _box_sides(0.0, 1.0, 1e-3, 250.0),
                         ids=["critical-line", "bottom", "right", "top",
                              "left"])
def test_log_xi_array_matches_scalar(points):
    want = np.array([log_xi(complex(z)) for z in points])
    got = log_xi_array(points)
    assert got.shape == points.shape
    assert np.max(np.abs(np.exp(got - want) - 1.0)) < 1e-12


def test_log_xi_array_near_pole_window_and_shape(monkeypatch):
    # the point near s = 1 matches the scalar on the array, and a point
    # outside the window raises the scalar's error, with no scalar log_xi
    # call; an empty batch stays empty
    pts = np.array([[0.0, 1.0 + 1e-8], [complex(-1.5, 20.0), 2.0]])
    want = np.array([[log_xi(complex(z)) for z in row] for row in pts])
    outside = complex(0.5, -T_MAX - 1.0)
    with pytest.raises(RangeError) as scalar:
        log_xi(outside)

    def refuse(s):
        raise AssertionError("scalar log_xi at %r" % s)
    monkeypatch.setattr(rzlab.zeta, "log_xi", refuse)
    got = log_xi_array(pts)
    assert got.shape == (2, 2)
    assert np.max(np.abs(np.exp(got - want) - 1.0)) < 1e-14
    with pytest.raises(RangeError) as array:
        log_xi_array(np.array([0.5 + 10j, outside, complex(-11.0, 0.0)]))
    assert str(array.value) == str(scalar.value)
    empty = log_xi_array(np.array([], dtype=complex))
    assert empty.shape == (0,) and empty.dtype == complex


def test_zeta_em_array_matches_scalar():
    t = np.linspace(30.0, 30.4, 5)
    got = zeta_em(0.5, t, 61)
    assert got.shape == t.shape
    for x, w in zip(t, got):
        assert abs(w - zeta_em(0.5, float(x), 61)) < 1e-14


def test_zeta_em_above_the_window_terms():
    # n above len(_LOG_K) + 1 = 88 takes its logs from np.log, not the
    # table; more terms than the window needs agree with n = 88
    t = np.array([0.0, 10.0, 100.0, 255.0])
    for n in (100, 120):
        for got, want in ((zeta_em(0.5, t, n), zeta_em(0.5, t, 88)),
                          ([zeta_em(0.5, x, n) for x in t],
                           [zeta_em(0.5, x, 88) for x in t])):
            assert np.max(np.abs(np.divide(got, want) - 1.0)) < 1e-13


def test_log_xi_array_matches_scalar_across_n_groups():
    # off the critical line, both signs of t, every n from 20 to 88
    rng = np.random.default_rng(5)
    pts = (rng.uniform(0.0, 3.0, 400)
           + 1j * rng.uniform(-T_MAX, T_MAX, 400))
    pts[:2] = [0.5, complex(0.7, -T_MAX)]
    n = rzlab.zeta._em_terms(pts.imag).astype(int)
    assert set(n) == set(range(20, 89, 4))
    want = np.array([log_xi(complex(z)) for z in pts])
    got = log_xi_array(pts)
    assert np.max(np.abs(np.exp(got - want) - 1.0)) < 1e-12
    # the kernel itself: a group's array call against its points one by
    # one, which stop the corrections early
    for m in set(n):
        z = pts[n == m]
        got = zeta_em(z.real, z.imag, int(m))
        want = np.array([zeta_em(x.real, x.imag, int(m)) for x in z])
        assert np.max(np.abs(got - want)) < 2e-15 * np.max(np.abs(want))


def _mixed_points(count):
    """count points with Re s in [0, 5], both signs of t and every n from
    20 to 88 (20 only at t = 0), a third of them on Re s = 1/2."""
    rng = np.random.default_rng(36)
    pts = rng.uniform(0.0, 5.0, count) + 1j * rng.uniform(-T_MAX, T_MAX, count)
    pts[::3] = 0.5 + 1j * pts[::3].imag
    pts[1:6:2] = [2.0, 0.5, complex(4.5, -T_MAX)]
    n = rzlab.zeta._em_terms(pts.imag).astype(int)
    assert set(n) == set(range(20, 89, 4))
    return pts


def test_zeta_em_batch_is_bit_identical_alone_and_in_any_batch():
    # every point is summed at its own n, whatever else is in its batch,
    # and closed from given main sums over k < n to the same value: each
    # point's own, by zeta_em's formula (3000 crosses both chunk sizes,
    # 186 points with the sums and 97 at n = 84 without)
    batch = rzlab.zeta._zeta_em_batch
    pts = _mixed_points(15535)
    alone = np.array([batch(pts[j:j + 1])[0] for j in range(len(pts))])
    n = rzlab.zeta._em_terms(pts.imag).astype(int)
    sums = np.array([np.exp(np.multiply.outer(-s, np.log(np.arange(1.0, m))))
                     .sum(axis=-1) for s, m in zip(pts, n)])
    for size in (7, 100, 3000):
        got = np.concatenate([batch(pts[j:j + size])
                              for j in range(0, len(pts), size)])
        assert np.array_equal(got, alone), size
        got = np.concatenate([batch(pts[j:j + size], sums[j:j + size])
                              for j in range(0, len(pts), size)])
        assert np.array_equal(got, alone), size
    # zeta_em from given sums with an int array n: one call per n
    want = np.empty_like(pts)
    for m in np.unique(n):
        j = n == m
        want[j] = zeta_em(pts.real[j], pts.imag[j], int(m), sums[j])
    assert np.array_equal(zeta_em(pts.real, pts.imag, n, sums), want)


@pytest.mark.parametrize("size", [1, 185, 186, 187, 1000, 3000])
def test_zeta_em_batch_with_sums_takes_one_call_per_186_points(
        monkeypatch, size):
    # with given sums zeta_em forms only its 43 correction factors per
    # point, so a batch is closed 186 (_CHUNK_TERMS // 44) points a call
    # however many n it spans, each call's n still an int to int(), its
    # largest; without them, one call per n at least
    pts = _mixed_points(3000)[:size]
    n = rzlab.zeta._em_terms(pts.imag).astype(int)
    calls = []

    def counted(sigma, t, m, total=None):
        calls.append((np.size(m), int(m)))
        return zeta_em(sigma, t, m, total)
    monkeypatch.setattr(rzlab.zeta, "zeta_em", counted)
    rzlab.zeta._zeta_em_batch(pts, np.zeros(size, complex))
    assert calls == [(len(n[lo:lo + 186]), n[lo:lo + 186].max())
                     for lo in range(0, size, 186)]
    del calls[:]
    rzlab.zeta._zeta_em_batch(pts)
    assert len(calls) >= len(set(n)) and {c for c, _ in calls} == {1}


def test_log_xi_array_is_bit_identical_alone_and_in_any_batch():
    # the whole window: _mixed_points, reflected points with Re s in
    # [-10, 0) and points far right, at Re s = 30 and 1e300; log Gamma's
    # shift is 11 for every array, so a point's log xi, its phase
    # included, is its own whatever else is in its batch
    rng = np.random.default_rng(40)
    t = rng.uniform(-T_MAX, T_MAX, 400)
    pts = np.concatenate([_mixed_points(3000),
                          rng.uniform(-10.0, 0.0, 300) + 1j * t[:300],
                          30.0 + 1j * t[300:350], 1e300 + 1j * t[350:]])
    rng.shuffle(pts)
    alone = np.array([log_xi_array(z) for z in pts])
    assert np.isfinite(alone).all()
    for size in (1, 2, 7, 128, 129, 3000):
        got = np.concatenate([log_xi_array(pts[j:j + size])
                              for j in range(0, len(pts), size)])
        assert np.array_equal(got, alone), size


def test_log_xi_array_empty_batch_does_no_work(monkeypatch):
    # the S-matrix's zero and pole flags hand log_xi_array their near
    # points, often none
    def refuse(*args):
        raise AssertionError("xi work on an empty batch")
    monkeypatch.setattr(rzlab.zeta, "_stirling", refuse)
    monkeypatch.setattr(rzlab.zeta, "zeta_em", refuse)
    for shape in [(0,), (2, 0)]:
        got = log_xi_array(np.empty(shape, complex))
        assert got.shape == shape and got.dtype == complex


def test_zeta_em_main_sum_at_t_250_is_short(monkeypatch):
    # the former rule summed max(20, 2|t|) = 500 terms here
    seen = []

    def spy(sigma, t, n, total=None):
        seen.append(n)
        return zeta_em(sigma, t, n, total)

    monkeypatch.setattr(rzlab.zeta, "zeta_em", spy)
    zeta(complex(0.5, 250.0))
    zeta(complex(-3.0, -250.0))
    log_xi_array(np.array([complex(0.5, 250.0), complex(1.0, -250.0)]))
    assert len(seen) == 3
    assert max(seen) <= 90


# Ordinates of the mpmath grid, each taken with both signs: t = 1, the
# zeros t_1, t_29 and t_100, t = 250, and steps of 13 up to T_MAX.
GRID_T = ((1.0, 14.134725141734694, 101.3178510057313, 236.5242296658162,
           250.0) + tuple(13.0 * k for k in range(1, 21)))
# Worst error on the grid of zeta, log_xi and log_xi_array at each
# sigma: absolute in the critical strip, where zeros make relative error
# meaningless, relative elsewhere.  The bounds are the worst errors of
# the former rule (n = max(20, 2|t|) terms, corrections through B_12),
# rounded up in the third digit.  One is the present rule's instead:
# zeta at sigma = 1.001, 4.51e-14 at t = 247 against the former
# 4.35e-14; both are rounding of the phases t log k (the error stays
# near 4.4e-14 for any n from 76 to 500 there), and on a grid of 200
# ordinates per sigma the present worst is no higher at any sigma.  Left
# of the strip the zeta bounds are the worst errors of the former
# reflection by chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1 - s); zeta now
# divides out of log_xi, within 1.34e-13, 1.30e-13 and 4.21e-14 there.
GRID_BOUNDS = {
    0.0: (2.14e-12, 2.16e-12, 2.16e-12),
    0.25: (5.88e-13, 5.13e-13, 5.13e-13),
    0.5: (1.91e-13, 1.91e-13, 1.91e-13),
    0.75: (7.82e-14, 1.19e-13, 1.19e-13),
    1.001: (4.52e-14, 1.36e-13, 1.36e-13),
    3.0: (2.39e-15, 2.24e-13, 2.24e-13),
    -0.5: (1.86e-13, 4.28e-13, 4.28e-13),
    -3.0: (2.74e-13, 4.49e-13, 4.49e-13),
    -10.0: (2.73e-13, 4.87e-13, 4.87e-13),
}


def _mp_zeta_and_prefactor(s, dps=20):
    """zeta(s) and the log of xi's prefactor s (s-1) pi^(-s/2) Gamma(s/2)
    / 2 = (s-1) pi^(-s/2) Gamma(s/2 + 1), from mpmath at dps digits, its
    phase reduced mod 2 pi there: rounded to a double at some 340 rad
    (|Im s| near 245), it would add up to 2.8e-14 rad to every error."""
    with mpmath.workdps(dps):
        s = mpmath.mpc(s)
        pre = (mpmath.log(s - 1) - s / 2 * mpmath.log(mpmath.pi)
               + mpmath.loggamma(s / 2 + 1))
        phase = pre.imag - 2 * mpmath.pi * mpmath.nint(
            pre.imag / (2 * mpmath.pi))
        return complex(mpmath.zeta(s)), complex(pre.real, phase)


def _errors(pts, zetas, prefactors, relative):
    """Worst errors of zeta, log_xi and log_xi_array at the points pts
    against mpmath's zetas, absolute or relative; log_xi is compared
    through the zeta it implies, exp(log_xi - log of the prefactor)."""
    pts = np.array(pts, dtype=complex)
    zetas, prefactors = np.array(zetas), np.array(prefactors)
    scale = np.abs(zetas) if relative else 1.0
    scalar_xi = np.array([log_xi(complex(s)) for s in pts])
    return tuple(float(np.max(np.abs(v - zetas) / scale)) for v in (
        np.array([zeta(complex(s)) for s in pts]),
        np.exp(scalar_xi - prefactors),
        np.exp(log_xi_array(pts) - prefactors)))


def _grid_errors(sigma):
    """Worst errors of zeta, log_xi and log_xi_array against mpmath over
    sigma +- i GRID_T, absolute in the strip and relative elsewhere."""
    pts, zetas, prefactors = [], [], []
    for t in GRID_T:
        z, pre = _mp_zeta_and_prefactor(complex(sigma, t))
        # both are real on the real axis: conjugate s, conjugate value
        pts += [complex(sigma, t), complex(sigma, -t)]
        zetas += [z, z.conjugate()]
        prefactors += [pre, pre.conjugate()]
    return _errors(pts, zetas, prefactors, not 0.0 <= sigma <= 1.0)


@pytest.mark.parametrize("sigma", sorted(GRID_BOUNDS))
def test_zeta_and_log_xi_against_mpmath_grid(sigma):
    got = _grid_errors(sigma)
    for name, err, bound in zip(("zeta", "log_xi", "log_xi_array"), got,
                                GRID_BOUNDS[sigma]):
        assert err <= bound, (name, err, bound)


def _mp_xi(s):
    """xi(s) from mpmath at 30 digits: the definition at 1 - s, or at s
    itself near 0, where forming 1 - s would round the pole of zeta."""
    with mpmath.workdps(30):
        u = mpmath.mpc(s) if abs(s) < 1.0 else 1 - mpmath.mpc(s)
        return complex(u * (u - 1) / 2 * mpmath.pi ** (-u / 2)
                       * mpmath.gamma(u / 2) * mpmath.zeta(u))


@pytest.mark.parametrize("s", [-2.0, -4.0, -6.0, -8.0, -10.0,
                               complex(-2.0, 1e-9)])
def test_log_xi_at_trivial_zeros(s):
    # the Gamma pole at s/2 = -1, -2, ... meets zeta's trivial zero there
    want = _mp_xi(s)
    got = (log_xi(s), complex(log_xi_array(np.array([s]))[0]))
    for g in got:
        assert abs(cmath.exp(g) / want - 1.0) < 1e-14, (s, g)


@pytest.mark.parametrize("e", range(1, 16))
def test_log_xi_just_left_of_zero(e):
    # taken at 1 - s, which rounds; xi is near 1/2 there, so its value
    # keeps full relative accuracy, on the real axis and off it
    d = 10.0 ** -e
    for s in (complex(-d, 0.0), complex(-d, d), complex(-d, 3e-3)):
        want = _mp_xi(s)
        for g in (log_xi(s), complex(log_xi_array(np.array([s]))[0])):
            assert abs(cmath.exp(g) / want - 1.0) < 1e-14, (s, g)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(SIGMA_MIN, 0.0, exclude_max=True),
       st.floats(-T_MAX, T_MAX))
def test_reflected_log_xi_matches_mpmath_property(re, im):
    # the bound is the sigma = -10 grid bound for log_xi and log_xi_array
    s = complex(re, im)
    want = _mp_xi(s)
    scalar = log_xi(s)
    array = complex(log_xi_array(np.array([s]))[0])
    for g in (scalar, array):
        assert abs(cmath.exp(g) / want - 1.0) <= 4.87e-13, (s, g)
    assert abs(cmath.exp(array - scalar) - 1.0) <= 4.87e-13


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-T_MAX, T_MAX))
def test_strip_zeta_and_log_xi_match_mpmath_property(re, im):
    # absolute error, as on the strip grids, within the largest strip
    # grid bound; |zeta| ~ 1/|s - 1| makes absolute error meaningless at
    # the pole, whose neighbourhood the relative property below covers
    s = complex(re, im)
    assume(abs(s - 1.0) >= 1e-2)
    z, pre = _mp_zeta_and_prefactor(s)
    errs = _errors([s], [z], [pre], False)
    assert max(errs) <= 2.16e-12, (s, errs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(1.0, 3.0, exclude_min=True), st.floats(-T_MAX, T_MAX))
def test_right_of_strip_zeta_and_log_xi_match_mpmath_property(re, im):
    # relative error, within the Re s = 3 grid bound
    s = complex(re, im)
    z, pre = _mp_zeta_and_prefactor(s)
    errs = _errors([s], [z], [pre], True)
    assert max(errs) <= 2.24e-13, (s, errs)


def test_log_xi_array_batches_reflected_points(monkeypatch):
    # the xi(2s) half of the F+ winding box about -1/4 + i t_1/2, a
    # trivial zero and two points on the edge of the window
    t1 = 14.134725141734694
    box = np.concatenate(_box_sides(-0.6, -0.4, t1 - 0.1, t1 + 0.1))
    pts = np.concatenate((box, [-2.0, -10.0, complex(-3.0, -T_MAX)]))
    want = np.array([log_xi(complex(z)) for z in pts])

    def refuse(s):
        raise AssertionError("scalar log_xi at %r" % s)
    monkeypatch.setattr(rzlab.zeta, "log_xi", refuse)
    got = log_xi_array(pts)
    assert np.max(np.abs(np.exp(got - want) - 1.0)) < 1e-12


def test_zeta_em_takes_the_main_sums_it_is_given():
    # _zeta_em_batch passes log_xi_line's sums over k < n; these are
    # zeta_em's own
    s = 0.5 + 1j * np.linspace(0.0, 50.0, 7)
    total = np.exp(np.multiply.outer(-s, np.log(np.arange(1.0, 36.0))))
    assert np.array_equal(zeta_em(s.real, s.imag, 36, total.sum(-1)),
                          zeta_em(s.real, s.imag, 36))


def _grid(t0, dt, count):
    return t0 + dt * np.arange(count)


def _moved(t, j, by):
    """A copy of t with its point j moved by `by`."""
    t = t.copy()
    t[j] += by
    return t


def test_log_xi_line_against_mpmath_as_the_array():
    # every interior point of find_zeros(0, 250)'s grid: the zeta that
    # the line implies stays within 1.5 times the array's worst and median
    # errors against mpmath at 30 digits
    h = 250.0 / 834
    t = np.concatenate(([0.0], _grid(h, h, 833), [250.0]))
    pts = 0.5 + 1j * t[1:-1]
    zetas, prefactors = map(np.array, zip(*(_mp_zeta_and_prefactor(s, 30)
                                            for s in pts)))
    errors = [np.abs(np.exp(lx - prefactors) - zetas)
              for lx in (log_xi_line(t)[1:-1], log_xi_array(pts))]
    for stat in (np.max, np.median):
        assert stat(errors[0]) <= 1.5 * stat(errors[1])


@pytest.mark.parametrize("t0,dt,count", [
    # grids that fit one zeta_em chunk: one log_xi_array batch
    (20.0, 0.01, 0), (20.0, 0.01, 1), (20.0, 0.01, 31), (20.0, 0.01, 32),
    (20.0, 0.01, 33), (15.0, 0.1, 21), (252.0, 0.25, 33),
    # longer grids take the line on their interior: 191, 192 and 193
    # points, one short of, at and one past six anchor rows of 32
    (20.0, 0.01, 193), (20.0, 0.01, 194), (20.0, 0.01, 195),
    # one run of n = 28, clear of zeros, in three zeta_em calls (186 points
    # at most)
    (25.5, 0.01, 400),
    # t = 16 takes n = 24, its neighbour 16.1 n = 28
    (15.0, 0.1, 201),
    # 201 points to t = 240 at n = 80, then a run of 599 at n = 84 in four
    # zeta_em calls from given sums (seven of 97 if they were summed),
    # clear of the zeros 239.56 and 241.05
    (239.8, 0.001, 800),
    # the last point at T_MAX, every point at least 0.05 from a zero
    (180.125, 0.83203125, 97),
    # 2-d rows of count points, from starts t0 at steps dt: the rows of
    # the two refinement rounds of find_zeros(0, 250), 108 of 7 and 108
    # of 3, the zero at 48.005 in a spread row across t = 48 ...
    pytest.param("spread", None, 7, id="catalog-spread-rows"),
    pytest.param("certifying", None, 3, id="catalog-certifying-rows"),
    # ... 40 rows across t = 48, where n goes from 32 to 36 ...
    pytest.param(47.9 + 0.005 * np.arange(40), 0.0375, 7,
                 id="rows-across-48"),
    # ... 30 rows, the last ending at T_MAX ...
    pytest.param(258.5 - 0.25 * np.arange(30), 0.25, 7, id="rows-to-T_MAX"),
    # ... and 25 rows at step 0.01 with 15 at 0.0375, which must not read
    # the 25's table (one mean step puts them 4.7 relative off)
    pytest.param(np.r_[30.0 + 0.5 * np.arange(25),
                       60.0 + 0.5 * np.arange(15)],
                 np.repeat([0.01, 0.0375], [25, 15])[:, None], 7,
                 id="rows-two-steps"),
    # t itself, off a uniform grid: a grid with one point moved by 0.004
    # (8e-3 off if it took its anchor's offset row), a grid of two
    # steps, 200 sorted random ordinates, and rows with one moved point,
    # whose next point must not take it as its anchor ...
    pytest.param(_moved(_grid(100.0, 0.01, 200), 77, 0.004), None, None,
                 id="grid-one-moved"),
    pytest.param(np.r_[_grid(100.0, 0.01, 100), _grid(101.0, 0.03, 100)],
                 None, None, id="grid-two-steps"),
    pytest.param(np.sort(np.random.default_rng(50).uniform(20.0, 250.0, 200)),
                 None, None, id="random-ordinates"),
    pytest.param(_moved(np.add.outer(30.0 + 0.5 * np.arange(40),
                                     _grid(0.0, 0.01, 7)), (11, 3), 0.004),
                 None, None, id="rows-one-moved"),
    # ... and 200 rows of one point, no step to divide by, and one row of
    # 200 (a RuntimeWarning fails the test)
    pytest.param(_grid(100.0, 0.01, 200)[:, None], None, None, id="200x1"),
    pytest.param(_grid(100.0, 0.01, 200)[None], None, None, id="1x200")])
def test_log_xi_line_matches_the_array(monkeypatch, t0, dt, count):
    # each point against log_xi_array on it alone, with its own n; one
    # batch per grid or set of rows, with the line's sums past 33 points.
    # Rows and any t off a uniform grid are compared through zeta: a
    # refinement round's rows sit on zeros, where the relative error of any
    # other sum has no bound (the certifying points lie within 5e-11 of
    # one), so there the bound holds for zeta's absolute error where
    # |zeta| < 1
    if isinstance(t0, str):
        t = _refiner_rows()[t0]
    elif dt is None:
        t = t0
    elif np.ndim(t0):
        t = t0[:, None] + dt * np.arange(count)
    else:
        t = _grid(t0, dt, count)
    summed, batch = [], rzlab.zeta._log_xi
    monkeypatch.setattr(rzlab.zeta, "_log_xi", lambda w, total=None: (
        summed.append(total is not None) or batch(w, total)))
    got = log_xi_line(t)
    assert summed == [t.size > 33]
    assert got.shape == t.shape and got.dtype == complex
    want = np.array([log_xi_array(0.5 + 1j * x) for x in t.ravel()])
    scale = 1.0
    if t.ndim == 2 or dt is None:
        scale = np.minimum(1.0, [abs(zeta(0.5 + 1j * x)) for x in t.ravel()])
    assert np.max(np.abs(np.exp(got.ravel() - want) - 1.0) * scale,
                  initial=0.0) < 1e-12


def _refiner_rows():
    """The rows log_xi_line takes in find_zeros(0, 250)'s two refinement
    rounds, by name."""
    import rzlab.zeros
    rows = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rzlab.zeros, "log_xi_line",
                      lambda t: rows.append(np.array(t)) or log_xi_line(t))
        rzlab.zeros.find_zeros(0.0, 250.0)
    assert [x.shape for x in rows] == [(835,), (108, 7), (108, 3)]
    assert np.count_nonzero((rows[1][:, 0] < 48.0) & (rows[1][:, -1] > 48.0))
    return {"spread": rows[1], "certifying": rows[2]}


def test_log_xi_line_edges_of_the_window():
    assert 16.0 in _grid(15.0, 0.1, 201)
    assert _grid(180.125, 0.83203125, 97)[-1] == T_MAX
    # one point more passes T_MAX: log_xi_array's error for that point
    t = _grid(180.125, 0.83203125, 98)
    with pytest.raises(RangeError) as array:
        log_xi_array(0.5 + 1j * t)
    with pytest.raises(RangeError) as line:
        log_xi_line(t)
    assert str(line.value) == str(array.value)


@pytest.mark.parametrize("t0,dt,count", [
    pytest.param(1e6, 0.1, 5, id="1000000.0"),
    pytest.param(float("nan"), 0.1, 5, id="nan"),
    # grids of inf * 0, 1j * inf and 1e308 * 2: NaN and infinite
    # ordinates, which the line takes with no RuntimeWarning
    pytest.param(0.0, float("inf"), 5, id="dt=inf"),
    pytest.param(float("inf"), 0.1, 3, id="inf"),
    pytest.param(0.0, 1e308, 3, id="dt=1e308")])
def test_log_xi_line_far_outside_the_window(t0, dt, count):
    # the line checks the window before it sizes anything by |t|: the
    # array's RangeError, not a failed int(nan)
    with np.errstate(over="ignore", invalid="ignore"):
        t = _grid(t0, dt, count)
        pts = 0.5 + 1j * t
    with pytest.raises(RangeError) as array:
        log_xi_array(pts)
    with pytest.raises(RangeError) as line:
        log_xi_line(t)
    assert str(line.value) == str(array.value)


@pytest.mark.parametrize("t", [
    # a row past T_MAX among 40 in the window, and rows of NaN, infinite
    # and far ordinates
    pytest.param(np.add.outer(255.5 + 0.125 * np.arange(40),
                              0.01 * np.arange(7)), id="rows-past-T_MAX"),
    pytest.param(np.full((40, 7), np.nan), id="rows-nan"),
    pytest.param(np.add.outer([1.0, np.inf], np.arange(3.0)), id="rows-inf"),
    pytest.param(np.add.outer(1e6 + np.arange(40), np.arange(7.0)),
                 id="rows-1000000.0")])
def test_log_xi_line_rows_outside_the_window(t):
    # 2-d rows: the array's RangeError, with no RuntimeWarning
    with np.errstate(invalid="ignore"):
        pts = 0.5 + 1j * t
    with pytest.raises(RangeError) as array:
        log_xi_array(pts)
    with pytest.raises(RangeError) as line:
        log_xi_line(t)
    assert str(line.value) == str(array.value)
