import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rzlab.zeta
from rzlab.errors import PoleError, RangeError
from rzlab.zeta import (SIGMA_MAX, SIGMA_MIN, T_MAX, log_xi, log_xi_array,
                        xi, xi_symmetry_residual, zeta, zeta_em,
                        zeta_times_s_minus_1)

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


def test_zeta_near_pole_laurent():
    # zeta(s) ~ 1/(s-1) + gamma near s = 1 (using the rounded s - 1)
    s = 1.0 + 1e-8
    v = zeta(s)
    want = 1.0 / (s - 1.0) + 0.5772156649015329
    assert abs(v - want) < 1e-4


def test_zeta_times_s_minus_1_entire_at_pole():
    v = zeta_times_s_minus_1(1.0)
    assert abs(v - 1.0) < 1e-14
    # both sides of the series/direct switch against frozen references
    assert abs(zeta_times_s_minus_1(1.0 + 9.9e-7)
               - 1.0000005714435796) < 1e-12
    assert abs(zeta_times_s_minus_1(1.0 + 1.1e-6)
               - 1.0000006349373194) < 1e-12


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
    got = xi(s)
    assert abs(got - ref) < 1e-11 * abs(ref)


def test_xi_log_form_tracks_decay():
    # |xi(1/2 + it)| decays like exp(-pi t / 4); the log form must hold
    # the value far below linear underflow thresholds of naive products.
    lm = log_xi(complex(0.5, 200.0)).real
    assert lm < -100.0
    assert math.isfinite(lm)


def test_xi_symmetry_residual_grid():
    for s in (complex(0.3, 7.0), complex(-1.0, 12.5), complex(2.0, 40.0)):
        assert xi_symmetry_residual(s) < 1e-10


def test_log_xi_consistent_with_xi():
    s = complex(0.25, 18.0)
    assert abs(cmath.exp(log_xi(s)) - xi(s)) < 1e-12


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


def test_log_xi_array_scalar_fallback_and_shape():
    # points off the Euler-Maclaurin region go through the scalar log_xi
    pts = np.array([[0.0, 1.0 + 1e-8], [complex(-1.5, 20.0), 2.0]])
    got = log_xi_array(pts)
    assert got.shape == (2, 2)
    for z, w in zip(pts.ravel(), got.ravel()):
        assert abs(cmath.exp(w - log_xi(complex(z))) - 1.0) < 1e-14
    with pytest.raises(RangeError):
        log_xi_array(np.array([0.5 + 10j, complex(0.5, T_MAX + 1.0)]))


def test_zeta_em_array_matches_scalar():
    t = np.linspace(30.0, 30.4, 5)
    got = zeta_em(0.5, t, 61)
    assert got.shape == t.shape
    for x, w in zip(t, got):
        assert abs(w - zeta_em(0.5, float(x), 61)) < 1e-14


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


def test_zeta_em_main_sum_at_t_250_is_short(monkeypatch):
    # the former rule summed max(20, 2|t|) = 500 terms here
    seen = []

    def spy(sigma, t, n):
        seen.append(n)
        return zeta_em(sigma, t, n)

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
# of the strip the zeta bounds are the present worst errors, with
# log Gamma(1 - s) taken unfolded.
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


def _mp_zeta_and_prefactor(s):
    """zeta(s) and the log of xi's prefactor s (s-1) pi^(-s/2) Gamma(s/2)
    / 2 = (s-1) pi^(-s/2) Gamma(s/2 + 1), from mpmath at 20 digits."""
    with mpmath.workdps(20):
        s = mpmath.mpc(s)
        return (complex(mpmath.zeta(s)),
                complex(mpmath.log(s - 1) - s / 2 * mpmath.log(mpmath.pi)
                        + mpmath.loggamma(s / 2 + 1)))


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
