import cmath
import math

import mpmath
import numpy as np
import pytest

from rzlab.errors import PoleError, RangeError
from rzlab.zeta import (ComplexArgument, SignedLogComplex, T_MAX, log_xi,
                        log_xi_array, xi, xi_symmetry_residual, zeta,
                        zeta_em, zeta_times_s_minus_1)

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


def test_complex_argument():
    s = ComplexArgument(0.5, 14.0)
    assert s.s == complex(0.5, 14.0)
    assert abs(zeta(s) - zeta(complex(0.5, 14.0))) == 0.0
    with pytest.raises(ValueError):
        ComplexArgument(math.inf, 0.0)


@pytest.mark.parametrize("s,ref", XI_REFS)
def test_xi_reference(s, ref):
    got = xi(s).to_complex()
    assert abs(got - ref) < 1e-11 * abs(ref)


def test_xi_log_form_tracks_decay():
    # |xi(1/2 + it)| decays like exp(-pi t / 4); the log form must hold
    # the value far below linear underflow thresholds of naive products.
    v = xi(complex(0.5, 200.0))
    assert v.log_modulus < -100.0
    assert math.isfinite(v.log_modulus)


def test_xi_symmetry_residual_grid():
    for s in (complex(0.3, 7.0), complex(-1.0, 12.5), complex(2.0, 40.0)):
        assert xi_symmetry_residual(s) < 1e-10


def test_signed_log_complex_roundtrip():
    for w in (1.5 + 2.5j, -3.0 + 0.0j, 1e-200 - 1e-200j):
        v = SignedLogComplex.from_complex(w)
        assert abs(v.to_complex() - w) < 1e-13 * abs(w)
    assert SignedLogComplex.from_complex(0).abs() == 0.0


def test_signed_log_complex_algebra():
    a = SignedLogComplex.from_complex(2.0 + 1.0j)
    b = SignedLogComplex.from_complex(-0.5 + 3.0j)
    assert abs((a * b).to_complex() - (2.0 + 1.0j) * (-0.5 + 3.0j)) < 1e-13
    assert abs((a / b).to_complex() - (2.0 + 1.0j) / (-0.5 + 3.0j)) < 1e-14
    assert abs(a.reciprocal().to_complex() - 1.0 / (2.0 + 1.0j)) < 1e-15


def test_log_xi_consistent_with_xi():
    s = complex(0.25, 18.0)
    assert abs(cmath.exp(log_xi(s)) - xi(s).to_complex()) < 1e-12


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
