import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rzlab.errors import DomainError, PoleError, RangeError
from rzlab.quantum import order_from_coupling
from rzlab.specfun import (_normalize_phase, _stirling, bessel_k, hankel1,
                           log_gamma)

# Reference values frozen from an independent high-precision evaluation.
LOG_GAMMA_REFS = [
    (complex(3.5, 4.0), complex(-0.9669467752727464, 5.2262968794833045)),
    (complex(-2.5, 0.5), complex(-0.9350856212982774, -8.87096288524746)),
    (complex(0.5, 30.0), complex(-46.204951270642226, 72.0373104288058)),
    (complex(6.0, 0.0), complex(math.log(120.0), 0.0)),
]

BESSEL_K_REFS = [
    (complex(0.3, 0.0), 2.0, complex(0.11603697434811926, 0.0)),
    (complex(0.0, 7.0), 1.5, complex(-1.0117696429390408e-06, 0.0)),
    (complex(0.25, 1.0), 3.0,
     complex(0.030209867235806154, 0.0022253072631777484)),
]

HANKEL_REFS = [
    (0.7, 5.0, complex(-0.35763991666007156, 0.0010614491552285385)),
    (2.5, 1.25, complex(0.08299187318493619, -1.8324094084894367)),
    (3.0, 2.0, complex(0.12894324947440206, -1.1277837768404277)),
]


@pytest.mark.parametrize("z,ref", LOG_GAMMA_REFS)
def test_log_gamma_reference(z, ref):
    # the references carry the continuous branch; ours is principal, so
    # compare real parts directly and phases modulo 2 pi
    got = log_gamma(z)
    assert abs(got.real - ref.real) < 1e-12 * max(1.0, abs(ref.real))
    dphi = (got.imag - ref.imag) % (2.0 * math.pi)
    assert min(dphi, 2.0 * math.pi - dphi) < 1e-12
    assert -math.pi < got.imag <= math.pi


def test_log_gamma_recurrence():
    for z in (complex(0.3, 1.7), complex(-4.2, 0.9), complex(8.0, -20.0)):
        lhs = log_gamma(z + 1.0)
        rhs = log_gamma(z) + cmath.log(z)
        # compare as values of Gamma to sidestep 2 pi branch offsets
        assert abs(cmath.exp(lhs - rhs) - 1.0) < 1e-12


def test_log_gamma_pole():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_log_gamma_phase_principal():
    # Gamma < 0 on (-1, 0) and (-3, -2): the phase is pi, never -pi
    for z in (complex(0.5, 30.0), complex(-3.3, 12.0), complex(20.0, -50.0),
              -0.5, -0.25, -2.5):
        assert -math.pi < log_gamma(z).imag <= math.pi


def _array_log_gamma(z):
    """log Gamma on an array by _stirling's array path (n = 11), its
    phase folded as log_gamma's is; the tests take Re z down to 1/2,
    below the Re z >= 1 of log_xi_array's points."""
    return _normalize_phase(_stirling(z))


def test_log_gamma_array_matches_scalar():
    z = np.array([0.5, 1.25 + 60.0j, 1.0 - 3.0j, 14.0 + 130.0j, 40.0])
    got = _array_log_gamma(z)
    for w, g in zip(z, got):
        want = log_gamma(complex(w))
        assert abs(g.real - want.real) < 1e-13 * max(1.0, abs(want.real))
        assert abs(g.imag - want.imag) < 1e-12
        assert -math.pi < g.imag <= math.pi


def test_log_gamma_large_phase_rounds_at_its_own_size():
    # Im log Gamma near 1.5 + 130i is some 500 rad, where floats are
    # 5.7e-14 apart: reduced mod 2 pi before it rounds, the phase stays
    # within 3e-14 of mpmath's, the size of hypot's rounding times Im z
    rng = np.random.default_rng(7)
    zs = rng.uniform(0.5, 3.0, 60) + 1j * rng.uniform(-131.0, 131.0, 60)
    for got in ([log_gamma(z) for z in zs.tolist()], _array_log_gamma(zs)):
        for z, g in zip(zs.tolist(), got):
            with mpmath.workdps(30):
                d = g.imag - mpmath.loggamma(mpmath.mpc(z)).imag
                d -= 2 * mpmath.pi * mpmath.nint(d / (2 * mpmath.pi))
            assert abs(d) < 3e-14, z


def test_log_gamma_shift_does_not_overflow_at_huge_imaginary_part():
    # the shift factors' product would overflow without its scaling; the
    # phase carries no digits at |z| = 1e200, so only real parts compare
    z = complex(0.75, 1e200)
    want = -1.5707963267948964e200
    for got in (log_gamma(z), _array_log_gamma(np.array([z, 2.0]))[0]):
        assert math.isfinite(got.real) and math.isfinite(got.imag)
        assert abs(got.real - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("nu,y,ref", BESSEL_K_REFS)
def test_bessel_k_reference(nu, y, ref):
    got = bessel_k(nu, y)
    assert abs(got - ref) < 1e-10 * max(abs(ref), 1e-12)


K_GRID_Y = (1e-6, 1e-3, 0.1, 0.5, 1.5, 3.0, 10.0, 40.0, 100.0, 500.0)
# At imaginary order the terms of any quadrature of DLMF 10.32.9 cancel
# down to |K| ~ e^(-pi |nu| / 2).  These bounds are the worst relative
# errors of a nested adaptive Gauss-Kronrod quadrature of the same
# integral on this grid (4.6e-12 at 5i, y = 0.1; 1.2e-10 at 7i, y = 1e-6).
K_GRID_CANCELLING = {5j: 4.7e-12, 7j: 1.2e-10}


def _mp_bessel_k(nu, y):
    with mpmath.workdps(30):
        return complex(mpmath.besselk(mpmath.mpc(nu), y))


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.999, 2.5, 4.9, 0.25 + 1j,
                                0.5 + 3j, 5j, 7j])
def test_bessel_k_matches_mpmath_on_grid(nu):
    worst = 0.0
    for y in K_GRID_Y:
        want = _mp_bessel_k(nu, y)
        worst = max(worst, abs(bessel_k(nu, y) - want) / abs(want))
    assert worst < K_GRID_CANCELLING.get(nu, 1e-12)


def test_bessel_k_large_imaginary_order_does_not_alias():
    # far beyond the cancellation limit the step still resolves
    # cosh(nu t): the error stays at rounding level against K_Re(nu)(y)
    for nu in (60j, 250j, 0.5 + 260j):
        for y in (1e-6, 100.0):
            scale = _mp_bessel_k(complex(nu).real, y).real
            assert abs(bessel_k(nu, y) - _mp_bessel_k(nu, y)) < 1e-14 * scale


def test_bessel_k_refuses_a_sum_above_the_grid_cap():
    # the step 2 pi / |Im nu| would put some 5e8 nodes below the cut
    with pytest.raises(RangeError, match="more than 1000000 nodes"):
        bessel_k(complex(1e-9, 5.8e7), 1e-20)
    bessel_k(complex(0.1, 1e5), 1e-20)  # about 8e5 nodes: summed


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.999, 2.5, 4.9, 0.25 + 1j,
                                0.5 + 3j, 5j, 7j, 60j])
def test_bessel_k_array_matches_scalar_calls(nu):
    ys = np.array(K_GRID_Y + (1e-20, 1e-15)).reshape(3, 4)
    got = bessel_k(nu, ys)
    assert got.shape == ys.shape
    # the array sums each y on the grid of its group, the smallest step
    # and the largest cut of the group, so it rounds apart from the
    # scalar call by less than eps times the size of the terms
    for y, v in zip(ys.ravel(), got.ravel()):
        want = bessel_k(nu, y)
        assert type(want) is complex
        scale = _mp_bessel_k(complex(nu).real, y).real
        assert abs(v - want) < 1e-14 * scale, y
    assert bessel_k(nu, np.array([])).shape == (0,)


def test_bessel_k_array_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            bessel_k(0.5, np.array([1.0, bad]))
    # a y whose sum would pass MAX_GRID_POINTS nodes is refused
    with pytest.raises(RangeError, match="more than 1000000 nodes"):
        bessel_k(complex(1e-9, 5.8e7), np.array([1.0, 1e-20]))


def test_bessel_k_matches_mpmath_on_a_seeded_complex_grid():
    # at complex order the terms, of the size of K_Re(nu)(y), cancel down
    # to |K|: the docstring bounds the error by 1e-14 K_Re(nu)(y)
    rng = np.random.default_rng(20261019)
    nus = rng.uniform(-1.0, 1.0, 200) + 1j * rng.uniform(-7.0, 7.0, 200)
    ys = np.exp(rng.uniform(math.log(1e-15), math.log(60.0), 200))
    for nu, y in zip(nus.tolist(), ys.tolist()):
        with mpmath.workdps(30):
            want = complex(mpmath.besselk(mpmath.mpc(nu), y))
            scale = float(mpmath.besselk(abs(nu.real), y))
        assert abs(bessel_k(nu, y) - want) < 1e-14 * scale, (nu, y)


def test_bessel_k_real_for_imaginary_order():
    v = bessel_k(complex(0.0, 3.0), 0.7)
    assert v.imag == 0.0


def test_bessel_k_order_symmetry():
    a = bessel_k(complex(0.4, 0.8), 2.5)
    b = bessel_k(complex(-0.4, -0.8), 2.5)
    assert abs(a - b) < 1e-12 * abs(a)


def test_bessel_k_domain_errors():
    for y in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            bessel_k(0.5, y)
    with pytest.raises(RangeError):
        bessel_k(6.0, 1.0)


@pytest.mark.parametrize("nu,x,ref", HANKEL_REFS)
def test_hankel1_reference(nu, x, ref):
    got = hankel1(nu, x)
    assert abs(got - ref) < 1e-12 * abs(ref)


def test_hankel1_half_integer_closed_form():
    for x in (0.5, 3.0, 20.0):
        want = -1j * math.sqrt(2.0 / (math.pi * x)) * cmath.exp(1j * x)
        assert abs(hankel1(0.5, x) - want) < 1e-14 * abs(want)


def test_hankel1_integer_matches_nearby_orders():
    # integer order takes the same sum as any other: H1 is continuous
    # in the order, and d H1 / d nu is O(1) here
    v_int = hankel1(2.0, 3.0)
    v_near = hankel1(2.0 + 1e-4, 3.0)
    assert abs(v_int - v_near) < 1e-3 * abs(v_int)


def test_hankel1_range_error():
    with pytest.raises(RangeError):
        hankel1(0.7, 31.0)
    with pytest.raises(RangeError):
        hankel1(0.7, 0.0)


def _mp_hankel1(nu, x):
    with mpmath.workdps(30):
        return complex(mpmath.hankel1(mpmath.mpc(nu), x))


H_GRID_X = (1e-6, 1e-3, 0.3, 1.0, 2.5, 5.0, 10.0, 12.0, 15.0, 20.0, 25.0,
            29.5, 30.0)
# the orders jost-verify meets, nu = sqrt(lambda + 1/4) for lambda in
# [-5, 6], besides integer, half-integer, negative and complex ones
H_GRID_NU = ((0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 2.3, -2.3, 2.5, 4.9, -4.9,
              0.5 + 1.2j, 2.2j, 1.5j, -0.7 + 0.3j)
             + tuple(cmath.sqrt(lam + 0.25) for lam in np.linspace(-5, 6, 12)))


@pytest.mark.parametrize("nu", H_GRID_NU)
def test_hankel1_matches_mpmath_on_grid(nu):
    for x in H_GRID_X:
        want = _mp_hankel1(nu, x)
        assert abs(hankel1(nu, x) - want) < 1e-12 * abs(want), x


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.floats(0.5, 12.0),
                 st.floats(-9.5, 0.5, exclude_max=True)),
       st.floats(-131.0, 131.0))
def test_log_gamma_matches_mpmath_property(re, im):
    # both branches, Stirling after the shift and the reflection left of
    # Re z = 1/2, over the heights log xi asks for at |Im s| <= 262
    z = complex(re, im)
    if im == 0.0 and re == round(re) and re <= 0.0:
        with pytest.raises(PoleError):
            log_gamma(z)
        return
    with mpmath.workdps(30):
        want = complex(mpmath.loggamma(mpmath.mpc(re, im)))
    d = log_gamma(z) - want
    d = complex(d.real, math.remainder(d.imag, math.tau))  # modulo 2 pi i
    assert abs(d) < 1e-14 * max(1.0, abs(want)), z


def _h_bound(nu):
    return 1e-13 + 5e-16 * math.exp(math.pi * abs(complex(nu).imag))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(-2.5, 2.5), st.floats(-3.0, 3.0),
       st.floats(math.log(1e-3), math.log(30.0)))
def test_hankel1_matches_mpmath_property(re_nu, im_nu, log_x):
    nu, x = complex(re_nu, im_nu), min(math.exp(log_x), 30.0)
    want = _mp_hankel1(nu, x)
    # rounding of the phases on the path is amplified by the range
    # e^(pi |Im nu|) of the terms' moduli: the worst found is 9e-13 at
    # nu = 0.62 + 3i, x = 2.5e-3, and 3e-14 for |Im nu| <= 2
    bound = _h_bound(nu)
    assert abs(hankel1(nu, x) - want) < bound * abs(want)


def test_hankel1_subnormal_argument():
    # H1_0 ~ (2i/pi) log x and H1_0.3 ~ x^-0.3 are floats down to the
    # least subnormal x, where x sinh u overflows at the sum's ends
    for nu in (0.0, 0.3, 0.5 + 1.2j):
        for x in (1e-300, 1e-310, 5e-324):
            want = _mp_hankel1(nu, x)
            assert abs(hankel1(nu, x) - want) < 1e-12 * abs(want), (nu, x)
    # beside x = 30 the array takes its step, and tiny x reads more
    # than alone: the bounds hankel1's docstring gives for this array
    xs = np.array([5e-324, 1e-300, 1e-6, 1.0, 30.0])
    for nu, bound in ((2j, 3.7e-13), (2.2j, 4.1e-12), (3j, 5.5e-12)):
        for x, v in zip(xs, hankel1(nu, xs)):
            want = _mp_hankel1(nu, x)
            assert abs(v - want) < bound * abs(want), (nu, x)


def test_hankel1_overflow_is_range_error():
    # |H1_2.5(1e-200)| ~ 1e500 is not a float
    with pytest.raises(RangeError):
        hankel1(2.5, 1e-200)


@pytest.mark.parametrize("nu", H_GRID_NU)
def test_hankel1_array_matches_scalar_calls(nu):
    xs = np.array(H_GRID_X)
    got = hankel1(nu, xs)
    assert got.shape == xs.shape
    # the array sums every x on one grid, the step of x = 30 and the
    # range of x = 1e-6, so both carry their own phase rounding: within
    # 7.1e-15 at real order and |Im nu| <= 1.7, and 4.4e-14 at 2.18i,
    # x = 1e-6, where the scalar call is itself 4.3e-14 from mpmath
    bound = 1e-14 * math.exp(max(0.0, math.pi * (abs(complex(nu).imag)
                                                  - 1.5)))
    for x, v in zip(H_GRID_X, got):
        want = hankel1(nu, x)
        assert type(want) is complex
        assert abs(v - want) < bound * abs(want), x


@pytest.mark.parametrize("k", (0.3, 1.0, 3.0))
@pytest.mark.parametrize("lam", np.linspace(-10.0, 9.9, 12))
def test_hankel1_array_matches_mpmath_on_jost_arrays(lam, k):
    # the array jost-verify sends: x = k y at the samples y <= 10 of the
    # ODE's 200 points from 25/k to 1, at nu = sqrt(lambda + 1/4),
    # imaginary below lambda = -1/4
    nu = order_from_coupling(lam)
    ys = np.linspace(25.0 / k, 1.0, 200)
    xs = k * ys[ys <= 10.0]
    got = hankel1(nu, xs)
    for i in np.linspace(0, xs.size - 1, 5).astype(int):
        want = _mp_hankel1(nu, xs[i])
        assert abs(got[i] - want) < _h_bound(nu) * abs(want), xs[i]


@pytest.mark.parametrize("nu", (0.0, 0.3, 0.5 + 1.2j))
def test_hankel1_array_mixing_subnormal_and_large_x(nu):
    # the grid spans the range of x = 5e-324, where the exponents of the
    # rows of x >= 1e-6 overflow to -inf at the sum's ends, zero terms,
    # and each row's largest exponent is taken out on its own; at 2.2i
    # subnormal x reads 4e-12, outside 1e-6 <= x <= 30 and this bound
    xs = np.array([5e-324, 1e-300, 1e-6, 1.0, 30.0])
    for x, v in zip(xs, hankel1(nu, xs)):
        want = _mp_hankel1(nu, x)
        assert abs(v - want) < _h_bound(nu) * abs(want), x


def test_hankel1_array_range_errors():
    with pytest.raises(RangeError):
        hankel1(0.7, np.array([]))
    for bad in (0.0, 31.0):
        with pytest.raises(RangeError):
            hankel1(0.7, np.array([1.0, bad, 20.0]))
    # a grid above MAX_GRID_POINTS nodes is refused before it is built
    with pytest.raises(RangeError):
        hankel1(1e7j, 25.0)
    with pytest.raises(RangeError):
        hankel1(0.7, np.full(10 ** 5, 25.0))
