import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzlab.quantum
from rzlab.errors import (DivergenceError, DomainError, PoleError,
                          PreconditionError, RangeError)
from rzlab.quantum import (asymptotic_residual, fit_moment_coefficient,
                           jost_solution_analytic, jost_solution_ode,
                           k_moment_closed_form, k_moment_integral,
                           khuri_reality_residual, order_from_coupling)


def test_order_parameter_principal_root():
    assert order_from_coupling(2.0) == 1.5
    nu = order_from_coupling(-5.0)
    assert nu.real == 0.0 and nu.imag > 0
    assert abs(nu.imag - math.sqrt(4.75)) < 1e-15


def test_jost_analytic_plane_wave_at_half():
    for k, y in ((1.0, 2.0), (2.0, 5.0)):
        assert jost_solution_analytic(k, 0.5, y) == cmath.exp(1j * k * y)


def test_asymptotic_residual_decreasing():
    nu = order_from_coupling(2.0)
    res = [asymptotic_residual(1.0, nu, y) for y in (5.0, 10.0, 20.0, 28.0)]
    assert all(b < a for a, b in zip(res, res[1:]))
    assert asymptotic_residual(1.0, 0.5, 7.0) == 0.0


def test_jost_ode_matches_analytic():
    for lam, k in ((2.0, 1.0), (6.0, 1.0), (2.0, 2.0)):
        nu = order_from_coupling(lam)
        samples = jost_solution_ode(k, lam)
        worst = 0.0
        for y, f in samples:
            if 1.0 <= y <= 10.0:
                ref = jost_solution_analytic(k, nu, y)
                worst = max(worst, abs(f - ref) / abs(ref))
        assert worst < 1e-6


def _mp_jost(k, nu, y):
    """sqrt(pi k y / 2) e^(i(pi nu/2 + pi/4)) H1_nu(k y) in high precision."""
    with mpmath.workdps(30):
        nu = mpmath.mpc(nu)
        return complex(mpmath.sqrt(mpmath.pi * k * y / 2)
                       * mpmath.exp(1j * (mpmath.pi * nu / 2 + mpmath.pi / 4))
                       * mpmath.hankel1(nu, k * y))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.floats(-5.0, 6.0), st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       st.floats(0.3, 3.0))
def test_jost_ode_matches_mpmath_property(re_lam, im_lam, k):
    lam = complex(re_lam, im_lam)
    nu = order_from_coupling(lam)
    samples = jost_solution_ode(k, lam)
    inside = [s for s in samples if 1.0 <= s[0] <= 10.0]
    # the Magnus propagator's worst found is 1.5e-12; solve_ivp's was
    # 2.9e-11
    for y, f in (inside[0], inside[len(inside) // 2], inside[-1],
                 samples[-1]):
        want = _mp_jost(k, nu, y)
        assert abs(f - want) < 1e-10 * abs(want), y


def test_jost_ode_returns_the_even_grid():
    samples = jost_solution_ode(1.0, 2.0)
    assert [y for y, _ in samples] == np.linspace(25.0, 1.0, 200)[::-1].tolist()
    assert all(type(y) is float and type(f) is complex for y, f in samples)


def test_jost_analytic_array_matches_scalar_calls():
    ys = np.linspace(1.0, 10.0, 7)
    for nu in (1.5, 2.1794494717703369j, 0.5, 0.3 + 0.4j):
        got = jost_solution_analytic(1.3, nu, ys)
        want = [jost_solution_analytic(1.3, nu, y) for y in ys]
        assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()
    # the plane-wave shortcut holds for arrays too
    assert (jost_solution_analytic(2.0, 0.5, ys) == np.exp(2j * ys)).all()
    with pytest.raises(DomainError):
        jost_solution_analytic(1.0, 1.5, np.array([1.0, 0.0]))


def test_jost_ode_preconditions():
    # the start y = 25/k must lie above the lowest sample, y = 1
    for k in (0.0, -1.0, 25.0, 1e300):
        with pytest.raises(PreconditionError,
                           match=re.escape("need 0 < k < 25, got %r" % k)):
            jost_solution_ode(k, 2.0)
    with pytest.raises(PreconditionError, match="plane-wave regime"):
        jost_solution_ode(1.0, 10.5)  # k y = 25 not yet asymptotic
    with pytest.raises(RangeError, match="k = 1e-300 is too small"):
        jost_solution_ode(1e-300, 2.0)  # (25/k)^2 overflows


@pytest.fixture
def one_pass(monkeypatch):
    """Check, after each k_moment_integral, that it made one trapezoid
    sum, integrate_adaptive, with at most 8 bessel_k calls."""
    calls = []
    for name in ("bessel_k", "integrate_adaptive"):
        def counted(*args, _fn=getattr(rzlab.quantum, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(rzlab.quantum, name, counted)

    def check():
        assert calls.count("integrate_adaptive") == 1
        assert calls.count("bessel_k") <= 8
        calls.clear()
    return check


def test_k_moment_elementary_value(one_pass):
    # at nu = 1/2 the integral is pi/4 (K_{1/2} is elementary)
    r = k_moment_integral(0.5)
    one_pass()
    assert abs(r.value.real - 0.25 * math.pi) < 1e-10
    assert r.value.imag == 0.0


def test_k_moment_matches_closed_form_with_half(one_pass):
    for nu in (0.3, complex(0.0, 1.0), complex(0.0, 2.5)):
        got = k_moment_integral(nu).value
        one_pass()
        want = k_moment_closed_form(nu, 0.5)
        assert abs(got - want) < 1e-8 * abs(want)


def _mp_moment(nu):
    """pi nu / (2 sin pi nu) in high precision; 1/2 at nu = 0."""
    if nu == 0:
        return 0.5
    with mpmath.workdps(30):
        nu = mpmath.mpc(nu)
        return complex(mpmath.pi * nu / (2 * mpmath.sin(mpmath.pi * nu)))


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.999, 2.5, 4.9, 0.25 + 1j,
                                0.5 + 3j, 5j, 7j, -0.7, 0.97 + 0.4j,
                                0.6 + 2j])
def test_k_moment_matches_mpmath_closed_form(nu, one_pass):
    if abs(complex(nu).real) >= 1.0:
        with pytest.raises(DivergenceError):
            k_moment_integral(nu)
        return
    want = _mp_moment(nu)
    r = k_moment_integral(nu)
    one_pass()
    assert abs(r.value - want) < 1e-12 * abs(want)
    # one trapezoid sum: a bounded number of nodes
    assert r.evaluations < 3000


def test_k_moment_conditioning_next_to_one(one_pass):
    # the integral grows like 1/(2 (1 - nu)); its relative error may grow
    # as eps / (1 - nu), the conditioning of the integral in nu
    for nu in (1.0 - 1e-4, 1.0 - 1e-7):
        want = _mp_moment(nu)
        got = k_moment_integral(nu).value
        one_pass()
        assert abs(got - want) < 10 * 2.0 ** -52 / (1.0 - nu) * abs(want)


@pytest.mark.parametrize("nu,bound", [(0.9999999999, 1e-8),
                                      (0.9999999, 1e-10),
                                      (-0.9999999, 1e-10)])
def test_k_moment_integral_keeps_digits_next_to_one(nu, bound, one_pass):
    # sin pi nu is taken at the exact nu - round(nu), not at the rounded
    # product pi nu, which keeps only eps / (pi (1 - |nu|)) of it
    want = _mp_moment(nu)
    got = k_moment_integral(nu).value
    one_pass()
    assert abs(got - want) <= bound * abs(want)


@pytest.mark.parametrize("coefficient", [0.5, 0.125])
@pytest.mark.parametrize("nu", [0.9999999999, -0.9999999, 0.999999])
def test_k_moment_closed_form_keeps_digits_next_to_one(nu, coefficient):
    want = 2.0 * coefficient * _mp_moment(nu)
    got = k_moment_closed_form(nu, coefficient)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_k_moment_divergence_and_pole_guards():
    with pytest.raises(DivergenceError):
        k_moment_integral(1.0)
    with pytest.raises(PoleError):
        k_moment_closed_form(2.0, 0.5)


def test_fit_moment_coefficient_adjudication():
    fitted = fit_moment_coefficient()
    assert abs(fitted - 0.5) < 1e-6
    assert abs(fitted - 0.5) < 1e-12
    # the printed factor 1/8 is inconsistent with quadrature
    assert abs(fitted - 0.125) > 0.3


def test_khuri_residual_zero_for_real_coupling():
    for lam in (-0.5, -5.0, -200.0):
        assert khuri_reality_residual(lam) == 0.0


def test_khuri_residual_linear_in_im_lambda():
    lam0 = -10.0
    r1 = khuri_reality_residual(complex(lam0, 0.1))
    r2 = khuri_reality_residual(complex(lam0, 0.2))
    assert r1 > 0
    assert abs(r2 / r1 - 2.0) < 0.05
