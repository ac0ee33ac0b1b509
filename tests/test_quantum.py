import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rzlab.errors import (DivergenceError, DomainError,
                          IntegrationLimitError, PoleError,
                          PreconditionError, RangeError)
from rzlab.quantum import (asymptotic_residual, fit_moment_coefficient,
                           jost_solution_analytic, jost_solution_ode,
                           k_moment_closed_form, k_moment_integral,
                           khuri_reality_residual, order_from_coupling,
                           potential, zero_energy_solutions)


def test_order_parameter_principal_root():
    assert order_from_coupling(2.0) == 1.5
    nu = order_from_coupling(-5.0)
    assert nu.real == 0.0 and nu.imag > 0
    assert abs(nu.imag - math.sqrt(4.75)) < 1e-15


def test_potential_barrier():
    assert potential(2.0, 2.0) == 0.5
    with pytest.raises(DomainError):
        potential(2.0, 0.0)


def test_zero_energy_solutions_basic():
    u1, u2 = zero_energy_solutions(2.0, 3.0)
    assert abs(u1 - 0.5 * (9.0 + 1.0 / 3.0)) < 1e-14
    assert abs(u2 - (9.0 - 1.0 / 3.0) / 3.0) < 1e-14


def test_zero_energy_solutions_confluent_limit():
    # at s = 1/2 the second solution degenerates to sqrt(y) log y
    for y in (0.5, 2.0, 7.0):
        _, u2 = zero_energy_solutions(0.5, y)
        assert abs(u2 - math.sqrt(y) * math.log(y)) < 1e-12
    # continuity in s through the degenerate point
    _, a = zero_energy_solutions(0.5 + 1e-9, 3.0)
    _, b = zero_energy_solutions(0.5 - 1e-9, 3.0)
    assert abs(a - b) < 1e-7


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
        samples = jost_solution_ode(k, lam, 1.0, 25.0 / k)
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
    samples = jost_solution_ode(k, lam, 1.0, 25.0 / k)
    inside = [s for s in samples if 1.0 <= s[0] <= 10.0]
    # the Magnus propagator's worst found is 1.5e-12; solve_ivp's was
    # 2.9e-11
    for y, f in (inside[0], inside[len(inside) // 2], inside[-1],
                 samples[-1]):
        want = _mp_jost(k, nu, y)
        assert abs(f - want) < 1e-10 * abs(want), y


def test_jost_ode_returns_the_even_grid():
    samples = jost_solution_ode(1.0, 2.0, 1.0, 25.0)
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
    with pytest.raises(PreconditionError):
        jost_solution_ode(1.0, 2.0, 5.0, 1.0)  # y_start < y_end
    with pytest.raises(IntegrationLimitError):
        jost_solution_ode(1.0, 2.0, 1e-5, 25.0)  # below the origin floor
    with pytest.raises(PreconditionError):
        jost_solution_ode(1.0, 6.0, 1.0, 2.0)  # not in the asymptotic regime
    with pytest.raises(RangeError):
        jost_solution_ode(1e-300, 2.0, 1.0, 2.5e301)  # y^2 overflows


def test_k_moment_elementary_value():
    # at nu = 1/2 the integral is pi/4 (K_{1/2} is elementary)
    r = k_moment_integral(0.5)
    assert abs(r.value.real - 0.25 * math.pi) < 1e-10
    assert r.value.imag == 0.0


def test_k_moment_matches_closed_form_with_half():
    for nu in (0.3, complex(0.0, 1.0), complex(0.0, 2.5)):
        got = k_moment_integral(nu).value
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
def test_k_moment_matches_mpmath_closed_form(nu):
    if abs(complex(nu).real) >= 1.0:
        with pytest.raises(DivergenceError):
            k_moment_integral(nu)
        return
    want = _mp_moment(nu)
    r = k_moment_integral(nu)
    assert abs(r.value - want) < 1e-12 * abs(want)
    # one adaptive pass: a bounded number of bessel_k evaluations
    assert r.evaluations < 3000


def test_k_moment_conditioning_next_to_one():
    # the integral grows like 1/(2 (1 - nu)); its relative error may grow
    # as eps / (1 - nu), the conditioning of the integral in nu
    for nu in (1.0 - 1e-4, 1.0 - 1e-7):
        want = _mp_moment(nu)
        got = k_moment_integral(nu).value
        assert abs(got - want) < 10 * 2.0 ** -52 / (1.0 - nu) * abs(want)


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
