"""Acceptance suite: one test per criterion, at the stated tolerances.

Independent oracles (high-precision arithmetic via mpmath) are used only
here, as referees; the package itself never imports them.
"""

import cmath
import math
import random
import time

import mpmath
import pytest

from rzlab.dispersion import rational_model, roundtrip_residual, unit_model
from rzlab.hadamard import ZeroCatalog, fit_constants, hadamard_partial
from rzlab.numerics import ContourRectangle
from rzlab.quantum import (asymptotic_residual, fit_moment_coefficient,
                           jost_solution_analytic, jost_solution_ode,
                           k_moment_integral, khuri_reality_residual,
                           order_from_coupling)
from rzlab.scattering import (coupling_at_zero, jost_plus, s_matrix,
                              zero_to_jost_zero)
from rzlab.zeros import count_zeros_rectangle, find_zeros
from rzlab.zeta import xi, xi_symmetry_residual, zeta


@pytest.fixture(scope="module")
def zeros_to_100():
    return find_zeros(0.0, 100.0)


def test_criterion_01_functional_equation_grid():
    start = time.time()
    worst = 0.0
    for i in range(20):
        sigma = -2.0 + 5.0 * i / 19.0
        for j in range(10):
            t = -60.0 + 120.0 * j / 9.0
            worst = max(worst, xi_symmetry_residual(complex(sigma, t)))
    assert worst < 1e-9
    assert time.time() - start < 30.0


def test_criterion_02_zero_location(zeros_to_100):
    mpmath.mp.dps = 30

    def refine(lo, hi):
        # independent bisection on the Hardy Z function
        flo = mpmath.siegelz(lo)
        for _ in range(80):
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            fm = mpmath.siegelz(mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for z in zeros_to_100[:3]:
        ref = float(refine(mpmath.mpf(z.ordinate) - mpmath.mpf("1e-4"),
                           mpmath.mpf(z.ordinate) + mpmath.mpf("1e-4")))
        assert abs(z.ordinate - ref) < 1e-8
        assert abs(zeta(complex(0.5, z.ordinate))) < 1e-8


def test_criterion_03_rectangle_counts_match_scan(zeros_to_100):
    start = time.time()
    ordinates = [z.ordinate for z in zeros_to_100]
    edges = [0.001] + [10.0 * i for i in range(1, 11)]
    for ai, a in enumerate(edges):
        for b in edges[ai + 1:]:
            expected = sum(1 for t in ordinates if a < t < b)
            rect = ContourRectangle(0.0, 1.0, a, b)
            assert count_zeros_rectangle(rect) == expected, (a, b)
    assert time.time() - start < 120.0


def test_criterion_04_unitarity():
    worst = 0.0
    for i in range(501):
        tau = 0.1 * i
        m = s_matrix(complex(0.0, tau))
        worst = max(worst, abs(math.exp(m.log_value.real) - 1.0))
    assert worst < 1e-8
    rng = random.Random(20260823)
    for _ in range(50):
        s = complex(rng.uniform(-0.4, 0.4), rng.uniform(-20.0, 20.0))
        prod = s_matrix(s).log_value + s_matrix(-s).log_value
        assert abs(cmath.exp(prod) - 1.0) < 1e-10


def test_criterion_05_jost_zero_correspondence(zeros_to_100):
    for z in zeros_to_100[:10]:
        fp = zero_to_jost_zero(z.ordinate)  # winding check inside
        assert fp.s == complex(-0.25, 0.5 * z.ordinate)
        assert math.exp(jost_plus(fp.s).log_value.real) < 1e-6
        lam = coupling_at_zero(z.ordinate)
        assert lam.imag == 0.0
        assert lam.real < -0.25


def test_criterion_06_moment_coefficient_adjudication():
    integral = k_moment_integral(0.5).value.real
    assert abs(integral - 0.25 * math.pi) < 1e-8
    fitted = fit_moment_coefficient()
    assert abs(fitted - 0.5) < 1e-6
    printed = 0.125
    assert abs(fitted - printed) > 1e-3  # the printed factor is flagged


def test_criterion_07_jost_solution_ode_vs_analytic():
    for lam, k in ((2.0, 1.0), (6.0, 1.0), (2.0, 2.0)):
        nu = order_from_coupling(lam)
        worst = 0.0
        for y, f in jost_solution_ode(k, lam, 1.0, 25.0 / k):
            if 1.0 <= y <= 10.0:
                ref = jost_solution_analytic(k, nu, y)
                worst = max(worst, abs(f - ref) / abs(ref))
        assert worst < 1e-6, (lam, k)
    nu = order_from_coupling(2.0)
    res = [asymptotic_residual(1.0, nu, y) for y in (4.0, 8.0, 16.0, 28.0)]
    assert all(b < a for a, b in zip(res, res[1:]))
    assert asymptotic_residual(1.0, 0.5, 3.0) == 0.0


def test_criterion_08_khuri_reality():
    rng = random.Random(20260823)
    for _ in range(20):
        lam = rng.uniform(-300.0, -0.2500001)
        assert khuri_reality_residual(lam) == 0.0
    lam0 = -10.0
    slopes = [khuri_reality_residual(complex(lam0, im)) / im
              for im in (0.05, 0.1, 0.2)]
    mean = sum(slopes) / len(slopes)
    for sl in slopes:
        assert abs(sl - mean) < 0.05 * mean


def test_criterion_09_dispersion_roundtrip():
    assert roundtrip_residual(*unit_model()) < 1e-12
    r50 = roundtrip_residual(*rational_model(half_width=50.0, nodes=4001))
    assert r50 < 1e-3
    r100 = roundtrip_residual(*rational_model(half_width=100.0, nodes=8001))
    assert 1.4 < r50 / r100 < 2.6  # halves, within +-30%


def test_criterion_10_hadamard_truncation():
    zeros = find_zeros(0.0, 237.0)  # the first 100 ordinates
    assert len(zeros) >= 100
    catalog = ZeroCatalog.from_zeros(zeros[:100])
    params = fit_constants()
    assert abs(math.exp(params.a.real) - abs(xi(0.0))) < 1e-8
    target = xi(2.0)
    residuals = [abs(hadamard_partial(params, catalog, 2.0, n) - target)
                 for n in (10, 50, 100)]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    t1 = catalog.ordinates[0]
    assert hadamard_partial(params, catalog, complex(0.5, t1),
                            len(catalog)) == 0j
