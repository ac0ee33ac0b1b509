import cmath
import math

import numpy as np
import pytest

from rzlab.errors import (BoundaryZeroError, BudgetExhaustedError,
                          PreconditionError)
from rzlab.numerics import (BracketInterval, ContourRectangle,
                            QuadratureResult, find_root_bracketed,
                            integrate_adaptive, winding_number)


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(0j, -1.0, 10)
    with pytest.raises(ValueError):
        QuadratureResult(0j, 0.0, 0)


def test_bracket_validation():
    with pytest.raises(ValueError):
        BracketInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        ContourRectangle(0.0, 0.0, 0.0, 1.0)


def test_integrate_exp():
    r = integrate_adaptive(lambda x: math.exp(x), 0.0, 1.0, 1e-12)
    assert abs(r.value - (math.e - 1.0)) < 1e-12
    assert r.error_estimate < 1e-12
    assert r.evaluations >= 15


def test_integrate_oscillatory():
    # int_0^10 cos(50 x) dx = sin(500)/50
    r = integrate_adaptive(lambda x: math.cos(50.0 * x), 0.0, 10.0, 1e-11)
    assert abs(r.value - math.sin(500.0) / 50.0) < 1e-10


def test_integrate_complex_valued():
    r = integrate_adaptive(lambda x: cmath.exp(1j * x), 0.0, math.pi, 1e-12)
    assert abs(r.value - 2j) < 1e-11


def test_integrate_budget_exhaustion():
    # |x|^{-1/2} is integrable but needle-sharp; a tiny budget must fail
    # loudly and carry its best estimate.
    with pytest.raises(BudgetExhaustedError) as exc:
        integrate_adaptive(lambda x: abs(x - 0.3) ** -0.5, 0.0, 1.0,
                           1e-14, budget=200)
    assert exc.value.best_estimate is not None
    assert exc.value.best_estimate.evaluations <= 200


def test_integrate_stops_at_the_rounding_floor():
    # no split can reach tol = 1e-300: the stagnation stop returns the
    # value with its honest error estimate instead of spending the budget
    r = integrate_adaptive(math.exp, 0.0, 1.0, 1e-300)
    assert abs(r.value - (math.e - 1.0)) < 1e-14
    assert 1e-300 < r.error_estimate < 1e-13
    assert r.evaluations < 2000


def test_integrate_empty_interval():
    r = integrate_adaptive(lambda x: 1.0, 2.0, 2.0, 1e-10)
    assert r.value == 0j


def test_root_bracketed_cosine():
    r = find_root_bracketed(math.cos, BracketInterval(1.0, 2.0), 1e-12)
    assert abs(r - 0.5 * math.pi) < 1e-11


def test_root_bracketed_brent_evaluation_count():
    # bisection needs about 42 halvings of [1, 2] to reach 1e-12
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x)

    r = find_root_bracketed(f, BracketInterval(1.0, 2.0), 1e-12)
    assert abs(r - 0.5 * math.pi) <= 1e-12
    assert len(calls) <= 15


def test_root_bracketed_takes_known_end_values():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 2.0

    r = find_root_bracketed(f, BracketInterval(1.0, 2.0), 1e-12,
                            f_lo=-1.0, f_hi=2.0)
    assert abs(r - math.sqrt(2.0)) <= 1e-12
    assert calls and all(1.0 < x < 2.0 for x in calls)
    # a given end value decides the sign test without a call
    with pytest.raises(PreconditionError):
        find_root_bracketed(f, BracketInterval(1.0, 2.0), 1e-12,
                            f_lo=1.0, f_hi=2.0)


def test_root_bracketed_requires_sign_change():
    with pytest.raises(PreconditionError):
        find_root_bracketed(lambda x: 1.0 + x * x,
                            BracketInterval(0.0, 1.0), 1e-10)


def test_winding_polynomial():
    rect = ContourRectangle(-1.0, 3.0, -1.0, 3.0)
    # (z - 1)(z - 2j): both roots inside
    assert winding_number(lambda z: (z - 1.0) * (z - 2j), rect) == 2
    # one root inside, one outside
    assert winding_number(lambda z: (z - 1.0) * (z - 10.0), rect) == 1
    # no roots
    assert winding_number(lambda z: np.exp(z), rect) == 0


def test_winding_zero_near_contour_refines():
    # root at distance 1e-4 from the boundary still resolves
    rect = ContourRectangle(0.0, 1.0, 0.0, 1.0)
    assert winding_number(lambda z: z - complex(0.5, 1e-4), rect) == 1


def test_winding_zero_on_contour_raises():
    rect = ContourRectangle(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(BoundaryZeroError):
        winding_number(lambda z: z - 0.5, rect)


def test_winding_samples_all_sides_in_one_call():
    # sides of length 1 and 25: 32 samples (the floor) and 10 per unit,
    # 33 + 251 + 33 + 251 points in the first call, then one per call
    sizes = []

    def g(z):
        sizes.append(len(z))
        return z - complex(0.5, 3.0)

    rect = ContourRectangle(0.0, 1.0, 0.0, 25.0)
    assert winding_number(g, rect) == 1
    assert sizes[0] == 568
    assert all(n == 1 for n in sizes[1:])
