import math

import mpmath
import pytest

from rzlab.errors import PreconditionError
from rzlab.hadamard import (ZeroCatalog, convergence_profile, fit_constants,
                            hadamard_partial)
from rzlab.zeros import find_zeros
from rzlab.zeta import xi


@pytest.fixture(scope="module")
def catalog():
    zeros = find_zeros(0.0, 100.0)
    return ZeroCatalog.from_zeros(zeros)


@pytest.fixture(scope="module")
def params():
    return fit_constants()


def test_catalog_validation():
    with pytest.raises(ValueError):
        ZeroCatalog(())
    with pytest.raises(ValueError):
        ZeroCatalog((14.1, 14.1))


def test_fit_constants_values(params):
    # e^A is the product value at the origin, which equals 1/2
    assert abs(math.exp(params.a.real) - 0.5) < 1e-10
    assert abs(params.a.imag) < 1e-12
    # the log-derivative at the origin, a known slowly-varying constant
    assert abs(params.b.real - (-0.023095)) < 1e-4


def test_fit_constants_b_matches_log_xi_derivative(params):
    # independent referee: (log xi)'(0) by mpmath's numerical derivative,
    # with xi(s) = (s - 1) pi^{-s/2} Gamma(s/2 + 1) zeta(s)
    with mpmath.workdps(30):
        b = mpmath.diff(lambda s: mpmath.log(
            (s - 1) * mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2 + 1)
            * mpmath.zeta(s)), 0)
    assert abs(params.b - complex(b)) < 1e-12


def test_partial_product_converges_on_real_axis(params, catalog):
    n_max = len(catalog)
    target = xi(2.0)
    residuals = [abs(hadamard_partial(params, catalog, 2.0, n) - target)
                 / abs(target) for n in (5, 10, 20, n_max)]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_partial_product_converges_off_axis(params, catalog):
    z = complex(0.5, 5.0)
    prof = convergence_profile(z, [5, 15, len(catalog)], catalog, params)
    assert all(b < a for a, b in zip(prof, prof[1:]))


def test_exact_zero_at_catalog_points(params, catalog):
    t1 = catalog.ordinates[0]
    assert hadamard_partial(params, catalog, complex(0.5, t1), 10) == 0j
    assert hadamard_partial(params, catalog, complex(0.5, -t1), 10) == 0j


def test_real_argument_gives_real_value(params, catalog):
    v = hadamard_partial(params, catalog, 3.0, len(catalog))
    assert v.imag == 0.0


def test_n_beyond_catalog_rejected(params, catalog):
    with pytest.raises(PreconditionError):
        hadamard_partial(params, catalog, 2.0, len(catalog) + 1)
