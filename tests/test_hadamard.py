import cmath
import math

import mpmath
import pytest

from rzlab.cli import _first_zeros
from rzlab.errors import PreconditionError
from rzlab.hadamard import convergence_profile, fit_constants, hadamard_partial
from rzlab.zeros import find_zeros
from rzlab.zeta import log_xi


@pytest.fixture(scope="module")
def ordinates():
    return find_zeros(0.0, 100.0)[0].tolist()


def test_fit_constants_values():
    a, b = fit_constants()
    # e^A is the product value at the origin, which equals 1/2
    assert abs(math.exp(a.real) - 0.5) < 1e-10
    assert abs(a.imag) < 1e-12
    # the log-derivative at the origin, a known slowly-varying constant
    assert abs(b.real - (-0.023095)) < 1e-4


def test_fit_constants_b_matches_log_xi_derivative():
    # independent referee: (log xi)'(0) by mpmath's numerical derivative,
    # with xi(s) = (s - 1) pi^{-s/2} Gamma(s/2 + 1) zeta(s)
    with mpmath.workdps(30):
        b = mpmath.diff(lambda s: mpmath.log(
            (s - 1) * mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2 + 1)
            * mpmath.zeta(s)), 0)
    assert abs(fit_constants()[1] - complex(b)) < 1e-12


def test_partial_product_converges_on_real_axis(ordinates):
    n_max = len(ordinates)
    target = cmath.exp(log_xi(2.0))
    residuals = [abs(hadamard_partial(ordinates, 2.0, n) - target)
                 / abs(target) for n in (5, 10, 20, n_max)]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_partial_product_converges_off_axis(ordinates):
    z = complex(0.5, 5.0)
    prof = convergence_profile(z, [5, 15, len(ordinates)], ordinates,
                               log_xi(z))
    assert all(b < a for a, b in zip(prof, prof[1:]))


@pytest.mark.parametrize("z", [2.0, -3.0, complex(0.5, 5.0),
                               complex(30.0, 20.0), 433.0904904706722])
def test_convergence_profile_against_mpmath(z):
    # referee: |P_N(z) / xi(z) - 1| at 30 digits on the same ordinates,
    # P_N built factor by factor and xi(s) = s (s - 1)/2 pi^{-s/2}
    # Gamma(s/2) zeta(s), at the checkpoints the hadamard mode takes for
    # 100 zeros; 433.09... is the last real point the mode accepts
    checkpoints = [10, 25, 50, 100]
    ordinates = _first_zeros(100)
    profile = convergence_profile(z, checkpoints, ordinates, log_xi(z))
    expected = []
    with mpmath.workdps(30):
        s = mpmath.mpmathify(z)
        target = (s * (s - 1) / 2 * mpmath.pi ** (-s / 2)
                  * mpmath.gamma(s / 2) * mpmath.zeta(s))
        product = mpmath.exp(mpmath.log(0.5) + s * (
            -mpmath.euler / 2 - 1 + mpmath.log(4 * mpmath.pi) / 2))
        for n, t in enumerate(ordinates, 1):
            rho = mpmath.mpc(0.5, t)
            product *= ((1 - s / rho) * (1 - s / mpmath.conj(rho))
                        * mpmath.exp(s / abs(rho) ** 2))
            if n in checkpoints:
                expected.append(float(abs(product / target - 1)))
    assert len(profile) == len(expected) == len(checkpoints)
    for got, want in zip(profile, expected):
        assert abs(got - want) <= 1e-10 * want, (z, got, want)


@pytest.mark.parametrize("z", [2.0, complex(0.5, 5.0), complex(-3.0, 1.0)])
def test_partial_product_of_no_pairs_is_exp_a_plus_bz(ordinates, z):
    a, b = fit_constants()
    value = hadamard_partial(ordinates, z, 0)
    assert abs(value - cmath.exp(a + b * z)) <= 1e-15 * abs(value)
    assert isinstance(z, complex) or value.imag == 0.0


def test_exact_zero_at_catalog_points(ordinates):
    t1 = ordinates[0]
    assert hadamard_partial(ordinates, complex(0.5, t1), 10) == 0j
    assert hadamard_partial(ordinates, complex(0.5, -t1), 10) == 0j


def test_real_argument_gives_real_value(ordinates):
    v = hadamard_partial(ordinates, 3.0, len(ordinates))
    assert v.imag == 0.0


def test_n_beyond_catalog_rejected(ordinates):
    with pytest.raises(PreconditionError):
        hadamard_partial(ordinates, 2.0, len(ordinates) + 1)
