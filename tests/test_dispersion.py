import numpy as np
import pytest

from rzlab.dispersion import (BlaschkeSpec, RealLineSamples,
                              blaschke_product, bound_state_model,
                              rational_model, reconstruct_jost_plus,
                              roundtrip_residual, unit_model)
from rzlab.errors import GridError, PreconditionError


def test_blaschke_unimodular_on_real_line():
    spec = BlaschkeSpec((1.0, 2.5))
    for k in (-7.0, -0.3, 0.0, 4.0):
        assert abs(abs(blaschke_product(spec, k, "+")) - 1.0) < 1e-14
        assert abs(abs(blaschke_product(spec, k, "-")) - 1.0) < 1e-14


def test_blaschke_plus_minus_reciprocal():
    spec = BlaschkeSpec((1.5,))
    k = 0.7
    p = blaschke_product(spec, k, "+")
    m = blaschke_product(spec, k, "-")
    assert abs(p * m - 1.0) < 1e-14


def test_blaschke_zero_location():
    # Pi_+ vanishes at k = +i k_j (upper half plane bound state)
    spec = BlaschkeSpec((2.0,))
    assert abs(blaschke_product(spec, 2j, "+")) < 1e-14


def test_blaschke_rejects_bad_sign_and_momenta():
    spec = BlaschkeSpec((1.0,))
    with pytest.raises(ValueError):
        blaschke_product(spec, 1.0, "x")
    with pytest.raises(ValueError):
        BlaschkeSpec((-1.0,))


def test_samples_validation():
    grid = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        RealLineSamples(grid[::-1], np.ones(11, dtype=complex))
    with pytest.raises(ValueError):
        RealLineSamples(np.linspace(0.0, 1.0, 11),
                        np.ones(11, dtype=complex))
    vals = np.ones(11, dtype=complex)
    vals[5] = 0.0
    with pytest.raises(GridError):
        RealLineSamples(grid, vals)


def test_reconstruct_unit_model():
    samples, spec = unit_model(half_width=20.0, nodes=801)
    for k in (-5.0, 0.1, 7.3):
        assert abs(reconstruct_jost_plus(samples, spec, k) - 1.0) < 1e-12


def test_reconstruct_rational_model():
    beta, gamma = 1.0, 1.001
    samples, spec = rational_model(half_width=50.0, nodes=4001,
                                   beta=beta, gamma=gamma)
    for k in (-3.0, 0.5, 8.0):
        got = reconstruct_jost_plus(samples, spec, k)
        i = np.argmin(np.abs(samples.grid - k))
        kk = samples.grid[i]
        want = (kk + 1j * beta) / (kk + 1j * gamma)
        assert abs(got - want) < 5e-5


def test_reconstruct_requires_interior_point():
    samples, spec = unit_model(half_width=10.0, nodes=101)
    with pytest.raises(PreconditionError):
        reconstruct_jost_plus(samples, spec, 11.0)


@pytest.mark.parametrize("nodes", [0, 2, 3, 4, 5])
def test_roundtrip_needs_six_nodes(nodes):
    samples, spec = unit_model(half_width=10.0, nodes=nodes)
    with pytest.raises(GridError, match="at least 6 grid nodes"):
        roundtrip_residual(samples, spec)


def test_roundtrip_runs_at_six_nodes():
    samples, spec = unit_model(half_width=10.0, nodes=6)
    assert roundtrip_residual(samples, spec) < 1e-12


def test_narrow_grid_rejected():
    # slow log-magnitude decay: endpoints carry too much weight
    samples, spec = rational_model(half_width=2.0, nodes=201,
                                   beta=1.0, gamma=1.5)
    with pytest.raises(GridError):
        reconstruct_jost_plus(samples, spec, 0.3)


def test_roundtrip_unit_is_exact():
    samples, spec = unit_model()
    assert roundtrip_residual(samples, spec) < 1e-12


def test_roundtrip_rational_truncation_scaling():
    r50 = roundtrip_residual(*rational_model(half_width=50.0, nodes=4001))
    assert r50 < 1e-3
    r100 = roundtrip_residual(*rational_model(half_width=100.0, nodes=8001))
    ratio = r50 / r100
    assert 1.4 < ratio < 2.6  # halving within +-30%


def test_roundtrip_blaschke_invariance():
    r_plain = roundtrip_residual(*rational_model(half_width=50.0, nodes=4001))
    r_bound = roundtrip_residual(*bound_state_model(half_width=50.0,
                                                    nodes=4001))
    assert r_bound < 2.0 * r_plain + 1e-12
