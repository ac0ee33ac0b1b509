import math

import numpy as np
import pytest

from rzlab.dispersion import (BETA, GAMMA, RealLineSamples,
                              _log_dispersion_input, _log_f_plus_outer,
                              _pv_on_grid, blaschke_product,
                              bound_state_model, rational_model,
                              roundtrip_residual, unit_model)
from rzlab.errors import GridError


def _pv_direct(grid, w, idx):
    """Reference for _pv_on_grid: the regularized trapezoid sum, one
    O(n) array per node."""
    a, b = grid[0], grid[-1]
    out = np.empty(len(idx), dtype=complex)
    dw = np.gradient(w, grid)
    for j, i in enumerate(idx):
        k = grid[i]
        diff = grid - k
        g = np.empty_like(w)
        nz = diff != 0
        g[nz] = (w[nz] - w[i]) / diff[nz]
        g[~nz] = dw[i]
        out[j] = np.trapezoid(g, grid) + w[i] * math.log((b - k) / (k - a))
    return out


def test_blaschke_conjugate_is_pi_minus_on_real_grid():
    # Pi_- = prod (k + i k_j) / (k - i k_j), bit for bit, on a real grid
    momenta = (1.0, 2.5, 0.3)
    grid = np.linspace(-50.0, 50.0, 4001)
    for m in (momenta[:1], momenta):
        pi_minus = np.ones_like(grid, dtype=complex)
        for kj in m:
            pi_minus = pi_minus * (grid + 1j * kj) / (grid - 1j * kj)
        assert np.array_equal(np.conj(blaschke_product(m, grid)), pi_minus)


def test_blaschke_unimodular_on_real_line():
    for k in (-7.0, -0.3, 0.0, 4.0):
        assert abs(abs(blaschke_product((1.0, 2.5), k)) - 1.0) < 1e-14


def test_blaschke_zero_location():
    # Pi_+ vanishes at k = +i k_j (upper half plane bound state)
    assert abs(blaschke_product((2.0,), 2j)) < 1e-14


@pytest.mark.parametrize("momentum", [0.0, -1.0])
def test_samples_reject_non_positive_momentum(momentum):
    grid = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ValueError, match="must be positive"):
        RealLineSamples(grid, np.ones(11, dtype=complex), (1.0, momentum))


def test_samples_validation():
    grid = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        RealLineSamples(grid[::-1], np.ones(11, dtype=complex))
    with pytest.raises(ValueError, match="equal length"):
        RealLineSamples(grid, np.ones(10, dtype=complex))
    with pytest.raises(ValueError):
        RealLineSamples(np.linspace(0.0, 1.0, 11),
                        np.ones(11, dtype=complex))
    vals = np.ones(11, dtype=complex)
    vals[5] = 0.0
    with pytest.raises(GridError):
        RealLineSamples(grid, vals)
    # symmetric and increasing but not uniform
    with pytest.raises(GridError, match="uniformly spaced"):
        RealLineSamples(np.sinh(grid), np.ones(11, dtype=complex))


def _f_plus_at(samples, k):
    """The round trip's own F+ at the node nearest k, and that node; the
    models here have no bound state, so F+ is its outer part."""
    i = int(np.argmin(np.abs(samples.grid - k)))
    return np.exp(_log_f_plus_outer(samples)[i - 1]), samples.grid[i]


def test_reconstruct_unit_model():
    samples = unit_model(half_width=20.0, nodes=801)
    for k in (-5.0, 0.1, 7.3):
        assert abs(_f_plus_at(samples, k)[0] - 1.0) < 1e-12


def test_reconstruct_rational_model():
    samples = rational_model(half_width=50.0, nodes=4001)
    for k in (-3.0, 0.5, 8.0):
        got, kk = _f_plus_at(samples, k)
        want = (kk + 1j * BETA) / (kk + 1j * GAMMA)
        assert abs(got - want) < 5e-5


@pytest.mark.parametrize("nodes", [0, 2, 3, 4, 5])
def test_roundtrip_needs_six_nodes(nodes):
    samples = unit_model(half_width=10.0, nodes=nodes)
    with pytest.raises(GridError, match="at least 6 grid nodes"):
        roundtrip_residual(samples)


def test_roundtrip_runs_at_six_nodes():
    assert roundtrip_residual(unit_model(half_width=10.0, nodes=6)) < 1e-12


def test_narrow_grid_rejected():
    # slow decay of ln S ~ 2i (GAMMA - BETA)/k: at half-width 2 the
    # endpoints carry |ln S| = 8e-4, above the 1e-4 gate
    samples = rational_model(half_width=2.0, nodes=201)
    with pytest.raises(GridError, match="= 0.0008 at the endpoints"):
        roundtrip_residual(samples)


def test_phase_step_of_a_quarter_turn_rejected():
    # a phase bump 0.04 wide on a grid of step 0.1 jumps 2.5 rad in one
    # step; np.unwrap leaves it below pi, the quarter-turn rule sees it
    grid = np.linspace(-50.0, 50.0, 1001)
    samples = RealLineSamples(grid, np.exp(2.5j * np.exp(-(grid / 0.02)
                                                         ** 2)))
    with pytest.raises(GridError, match="pi/2 or more"):
        roundtrip_residual(samples)


def test_roundtrip_unit_is_exact():
    assert roundtrip_residual(unit_model()) < 1e-12


def test_roundtrip_rational_truncation_scaling():
    r50 = roundtrip_residual(rational_model(half_width=50.0, nodes=4001))
    assert r50 < 1e-3
    r100 = roundtrip_residual(rational_model(half_width=100.0, nodes=8001))
    ratio = r50 / r100
    assert 1.4 < ratio < 2.6  # halving within +-30%


def _smooth_input(half_width, nodes):
    grid = np.linspace(-half_width, half_width, nodes)
    return grid, (np.exp(-(grid / 10.0) ** 2)
                  * (1.0 + 0.5j * np.sin(grid / 3.0)))


def _model_input(model):
    def build(half_width, nodes):
        samples = model(half_width=half_width, nodes=nodes)
        return samples.grid, _log_dispersion_input(samples)
    return build


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("source", [_model_input(rational_model),
                                    _model_input(bound_state_model),
                                    _smooth_input],
                         ids=["rational", "bound-state", "smooth"])
@pytest.mark.parametrize("nodes", [6, 7, 101, 2000, 4001])
def test_pv_on_grid_matches_direct_sum(nodes, source, stride):
    grid, w = source(50.0, nodes)
    idx = np.arange(1, nodes - 1, stride)
    got = _pv_on_grid(grid, w, idx)
    assert np.max(np.abs(got - _pv_direct(grid, w, idx))) <= 1e-14


@pytest.mark.parametrize("nodes", [6, 2001, 8001])
def test_roundtrip_unit_residual_is_zero(nodes):
    assert roundtrip_residual(unit_model(nodes=nodes)) == 0.0


def test_roundtrip_truncation_scaling_over_a_decade():
    # h = 0.025 fixed, so only the cut-off tails change: residual ~ 1/L
    widths = np.array([50.0, 100.0, 200.0, 400.0, 800.0])
    residuals = [roundtrip_residual(rational_model(half_width=L,
                                                   nodes=int(80 * L) + 1))
                 for L in widths]
    slope = np.polyfit(np.log(widths), np.log(residuals), 1)[0]
    assert -1.1 <= slope <= -0.9


def test_roundtrip_blaschke_invariance():
    r_plain = roundtrip_residual(rational_model(half_width=50.0, nodes=4001))
    r_bound = roundtrip_residual(bound_state_model(half_width=50.0,
                                                    nodes=4001))
    assert r_bound < 2.0 * r_plain + 1e-12
