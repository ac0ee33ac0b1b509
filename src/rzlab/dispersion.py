"""Reconstruction of Jost functions from scattering data on the real
momentum line: Blaschke bound-state factors, the boundary-value
dispersion integral (principal value plus the half-residue delta term),
and a reflection round trip that measures truncation error.  The
samples sit on a uniform grid, where every principal value is one FFT
correlation, so the round trip costs O(n log n).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError

S_MAGNITUDE_FLOOR = 1e-12
ENDPOINT_LOG_S_MAX = 1e-4
# Fewest nodes for which the round trip's interior third stays off the
# ends of the reduced grid its Hilbert transform runs on.
ROUNDTRIP_MIN_NODES = 6
# rational_model's F+ = (k + i BETA)/(k + i GAMMA); bound_state_model's k1
BETA, GAMMA, K1 = 1.0, 1.001, 1.0


@dataclass(frozen=True)
class RealLineSamples:
    grid: np.ndarray
    s_values: np.ndarray
    bound_state_momenta: tuple = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        sv = np.asarray(self.s_values, dtype=complex)
        momenta = tuple(float(k) for k in self.bound_state_momenta)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "s_values", sv)
        object.__setattr__(self, "bound_state_momenta", momenta)
        if any(k <= 0 for k in momenta):
            raise ValueError("bound-state momenta must be positive")
        if grid.ndim != 1 or grid.size != sv.size:
            raise ValueError("grid and s_values must be 1-d and equal length")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.allclose(grid, -grid[::-1],
                           atol=1e-9 * np.abs(grid).max(initial=1.0)):
            raise ValueError("grid must be symmetric about 0")
        # the principal values are FFT correlations, exact only on a
        # uniform grid
        steps = np.diff(grid)
        if not np.allclose(steps, steps.max(initial=0.0), rtol=1e-9, atol=0.0):
            raise GridError("grid must be uniformly spaced")
        if np.any(np.abs(sv) <= S_MAGNITUDE_FLOOR):
            raise GridError("|S(k)| vanishes on the grid; S must be "
                            "nonvanishing on the real line")


def blaschke_product(momenta, k):
    """Pi_+(k) = prod (k - i k_j) / (k + i k_j); unimodular for real k,
    where its conjugate is Pi_-(k)."""
    k = np.asarray(k, dtype=complex)
    prod = np.ones_like(k)
    for kj in momenta:
        prod = prod * (k - 1j * kj) / (k + 1j * kj)
    return complex(prod) if prod.ndim == 0 else prod


def _log_dispersion_input(samples):
    """Unwrapped w(k) = ln(S^{-1}(k) Pi_-(k)^2) on the grid.

    The phase is tracked node-to-node and shifted by a multiple of
    2 pi so it vanishes at the truncation endpoints; the endpoints must
    already carry |w| < 1e-4 or the grid is too narrow.
    """
    pm = np.conj(blaschke_product(samples.bound_state_momenta, samples.grid))
    vals = pm * pm / samples.s_values
    raw_phase = np.angle(vals)
    phase = np.unwrap(raw_phase)
    # np.unwrap leaves steps in [-pi, pi]; winding_number's quarter-turn rule
    if np.any(np.abs(np.diff(phase)) >= 0.5 * math.pi):
        raise GridError("phase step of pi/2 or more between adjacent nodes; "
                        "grid too coarse")
    # pin the branch: ln S -> 0 at +-infinity, so both ends go to 0
    shift = 2.0 * math.pi * round(0.5 * (phase[0] + phase[-1]) / (2.0 * math.pi))
    phase = phase - shift
    w = np.log(np.abs(vals)) + 1j * phase
    if max(abs(w[0]), abs(w[-1])) > ENDPOINT_LOG_S_MAX:
        raise GridError("|ln(S^-1 Pi_-^2)| = %.3g at the endpoints; grid "
                        "too narrow for honest truncation"
                        % max(abs(w[0]), abs(w[-1])))
    return w


def _pv_on_grid(grid, w, idx):
    """PV integral of w(k')/(k' - k_i) over the grid, for each interior
    node i in idx, by the trapezoid rule.

    Subtracting w(k_i) regularizes the integrand (the leftover
    PV int dk'/(k' - k_i) has the closed form ln((b - k)/(k - a)));
    at k' = k_i the regularized integrand is the centered derivative.
    On the uniform grid k_j = a + j h, with trapezoid weights e_j (1/2 at
    both ends, else 1), the trapezoid sum is

        sum_{j != i} e_j w_j / (j - i) - w_i sum_{j != i} e_j / (j - i)
            + h e_i w'(k_i),

    and both sums are correlations with the kernel 1/m: one FFT of
    length >= 2n - 1 gives them for every i without wrap-around.
    """
    n = len(grid)
    a, b = grid[0], grid[-1]
    e = np.ones(n)
    e[[0, -1]] = 0.5
    size = 1 << (2 * n - 2).bit_length()
    m = np.arange(1, n)
    kernel = np.zeros(size)
    kernel[m] = -1.0 / m  # sum_j c_j / (j - i) = sum_j c_j kernel[i - j]
    kernel[size - m] = 1.0 / m
    sums = np.fft.ifft(np.fft.fft(np.stack([e * w, e]), size)
                       * np.fft.fft(kernel))[:, idx]
    k = grid[idx]
    wi = w[idx]
    h = (b - a) / (n - 1)
    return (sums[0] - wi * sums[1] + h * e[idx] * np.gradient(w, h)[idx]
            + wi * np.log((b - k) / (k - a)))


def _log_f_plus_outer(samples):
    """log of F+'s outer part, F+ / Pi_+, at every grid node but the two
    ends, by the boundary-value integral (1/2 pi i)[PV + i pi w(k)]."""
    grid = samples.grid
    w = _log_dispersion_input(samples)
    inner = np.arange(1, len(grid) - 1)
    return (_pv_on_grid(grid, w, inner) + 1j * math.pi * w[inner]) / (
        2j * math.pi)


def roundtrip_residual(samples):
    """Reconstruct F+ everywhere, form F- = S F+, rebuild F-'s outer
    part from its boundary modulus alone (lower-half-plane analyticity
    forces arg = Hilbert transform of log modulus), and return
    sup |S - F-_rebuilt / F+| over the interior third of the grid.

    Identically zero on the infinite line; on a truncated grid the
    double Hilbert transform no longer closes exactly, so the residual
    measures the cut-off tails and shrinks as the half-width grows.
    """
    grid = samples.grid
    n = len(grid)
    if n < ROUNDTRIP_MIN_NODES:
        raise GridError("the round trip needs at least %d grid nodes, got %d"
                        % (ROUNDTRIP_MIN_NODES, n))
    # reconstructed F+ on the (end-node-free) grid: Pi_+ e^{u + i phase}
    inner = np.arange(1, n - 1)
    log_fplus_outer = _log_f_plus_outer(samples)
    # F- = S F+; its outer part has log modulus u_minus on the boundary
    u_minus = np.real(np.log(np.abs(samples.s_values[inner]))
                      + log_fplus_outer)
    lo, hi = n // 3, n - n // 3  # interior third
    idx = np.arange(lo, hi)
    hilbert = _pv_on_grid(grid[inner], u_minus + 0j, idx - 1) / math.pi
    pi_plus = blaschke_product(samples.bound_state_momenta, grid[idx])
    fplus = pi_plus * np.exp(log_fplus_outer[idx - 1])
    fminus_rebuilt = (np.conj(pi_plus)
                      * np.exp(u_minus[idx - 1] + 1j * hilbert.real))
    return float(np.max(np.abs(samples.s_values[idx]
                               - fminus_rebuilt / fplus)))


def unit_model(half_width=50.0, nodes=4001):
    """S identically 1: trivial scattering, F+ = F- = 1."""
    grid = np.linspace(-half_width, half_width, nodes)
    return RealLineSamples(grid, np.ones(nodes, dtype=complex))


def rational_model(half_width=50.0, nodes=4001):
    """Unimodular rational S from F+ = (k + i BETA)/(k + i GAMMA):
    no bound states, ln S ~ 2i(GAMMA - BETA)/k at infinity.

    GAMMA - BETA is kept small so |ln S| passes the endpoint-truncation
    gate at half-width 25 and beyond.
    """
    grid = np.linspace(-half_width, half_width, nodes)
    fplus = (grid + 1j * BETA) / (grid + 1j * GAMMA)
    s = np.conj(fplus) / fplus
    return RealLineSamples(grid, s)


def bound_state_model(half_width=50.0, nodes=4001):
    """rational_model dressed with one bound state at momentum K1:
    F+ = Pi_+ (k + i BETA)/(k + i GAMMA), S = Pi_-^2 S_rational."""
    samples = rational_model(half_width, nodes)
    pm = np.conj(blaschke_product((K1,), samples.grid))
    return RealLineSamples(samples.grid, pm * pm * samples.s_values, (K1,))
