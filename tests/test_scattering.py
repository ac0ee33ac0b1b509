import cmath
import itertools
import math
import re

import numpy as np
import pytest

import rzlab.scattering
from rzlab.errors import VerificationError
from rzlab.numerics import ContourRectangle, winding_number
from rzlab.scattering import (coupling_at_zero, log_s_matrix, s_matrix,
                              zero_to_jost_zero)
from rzlab.zeros import find_zeros
from rzlab.zeta import T_MAX, log_xi_array

T1 = 14.134725141734694


def test_s_matrix_at_origin():
    log_s, pole, zero = s_matrix(0.0)
    assert abs(cmath.exp(log_s) - 1.0) < 1e-14
    assert not pole and not zero


def test_s_matrix_inverse_symmetry():
    for s in (complex(0.1, 0.3), complex(-0.05, 2.0), complex(0.2, -1.7)):
        prod = s_matrix(s)[0] + s_matrix(-s)[0]
        assert abs(cmath.exp(prod) - 1.0) < 1e-10


def test_s_matrix_unitary_on_imaginary_axis():
    # xi(2 i tau) and xi(1 + 2 i tau) come from independent sums, so the
    # deviation is rounding, not the exact 0 of xi at conjugate points
    worst = max(abs(math.exp(s_matrix(complex(0.0, 0.1 * i))[0].real) - 1.0)
                for i in range(1301))
    assert 0.0 < worst < 1e-12


def test_s_matrix_flags_poles_and_zeros():
    pole_point = complex(-0.25, 0.5 * T1)  # xi(-2s) vanishes here
    assert s_matrix(pole_point)[1:] == (True, False)
    zero_point = complex(0.25, 0.5 * T1)  # xi(2s) vanishes here
    assert s_matrix(zero_point)[1:] == (False, True)
    assert s_matrix(complex(0.1, 1.0))[1:] == (False, False)


def test_s_matrix_reuses_xi_values_for_flags(monkeypatch):
    # log xi(2s) and log xi(1 + 2s) serve both the value and the
    # pole/zero flags; no xi is taken from its linear value
    import rzlab.scattering as scattering
    calls = []

    def counted_log(p):
        calls.append(p)
        return real_log_xi(p)

    real_log_xi = scattering.log_xi
    monkeypatch.setattr(scattering, "log_xi", counted_log)
    assert not hasattr(scattering, "xi")
    assert s_matrix(complex(0.3, 40.0))[1:] == (False, False)
    assert len(calls) == 2
    # at an F+ zero (a pole of S) or an S zero only the point q = p + h
    # of the distance rule is added
    for s, flags in ((complex(-0.25, 0.5 * T1), (True, False)),
                     (complex(0.25, 0.5 * T1), (False, True))):
        del calls[:]
        assert s_matrix(s)[1:] == flags
        assert len(calls) == 3
        assert calls[2] == calls[1 if flags[0] else 0] + 1e-3


def test_jost_plus_is_reciprocal():
    # F+(s) = S(-s), and F+(s) S(s) = 1
    s = complex(0.07, 0.9)
    prod = s_matrix(-s)[0] + s_matrix(s)[0]
    assert abs(cmath.exp(prod) - 1.0) < 1e-12


@pytest.mark.parametrize("s", [0.0, complex(0.07, 0.9),
                               complex(-0.25, 0.5 * T1),
                               complex(0.25, 0.5 * T1)])
def test_jost_plus_negates_the_log_and_swaps_the_flags(s):
    # F+(s) = S(-s) = 1/S(s): a pole at s is a zero of F+ and back, and
    # log |F+| = -log |S|; the phase is only checked away from both flags
    log_s, pole, zero = s_matrix(s)
    log_f, pole_f, zero_f = s_matrix(-s)
    assert (pole_f, zero_f) == (zero, pole)
    assert abs(log_f.real + log_s.real) < 1e-12
    if not (pole or zero):
        assert abs(cmath.exp(log_s + log_f) - 1.0) < 1e-12


def _jost_magnitude(t):
    """|F+| at -1/4 + i t/2 from log_s_matrix, the batch that
    zero_to_jost_zero reads it from."""
    return math.exp(-log_s_matrix(complex(-0.25, 0.5 * t)).real)


def test_zero_to_jost_zero_verified():
    p = complex(-0.25, 0.5 * T1)
    fp, = zero_to_jost_zero([T1])
    assert fp == _jost_magnitude(T1)
    assert fp < 1e-6 and s_matrix(p)[1]


def test_zero_to_jost_zero_rejects_non_zero():
    # 12.0, 15.0 and 25.0 are not zero ordinates; the true zeros below 50
    # in the same batch still pass, each as a float
    fp, bad = zero_to_jost_zero([T1, 15.0])
    assert isinstance(bad, VerificationError)
    assert fp == _jost_magnitude(T1)
    ordinates = find_zeros(0.0, 50.0)[0].tolist() + [12.0, 25.0]
    checked = zero_to_jost_zero(ordinates)
    assert len(checked) == len(ordinates)
    for fp in checked[:-2]:
        assert type(fp) is float and fp < 1e-6
    assert all(isinstance(fp, VerificationError) for fp in checked[-2:])


def test_zero_to_jost_zero_verdicts_on_no_zero_and_a_non_zero():
    assert zero_to_jost_zero([]) == []
    bad, = zero_to_jost_zero([15.0])
    assert isinstance(bad, VerificationError)
    assert re.fullmatch(r"\|F\+\| = \S+ at \(-0\.25\+7\.5j\); "
                        r"expected a zero there", str(bad))


def test_zero_to_jost_zero_evaluates_s_matrix_once(monkeypatch):
    # S at every p is evaluated once, in one log_xi_array call on all 2p
    # and 1 + 2p, then the pole flag's points 1 + 2p + h in one more; no
    # scalar log_xi or s_matrix call (the boxes are not evaluated here)
    import rzlab.scattering as scattering
    calls = []

    def counted(z):
        calls.append(np.array(z))
        return log_xi_array(z)

    monkeypatch.setattr(scattering, "log_xi_array", counted)
    monkeypatch.setattr(scattering, "log_xi", pytest.fail)
    monkeypatch.setattr(scattering, "s_matrix", pytest.fail)
    monkeypatch.setattr(scattering, "winding_number",
                        lambda g, rects: [1] * len(rects))
    ordinates = [T1, 15.0, 21.022039638771555]
    checked = zero_to_jost_zero(ordinates)
    assert [isinstance(fp, float) for fp in checked] == [True, False, True]
    p = -0.25 + 0.5j * np.array(ordinates)
    assert len(calls) == 2
    assert np.array_equal(calls[0], np.stack((2.0 * p, 1.0 + 2.0 * p)))
    # 15.0 is far from a zero: its |xi| fails the magnitude test
    assert np.array_equal(calls[1], 1.0 + 2.0 * p[[0, 2]] + 1e-3)


def test_every_jost_box_winds_once_with_the_zero_near_a_side():
    # every F+ zero below T_MAX, in its centred 0.1-wide box and in the
    # box moved so the zero lies 0.01 inside one side, or inside both
    # sides at a corner, where the box stays in the window: at
    # MIN_SIDE_SAMPLES per side each winds once, all in one batch
    ordinates = find_zeros(0.0, T_MAX)[0].tolist()
    rects = []
    for t in ordinates:
        for dx, dy in itertools.product((-0.04, 0.0, 0.04), repeat=2):
            c = complex(-0.25 + dx, 0.5 * t + dy)
            if 2.0 * (c.imag + 0.05) <= T_MAX:
                rects.append(ContourRectangle(c.real - 0.05, c.real + 0.05,
                                              c.imag - 0.05, c.imag + 0.05))
    assert len(ordinates) == 114 and len(rects) == 114 * 9 - 3
    counts = winding_number(lambda zs: np.exp(-log_s_matrix(zs)), rects)
    assert counts == [1] * len(rects)
    assert all(not isinstance(fp, VerificationError)
               for fp in zero_to_jost_zero(ordinates))


def test_log_s_matrix_matches_s_matrix():
    # clear of the poles and zeros of S (Re s = +-1/4) and of the trivial
    # zeros' gamma poles at real s = -1, -2, ...; half of every point
    # pair is reflected, and |Im 2s| comes within 0.2 of T_MAX = 260
    re = (-4.9, -1.7, -0.6, -0.4, -0.1, 0.0, 0.05, 0.1, 0.4, 0.6, 1.7, 4.9)
    im = (-129.9, -129.5, -100.3, -40.2, -3.1, 0.0, 0.7, 2.2, 15.0, 60.5,
          129.5, 129.9)
    s = np.array([complex(a, b) for a in re for b in im]).reshape(12, 12)
    got = np.exp(log_s_matrix(s))
    assert got.shape == s.shape
    for z, g in zip(s.ravel(), got.ravel()):
        want = cmath.exp(s_matrix(complex(z))[0])
        assert abs(g - want) <= 1e-12 * abs(want), z


def test_log_s_matrix_takes_both_halves_in_one_batch(monkeypatch):
    # scans on Re s = 0 of 21 to 261 points per half: the one batch
    # reads the two separate calls' values to the bit
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return log_xi_array(z)

    monkeypatch.setattr(rzlab.scattering, "log_xi_array", counted)
    for count in (21, 61, 100, 129, 261):
        s = 0.5j * np.arange(count)
        calls.clear()
        got = log_s_matrix(s)
        assert calls == [(2, count)]
        want = log_xi_array(2.0 * s) - log_xi_array(1.0 + 2.0 * s)
        assert np.array_equal(got, want), count


def test_coupling_at_zero_real_and_below_quarter():
    c = coupling_at_zero(T1)
    assert c.imag == 0.0
    assert c.real == -(0.25 + T1 * T1)
    assert c.real < -0.25
