import cmath
import math

import numpy as np
import pytest

from rzlab.errors import VerificationError
from rzlab.scattering import (coupling_at_zero, coupling_from_root,
                              flat_wave, jost_plus, log_s_matrix, s_matrix,
                              zero_to_jost_zero)

T1 = 14.134725141734694


def test_s_matrix_at_origin():
    m = s_matrix(0.0)
    assert abs(cmath.exp(m.log_value) - 1.0) < 1e-14
    assert not m.pole_flag and not m.zero_flag


def test_s_matrix_inverse_symmetry():
    for s in (complex(0.1, 0.3), complex(-0.05, 2.0), complex(0.2, -1.7)):
        prod = s_matrix(s).log_value + s_matrix(-s).log_value
        assert abs(cmath.exp(prod) - 1.0) < 1e-10


def test_s_matrix_unitary_on_imaginary_axis():
    for tau in (0.5, 3.0, 11.0, 25.0):
        m = s_matrix(complex(0.0, tau))
        assert abs(math.exp(m.log_value.real) - 1.0) < 1e-10


def test_s_matrix_pole_and_zero_flags():
    pole_point = complex(-0.25, 0.5 * T1)  # xi(-2s) vanishes here
    assert s_matrix(pole_point).pole_flag
    zero_point = complex(0.25, 0.5 * T1)  # xi(2s) vanishes here
    assert s_matrix(zero_point).zero_flag
    m = s_matrix(complex(0.1, 1.0))
    assert not m.pole_flag and not m.zero_flag


def test_s_matrix_reuses_xi_values_for_flags(monkeypatch):
    # xi(2s) and xi(-2s) serve both the value and the pole/zero flags
    import rzlab.scattering as scattering
    calls = []

    def counted(p):
        calls.append(p)
        return real_xi(p)

    def counted_log(p):
        calls.append(p)
        return real_log_xi(p)

    real_xi, real_log_xi = scattering.xi, scattering.log_xi
    monkeypatch.setattr(scattering, "xi", counted)
    monkeypatch.setattr(scattering, "log_xi", counted_log)
    m = s_matrix(complex(0.3, 40.0))
    assert not m.pole_flag and not m.zero_flag
    assert len(calls) == 2
    # at an F+ zero (a pole of S) only the derivative stencil is added
    del calls[:]
    assert s_matrix(complex(-0.25, 0.5 * T1)).pole_flag
    assert len(calls) == 4


def test_jost_plus_is_reciprocal():
    s = complex(0.07, 0.9)
    prod = jost_plus(s).log_value + s_matrix(s).log_value
    assert abs(cmath.exp(prod) - 1.0) < 1e-12


def test_zero_to_jost_zero_verified():
    fp = zero_to_jost_zero(T1)
    assert fp.s == complex(-0.25, 0.5 * T1)
    assert math.exp(fp.log_value.real) < 1e-6 and fp.zero_flag
    assert fp == jost_plus(fp.s)


def test_zero_to_jost_zero_rejects_non_zero():
    with pytest.raises(VerificationError):
        zero_to_jost_zero(15.0)  # not a zero ordinate


def test_zero_to_jost_zero_evaluates_s_matrix_once(monkeypatch):
    # the point check takes the scalar S; the winding box takes log_s_matrix
    import rzlab.scattering as scattering
    calls = []

    def counted(s):
        calls.append(s)
        return real_s_matrix(s)

    real_s_matrix = scattering.s_matrix
    monkeypatch.setattr(scattering, "s_matrix", counted)
    zero_to_jost_zero(T1)
    assert calls == [complex(-0.25, 0.5 * T1)]


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
        want = cmath.exp(s_matrix(complex(z)).log_value)
        assert abs(g - want) <= 1e-12 * abs(want), z


def test_coupling_at_zero_real_and_below_quarter():
    c = coupling_at_zero(T1)
    assert c.imag == 0.0
    assert c.real == -(0.25 + T1 * T1)
    assert c.real < -0.25


def test_coupling_from_root_off_line_control():
    on = coupling_from_root(complex(0.5, 10.0))
    assert abs(on.imag) < 1e-14
    off = coupling_from_root(complex(0.6, 10.0))
    assert abs(off.imag - 2.0) < 1e-12


def test_flat_wave_symmetry():
    # y^{1/2+s} + S y^{1/2-s} with S(0) = 1 gives 2 sqrt(y) at s = 0
    for y in (0.5, 1.0, 4.0):
        v = flat_wave(0.0, y)
        assert abs(v - 2.0 * math.sqrt(y)) < 1e-12
    # functional relation: S(-s) phi(s, y) = phi(-s, y) since S(s)S(-s) = 1
    s = complex(0.2, 1.4)
    for y in (0.7, 2.3):
        ms = cmath.exp(s_matrix(-s).log_value)
        lhs = ms * flat_wave(s, y)
        rhs = flat_wave(-s, y)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_flat_wave_requires_positive_height():
    with pytest.raises(ValueError):
        flat_wave(0.1, 0.0)
