import math

import pytest

from rzlab.errors import PreconditionError
from rzlab.numerics import ContourRectangle
from rzlab.zeros import (count_zeros_rectangle, critical_line_function,
                         find_zeros)

# First ordinates, frozen from an independent high-precision evaluation.
FIRST_ORDINATES = (14.134725141734694, 21.022039638771555,
                   25.010857580145689, 30.424876125859513,
                   32.935061587739190)


def test_critical_line_function_is_real_signed():
    v = critical_line_function(10.0)
    assert v.phase in (0.0, math.pi)
    assert v.sign_hint in (-1, 1)


def test_find_zeros_first_five():
    zeros = find_zeros(0.0, 33.0)
    assert len(zeros) == 5
    for z, ref in zip(zeros, FIRST_ORDINATES):
        assert abs(z.ordinate - ref) < 1e-7
        assert z.residual < 1e-12
    assert [z.index for z in zeros] == [1, 2, 3, 4, 5]


def test_find_zeros_empty_window():
    assert find_zeros(0.0, 10.0) == []


def test_find_zeros_precondition():
    with pytest.raises(PreconditionError):
        find_zeros(10.0, 5.0)
    with pytest.raises(PreconditionError):
        find_zeros(0.0, 10.0, step=1.0)


def test_find_zeros_rejects_oversized_grid_before_scanning():
    # 10 / 1e-5 = 10^6 intervals, one point more than the limit
    with pytest.raises(PreconditionError, match="more than 1000000"):
        find_zeros(0.0, 10.0, step=1e-5)


def test_count_zeros_rectangle_matches_scan():
    zeros = find_zeros(0.0, 50.0)
    rect = ContourRectangle(0.0, 1.0, 0.001, 50.0)
    assert count_zeros_rectangle(rect) == len(zeros)


def test_count_zeros_empty_rectangle():
    rect = ContourRectangle(0.0, 1.0, 0.001, 10.0)
    assert count_zeros_rectangle(rect) == 0


def test_count_zeros_nudges_past_boundary_zero():
    # top edge passes (nearly) through the first zero; the nudge retry
    # must still produce a definite count for the nudged rectangle
    rect = ContourRectangle(0.0, 1.0, 0.001, FIRST_ORDINATES[0])
    assert count_zeros_rectangle(rect) in (0, 1)
