import json
import math
import os
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rzlab.zeros
import rzlab.zeta
from rzlab.errors import PreconditionError
from rzlab.numerics import (MIN_SIDE_SAMPLES, SAMPLES_PER_UNIT,
                            ContourRectangle, real_sign, winding_number)
from rzlab.zeros import STEP, TOL, count_zeros_rectangle, find_zeros
from rzlab.zeta import T_MAX, log_xi_array, log_xi_line

# First ordinates, frozen from an independent high-precision evaluation.
FIRST_ORDINATES = (14.134725141734694, 21.022039638771555,
                   25.010857580145689, 30.424876125859513,
                   32.935061587739190)


def test_find_zeros_first_five():
    t, residuals = find_zeros(0.0, 33.0)
    assert len(t) == 5
    for x, r, ref in zip(t, residuals, FIRST_ORDINATES):
        assert abs(x - ref) < 1e-7
        assert r < 1e-12


def test_find_zeros_returns_two_float_arrays():
    t, residuals = find_zeros(0.0, 100.0)
    for a in (t, residuals):
        assert isinstance(a, np.ndarray) and a.dtype == np.float64
    assert t.shape == residuals.shape == (29,)
    assert np.all(np.diff(t) > 0.0)


def test_find_zeros_empty_window():
    t, residuals = find_zeros(0.0, 10.0)
    for a in (t, residuals):
        assert isinstance(a, np.ndarray) and a.dtype == np.float64
        assert a.shape == (0,)


def test_find_zeros_precondition():
    with pytest.raises(PreconditionError):
        find_zeros(10.0, 5.0)


def test_count_zeros_rectangle_matches_scan():
    t, _ = find_zeros(0.0, 50.0)
    rect = ContourRectangle(0.0, 1.0, 0.001, 50.0)
    assert count_zeros_rectangle(rect) == len(t)


def test_count_zeros_empty_rectangle():
    rect = ContourRectangle(0.0, 1.0, 0.001, 10.0)
    assert count_zeros_rectangle(rect) == 0


def test_count_zeros_at_a_boundary_zero_matches_the_scan():
    # the top edge passes (nearly) through the first zero: the contour's
    # mirror end and the scan's last grid point read one computed xi
    rect = ContourRectangle(0.0, 1.0, 0.001, FIRST_ORDINATES[0])
    assert count_zeros_rectangle(rect) == len(
        find_zeros(0.001, FIRST_ORDINATES[0])[0])


@pytest.fixture(scope="module")
def zeros_to_250():
    return find_zeros(0.0, 250.0)[0]


def test_find_zeros_match_mpmath(zeros_to_250):
    # the estimate the last round certified, not a bracket midpoint: a
    # bisection left up to 4.6e-11 against these referees
    assert len(zeros_to_250) == 108
    for n in list(range(1, 109, 9)) + [108]:
        with mpmath.workdps(25):
            ref = mpmath.zetazero(n).imag
        assert abs(zeros_to_250[n - 1] - float(ref)) < 5e-11, n


def test_no_float_lands_on_a_zero():
    # find_zeros scans its grid once, with no shift off a zero: at every
    # zero below T_MAX and at the floats on either side, log |xi| stays
    # far above the -inf of a grid point that lands on a zero
    t, _ = find_zeros(0.0, T_MAX)
    assert len(t) == 114
    for u in (t, np.nextafter(t, 0.0), np.nextafter(t, np.inf)):
        assert np.all(log_xi_array(0.5 + 1j * u).real > -300.0)


# The rectangle of every strip count that `rzlab zeros` makes: xi has no
# zeros off 0 < Re s < 1, so it counts what the strip holds.
CLI_RE = (-2.0, 3.0)


def _random_windows():
    rng = random.Random(20091)
    for _ in range(40):
        width = rng.uniform(1.0, 10.0)
        lo = rng.uniform(0.0, 250.0 - width)
        yield lo, width


def test_rectangle_counts_match_scan_on_random_windows(zeros_to_250):
    for lo, width in _random_windows():
        rect = ContourRectangle(0.0, 1.0, lo, lo + width)
        expected = len(find_zeros(lo, lo + width)[0])
        assert expected == sum(1 for t in zeros_to_250
                               if lo < t < lo + width)
        assert count_zeros_rectangle(rect) == expected, (lo, width)


def test_cli_contour_matches_scan_on_random_windows():
    for lo, width in _random_windows():
        rect = ContourRectangle(*CLI_RE, lo, lo + width)
        assert count_zeros_rectangle(rect) == len(
            find_zeros(lo, lo + width)[0]), (lo, width)


def test_cli_contour_matches_scan_on_edge_windows(ordinates_to_260):
    # a window edge on a zero, or 1e-13 or 1e-11 beside it: the contour's
    # mirror end and the scan's end grid point read one computed xi there
    failed = []
    for t in ordinates_to_260:
        for delta in (0.0, 1e-13, -1e-13, 1e-11, -1e-11):
            edge = t + delta
            for lo, hi in ((edge - 1.0, edge), (edge, edge + 1.0)):
                if hi > T_MAX:
                    continue
                rect = ContourRectangle(*CLI_RE, lo, hi)
                if count_zeros_rectangle(rect) != len(find_zeros(lo, hi)[0]):
                    failed.append((lo, hi))
    assert failed == []


def test_cli_contour_steps_stay_below_a_quarter_turn():
    # on Re s = 3 the phase of xi turns by less than pi/2 between any two
    # first samples of the long side, so it takes no refinement round:
    # measured on a grid 100 times finer, over every stretch as long as
    # the longest first step, L / max(MIN_SIDE_SAMPLES, floor(L
    # SAMPLES_PER_UNIT)) < (1 + 1 / MIN_SIDE_SAMPLES) / SAMPLES_PER_UNIT
    fine = 100 * SAMPLES_PER_UNIT
    t = np.arange(int(T_MAX) * fine + 1) / fine
    step = np.angle(np.exp(1j * np.diff(
        log_xi_array(CLI_RE[1] + 1j * t).imag)))
    assert np.abs(step).max() < 0.05
    turn = np.concatenate(([0.0], np.cumsum(step)))
    w = math.ceil(100 * (1 + 1 / MIN_SIDE_SAMPLES))
    assert np.abs(turn[w:] - turn[:-w]).max() < 0.5 * np.pi


def test_strip_count_evaluates_half_the_contour(monkeypatch):
    # xi(1 - conj s) = conj xi(s): the right half of the boundary carries
    # the count, 518 points against 1,018 on the full rectangle
    points = []

    def counted(z):
        points.append(np.size(z))
        return log_xi_array(z)

    monkeypatch.setattr(rzlab.zeros, "log_xi_array", counted)
    assert count_zeros_rectangle(ContourRectangle(0.0, 1.0, 1e-3, 250.0)) \
        == 108
    assert sum(points) <= 520


@pytest.fixture(scope="module")
def ordinates_to_260():
    return find_zeros(0.0, T_MAX)[0]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(0.0, T_MAX),
       st.one_of(st.floats(0.0, T_MAX), st.floats(0.0, 2.0)))
def test_mirror_count_matches_full_contour_and_scan(ordinates_to_260, lo,
                                                    width):
    # windows anywhere in the window of evaluation, wide or within a few
    # zero spacings, with both edges clear of every zero
    hi = min(lo + width, T_MAX)
    assume(hi > lo)
    assume(np.abs(ordinates_to_260 - lo).min() >= 1e-6)
    assume(np.abs(ordinates_to_260 - hi).min() >= 1e-6)
    rect = ContourRectangle(0.0, 1.0, lo, hi)
    full, = winding_number(lambda z: np.exp(log_xi_array(z)), [rect])
    assert count_zeros_rectangle(rect) == full == len(find_zeros(lo, hi)[0])
    assert count_zeros_rectangle(ContourRectangle(*CLI_RE, lo, hi)) == full


# Ordinates of the zeros up to t = 262 from mpmath.zetazero at 25 digits,
# the table the benchmark's referee reads.
ZERO_TABLE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "zeta_zeros.json")


@pytest.fixture(scope="module")
def table():
    with open(ZERO_TABLE) as fh:
        return np.array([float(t) for t in json.load(fh)])


def test_catalog_matches_the_zero_table(ordinates_to_260, table):
    # the certified estimate is within the rounding of xi itself: on a
    # 2-core x86-64 host with AVX-512 (numpy 2.4) the 114 ordinates lie
    # within 2.84e-13 of the table (zero 109), median 1.4e-14
    assert len(ordinates_to_260) == 114
    assert np.max(np.abs(ordinates_to_260 - table[:114])) <= 1e-12


def test_catalog_takes_one_line_two_ends_and_two_rounds(monkeypatch):
    # the scan's 835 grid points in one log_xi_line call and one xi batch,
    # the 833 interior ones summed along the line and its two ends as the
    # array sums them, then two refinement rounds over all 108 brackets,
    # rows of 7 and 3 points each, through the line's sums too; each batch
    # is closed 186 points a zeta_em call, 12 calls in all where one call
    # per n took 49; no point goes through the scalar log_xi
    calls, scalar, em = [], [], []
    log_xi = rzlab.zeta.log_xi
    log_xi_line = rzlab.zeta.log_xi_line
    batch = rzlab.zeta._log_xi
    zeta_em = rzlab.zeta.zeta_em

    def counted(z):
        calls.append(("array", np.size(z)))
        return log_xi_array(z)

    def counted_line(t):
        calls.append(("line", np.shape(t)))
        return log_xi_line(t)

    def counted_batch(w, total=None):
        calls.append(("batch", len(w), total is not None))
        return batch(w, total)

    def scalar_log_xi(s):
        scalar.append(s)
        return log_xi(s)

    def counted_em(*args):
        em.append(np.size(args[1]))
        return zeta_em(*args)

    monkeypatch.setattr(rzlab.zeros, "log_xi_array", counted)
    monkeypatch.setattr(rzlab.zeros, "log_xi_line", counted_line)
    monkeypatch.setattr(rzlab.zeta, "_log_xi", counted_batch)
    monkeypatch.setattr(rzlab.zeta, "log_xi", scalar_log_xi)
    monkeypatch.setattr(rzlab.zeta, "zeta_em", counted_em)
    assert len(find_zeros(0.0, 250.0)[0]) == 108
    assert calls == [("line", (835,)), ("batch", 835, True),
                     ("line", (108, 7)), ("batch", 7 * 108, True),
                     ("line", (108, 3)), ("batch", 3 * 108, True)]
    assert len(em) == 12 and sum(em) == 835 + 10 * 108
    # a grid or round that fits one zeta_em chunk is one plain batch: 35
    # points at n = 48 are, and so are the rounds' 28 and 12; of 135,
    # 168 and 72 points at n up to 88 (93 fit) only the 72 are, and the
    # others take the line's sums, the last grid point at T_MAX
    del calls[:]
    assert len(find_zeros(100.0, 110.0)[0]) == 4
    assert calls == [("line", (35,)), ("batch", 35, False),
                     ("line", (4, 7)), ("batch", 28, False),
                     ("line", (4, 3)), ("batch", 12, False)]
    del calls[:]
    assert len(find_zeros(220.0, T_MAX)[0]) == 24
    assert calls == [("line", (135,)), ("batch", 135, True),
                     ("line", (24, 7)), ("batch", 168, True),
                     ("line", (24, 3)), ("batch", 72, False)]
    assert scalar == []


def test_step_splits_the_closest_zeros_and_a_catalog_takes_two_rounds(
        table, monkeypatch):
    # STEP stays below half the smallest gap between zeros below T_MAX
    # (0.716, between t_91 and t_92), so no grid interval holds two of
    # them; after the scan's one line, every bracket of the full catalog
    # closes in one spread round and one certifying round, one call each
    assert STEP < 0.5 * np.diff(table[table < T_MAX]).min()
    calls = []
    monkeypatch.setattr(rzlab.zeros, "log_xi_line",
                        lambda t: calls.append(np.shape(t))
                        or log_xi_line(t))
    assert len(find_zeros(0.0, T_MAX)[0]) == 114
    assert calls == [(868,), (114, 7), (114, 3)]


def _grid(lo, hi):
    """find_zeros' scan grid of the window."""
    n = math.ceil((hi - lo) / STEP)
    h = (hi - lo) / n
    return np.concatenate(([lo], lo + h + h * np.arange(n - 1), [hi]))


def test_line_signs_match_the_array_on_every_scan_grid():
    # the sign each grid point gives the scan, from the line and from
    # log_xi_array at the same points
    for lo, width in [(0.0, 250.0)] + list(_random_windows()):
        t = _grid(lo, lo + width)
        got = real_sign(log_xi_line(t).imag)
        want = real_sign(log_xi_array(0.5 + 1j * t).imag)
        assert np.array_equal(got, want), lo


def test_line_ends_are_the_arrays_at_every_zero(table, monkeypatch):
    # a scan grid's two ends read what log_xi_array reads there, bit for
    # bit, on one batch and on the line's sums: windows 1 and 40 wide on
    # each side of every table zero below T_MAX, 0..250 and 220..T_MAX
    summed, batch = set(), rzlab.zeta._log_xi
    monkeypatch.setattr(rzlab.zeta, "_log_xi", lambda w, total=None: (
        summed.add(total is not None) or batch(w, total)))
    windows = [(0.0, 250.0), (220.0, T_MAX)]
    for t_n in table[table < T_MAX]:
        for w in (1.0, 40.0):
            windows += [(max(t_n - w, 0.0), t_n), (t_n, min(t_n + w, T_MAX))]
    for lo, hi in windows:
        t = _grid(lo, hi)
        assert np.array_equal(log_xi_line(t)[[0, -1]],
                              log_xi_array(0.5 + 1j * t[[0, -1]])), (lo, hi)
    assert summed == {False, True}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.floats(0.0, T_MAX - 0.1), st.floats(0.1, 10.0))
def test_window_zeros_are_sign_changes_of_the_table(table, lo, width):
    hi = lo + width
    assume(hi <= T_MAX)
    t, _ = find_zeros(lo, hi)
    if t.size:
        lx = log_xi_array(0.5 + 1j * np.concatenate(
            (t - TOL, t + TOL)))
        below, above = np.split(real_sign(lx.imag), 2)
        assert np.all(below != above)
    # with both edges clear of every zero, the count is the table's
    assume(np.abs(table - lo).min() >= 1e-6)
    assume(np.abs(table - hi).min() >= 1e-6)
    assert len(t) == np.count_nonzero((table > lo) & (table < hi))
