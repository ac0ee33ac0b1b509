import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import rzlab
import rzlab.hadamard
import rzlab.quantum
import rzlab.scattering
import rzlab.zeros
from rzlab.cli import (EXIT_DOMAIN, EXIT_OK, EXIT_USAGE,
                       EXIT_VERIFICATION, build_parser, main)
from rzlab.errors import (BoundaryZeroError, BudgetExhaustedError,
                          VerificationError)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zeros_json_report(capsys):
    code, out, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "30",
                       "--deterministic")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["command"] == "zeros"
    assert report["results"]["count"] == 3
    assert report["results"]["cross_check"] == "consistent"
    assert "timestamp" not in report
    assert report["version"]
    assert rzlab.backend_name == "python"


def test_zeros_empty_window(capsys):
    code, out, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "10",
                       "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["zeros"] == []


def test_zeros_deterministic_byte_identical(capsys):
    _, out1, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "22",
                     "--deterministic")
    # a different mode in between: no state may leak through the parser
    run(capsys, "smatrix", "eval", "--re", "0.3", "--im", "5",
        "--format", "csv")
    _, out2, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "22",
                     "--deterministic")
    assert out1 == out2


@pytest.mark.parametrize("t_max", ["0.0005", "0.001"])
def test_zeros_window_at_the_real_axis(capsys, t_max):
    # the contour starts at t_min itself: xi is real and positive on the
    # real axis, so a window below 1e-3 is counted, not refused
    code, out, err = run(capsys, "zeros", "--t-min", "0", "--t-max", t_max,
                         "--deterministic")
    assert (code, err) == (EXIT_OK, "")
    results = json.loads(out)["results"]
    assert results["count"] == results["rectangle_count"] == 0
    assert results["cross_check"] == "consistent"


@pytest.mark.parametrize("t_min", ["23.015", "78.33", "89.19629023304175"])
def test_zeros_window_up_to_t_max(capsys, t_min):
    # the scan grid (23.015) or the contour's right side (78.33) would end
    # an ulp above T_MAX = 260 without their last point pinned
    code, out, err = run(capsys, "zeros", "--t-min", t_min, "--t-max", "260",
                         "--deterministic")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["results"]["cross_check"] == "consistent"


def test_timestamp_present_by_default(capsys):
    _, out, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "10")
    assert "timestamp" in json.loads(out)


def test_usage_errors(capsys):
    code, _, err = run(capsys, "zeros", "--t-min", "0")
    assert code == EXIT_USAGE
    assert "usage error" in err
    code, _, _ = run(capsys)
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "dispersion", "nonsense")
    assert code == EXIT_USAGE


def test_domain_error_exit(capsys):
    code, _, err = run(capsys, "zeros", "--t-min", "50", "--t-max", "10")
    assert code == EXIT_DOMAIN


BAD_INPUTS = [
    (("zeros", "--t-min", "0", "--t-max", "30", "--step", "0"), EXIT_DOMAIN),
    (("zeros", "--t-min", "0", "--t-max", "30", "--step", "-0.1"),
     EXIT_DOMAIN),
    (("zeros", "--t-min", "0", "--t-max", "30", "--tol", "-1"), EXIT_DOMAIN),
    (("smatrix", "scan", "--tau-max", "10", "--step", "0"), EXIT_DOMAIN),
    # float options are finite numbers
    (("quantum", "khuri", "--lambda", "nan"), EXIT_USAGE),
    (("smatrix", "eval", "--re", "nan"), EXIT_USAGE),
    (("smatrix", "eval", "--im", "-inf"), EXIT_USAGE),
    (("hadamard", "--at", "nan"), EXIT_USAGE),
    (("zeros", "--t-min", "nan", "--t-max", "10"), EXIT_USAGE),
    # a mode takes only the options it reads
    (("smatrix", "eval", "--num-zeros", "3"), EXIT_USAGE),
    (("quantum", "kmoment", "--lambda", "5"), EXIT_USAGE),
    # non-finite results and arithmetic failures are domain errors
    (("hadamard", "--at", "1e300"), EXIT_DOMAIN),
    (("hadamard", "--at", "1e300", "--format", "csv"), EXIT_DOMAIN),
    (("hadamard", "--at", "1e5"), EXIT_DOMAIN),
    (("quantum", "jost-verify", "--k", "0"), EXIT_DOMAIN),
    (("quantum", "jost-verify", "--k", "1e-300"), EXIT_DOMAIN),
    (("dispersion", "roundtrip", "--nodes", "0"), EXIT_DOMAIN),
    (("dispersion", "roundtrip", "--nodes", "2"), EXIT_DOMAIN),
    (("dispersion", "roundtrip", "--nodes", "3"), EXIT_DOMAIN),
    (("dispersion", "roundtrip", "--nodes", "4"), EXIT_DOMAIN),
    (("dispersion", "roundtrip", "--nodes", "5"), EXIT_DOMAIN),
    # scans check their size before they run
    (("smatrix", "scan", "--tau-max", "-5"), EXIT_DOMAIN),
    (("smatrix", "scan", "--tau-max", "131"), EXIT_DOMAIN),
    (("smatrix", "scan", "--step", "1e-9"), EXIT_DOMAIN),
    (("zeros", "--t-min", "0", "--t-max", "30", "--step", "1e-9"),
     EXIT_DOMAIN),
    # the round trip's grid is capped like the scans'
    (("dispersion", "roundtrip", "--nodes", "1000001"), EXIT_DOMAIN),
    (("dispersion", "roundtrip", "--nodes", "1000000000000"), EXIT_DOMAIN),
    # both zero catalogs need at least one zero
    (("smatrix", "correspondence", "--num-zeros", "-2"), EXIT_DOMAIN),
    (("smatrix", "correspondence", "--num-zeros", "0"), EXIT_DOMAIN),
    # divergent moments and catalogs beyond the window are domain errors
    (("quantum", "kmoment", "--nu", "1"), EXIT_DOMAIN),
    (("quantum", "khuri", "--lambda", "0.75"), EXIT_DOMAIN),
    (("smatrix", "correspondence", "--num-zeros", "115"), EXIT_DOMAIN),
    (("hadamard", "--num-zeros", "115"), EXIT_DOMAIN),
    (("smatrix", "correspondence", "--num-zeros", "200"), EXIT_DOMAIN),
    (("hadamard", "--num-zeros", "150"), EXIT_DOMAIN),
]


@pytest.mark.parametrize("argv,expected", BAD_INPUTS,
                         ids=["argv%d" % i for i in range(len(BAD_INPUTS))])
def test_bad_scan_inputs_rejected(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    prefix = "domain error" if expected == EXIT_DOMAIN else "usage error"
    assert prefix in err
    assert "Traceback" not in err


def test_edge_input_messages(capsys):
    _, _, err = run(capsys, "quantum", "jost-verify", "--k", "0")
    assert "k must be positive" in err
    _, _, err = run(capsys, "dispersion", "roundtrip", "--nodes", "5")
    assert "at least 6 grid nodes" in err
    _, _, err = run(capsys, "dispersion", "roundtrip", "--nodes", "1000001")
    assert "cap of 1000000 grid points" in err
    # a too-small k is refused before the ODE's y^2 can overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "quantum", "jost-verify", "--k", "1e-300")
    assert code == EXIT_DOMAIN
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err and err.startswith("domain error")


def test_scan_beyond_window_evaluates_nothing(monkeypatch, capsys):
    import rzlab.scattering

    def refuse(s):
        raise AssertionError("evaluated S at %r" % s)
    monkeypatch.setattr(rzlab.scattering, "s_matrix", refuse)
    monkeypatch.setattr(rzlab.scattering, "log_s_matrix", refuse)
    code, out, err = run(capsys, "smatrix", "scan", "--tau-max", "130.5",
                         "--step", "0.5")
    assert code == EXIT_DOMAIN and out == ""
    assert "T_MAX/2 = 130" in err


@pytest.mark.parametrize("mode", [("smatrix", "correspondence"),
                                  ("hadamard",)])
def test_num_zeros_checked_before_scan(monkeypatch, capsys, mode):
    import rzlab.zeros

    def refuse(*args):
        raise AssertionError("scanned for zeros")
    monkeypatch.setattr(rzlab.zeros, "find_zeros", refuse)
    for n in ("0", "-2"):
        code, out, err = run(capsys, *mode, "--num-zeros", n)
        assert code == EXIT_DOMAIN and out == ""
        assert "--num-zeros must be at least 1" in err


def test_failed_correspondence_row_is_null(monkeypatch, capsys):
    import rzlab.scattering

    def fail(t_n, verify=True):
        raise VerificationError("forced failure at t = %g" % t_n)
    monkeypatch.setattr(rzlab.scattering, "zero_to_jost_zero", fail)
    code, out, _ = run(capsys, "smatrix", "correspondence", "--num-zeros",
                       "2", "--deterministic")
    assert code == EXIT_VERIFICATION
    report = json.loads(out)
    assert report["results"]["passes"] == 0
    assert [r["jost_magnitude"] for r in report["results"]["per_zero"]] \
        == [None, None]
    assert len(report["diagnostics"]) == 2
    code, out, _ = run(capsys, "smatrix", "correspondence", "--num-zeros",
                       "1", "--format", "csv", "--deterministic")
    assert code == EXIT_VERIFICATION
    header, row = out.strip().splitlines()
    assert row.split(",")[header.split(",").index("jost_magnitude")] == ""


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("module,name,replacement,argv", [
    ("zeros", "count_zeros_rectangle", lambda rect: 99,
     ["zeros", "--t-min", "0", "--t-max", "15"]),
    ("scattering", "zero_to_jost_zero", _raise(VerificationError("forced")),
     ["smatrix", "correspondence", "--num-zeros", "1"]),
    ("hadamard", "convergence_profile",
     lambda at, checkpoints, catalog, params: [1.0] * len(checkpoints),
     ["hadamard", "--num-zeros", "25"]),
])
def test_cross_check_verdict_exit_3_writes_a_report(
        monkeypatch, capsys, module, name, replacement, argv):
    monkeypatch.setattr(getattr(rzlab, module), name, replacement)
    code, out, err = run(capsys, *argv, "--deterministic")
    assert code == EXIT_VERIFICATION and err == ""
    assert _strict_json(out)["diagnostics"]


@pytest.mark.parametrize("module,name,exc,argv", [
    ("zeros", "count_zeros_rectangle", BoundaryZeroError("forced"),
     ["zeros", "--t-min", "0", "--t-max", "15"]),
    ("quantum", "k_moment_integral", BudgetExhaustedError("forced"),
     ["quantum", "kmoment"]),
    ("scattering", "s_matrix", VerificationError("forced"),
     ["smatrix", "eval"]),
])
def test_raised_exit_3_writes_only_its_stderr_line(
        monkeypatch, capsys, module, name, exc, argv):
    monkeypatch.setattr(getattr(rzlab, module), name, _raise(exc))
    code, out, err = run(capsys, *argv, "--deterministic")
    assert code == EXIT_VERIFICATION and out == ""
    assert err == "verification failure: forced\n"


def test_parser_built_once(capsys):
    run(capsys, "smatrix", "eval", "--deterministic")
    run(capsys, "quantum", "khuri", "--lambda", "-5", "--deterministic")
    assert build_parser() is build_parser()
    assert build_parser.cache_info().misses == 1


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = ("import sys, rzlab.cli, rzlab.quantum, rzlab.dispersion; "
            "print('scipy.integrate' in sys.modules)")
    # the child imports the same rzlab as this process
    src = os.path.dirname(os.path.dirname(rzlab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_smatrix_eval_identity(capsys):
    code, out, _ = run(capsys, "smatrix", "eval", "--re", "0", "--im", "0",
                       "--deterministic")
    assert code == EXIT_OK
    v = json.loads(out)["results"]["value"]
    assert abs(v["re"] - 1.0) < 1e-12 and abs(v["im"]) < 1e-12


def test_smatrix_eval_at_pole_reports_no_log_modulus(capsys):
    # the float nearest -1/4 + i t_1/2: xi(-2s) is rounding noise there
    code, out, _ = run(capsys, "smatrix", "eval", "--re", "-0.25",
                       "--im", "7.067362570867347", "--deterministic")
    assert code == EXIT_OK
    results = json.loads(out, parse_constant=pytest.fail)["results"]
    assert results["pole"] is True
    assert results["value"] is None
    assert results["log_modulus"] is None


def test_smatrix_eval_at_trivial_zero(capsys):
    # S(-1) = xi(-2)/xi(2) = xi(3)/xi(2) = 9 zeta(3) / pi^2, with the
    # trivial zero of zeta at -2 cancelled by the pole of Gamma(-1)
    code, out, _ = run(capsys, "smatrix", "eval", "--re", "-1", "--im", "0",
                       "--deterministic")
    assert code == EXIT_OK
    results = json.loads(out, parse_constant=pytest.fail)["results"]
    assert results["pole"] is False and results["zero"] is False
    want = 9.0 * float(mpmath.zeta(3)) / math.pi ** 2
    assert abs(results["value"]["re"] - want) < 1e-13 * want
    assert abs(results["value"]["im"]) < 1e-13
    assert math.isfinite(results["log_modulus"])


def test_smatrix_scan_unitarity(capsys):
    code, out, _ = run(capsys, "smatrix", "scan", "--tau-max", "10",
                       "--step", "0.5", "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["max_deviation"] < 1e-8


def test_smatrix_scan_to_window_edge(capsys):
    # 261 points up to tau = 130, where S(i tau) needs xi at +-260i
    code, out, _ = run(capsys, "smatrix", "scan", "--tau-max", "130",
                       "--step", "0.5", "--deterministic")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert len(results["series"]) == 261
    assert results["series"][-1]["tau"] == 130.0
    assert results["max_deviation"] < 1e-8


def test_smatrix_correspondence(capsys):
    code, out, _ = run(capsys, "smatrix", "correspondence",
                       "--num-zeros", "3", "--deterministic")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["passes"] == 3


def test_smatrix_correspondence_evaluates_s_once_per_zero(monkeypatch,
                                                          capsys):
    # the point check inside zero_to_jost_zero is the only scalar S at p
    import rzlab.scattering
    calls = []

    def counted(s):
        calls.append(s)
        return real_s_matrix(s)

    real_s_matrix = rzlab.scattering.s_matrix
    monkeypatch.setattr(rzlab.scattering, "s_matrix", counted)
    code, out, _ = run(capsys, "smatrix", "correspondence",
                       "--num-zeros", "2", "--deterministic")
    assert code == EXIT_OK
    rows = json.loads(out)["results"]["per_zero"]
    assert calls == [complex(r["jost_zero_re"], r["jost_zero_im"])
                     for r in rows]
    assert all(r["jost_magnitude"] < 1e-6 for r in rows)


def test_correspondence_magnitude_has_two_digits(capsys):
    # |F+| at the float nearest a zero is rounding noise: only its first
    # two significant digits are reported
    code, out, _ = run(capsys, "smatrix", "correspondence",
                       "--num-zeros", "5", "--deterministic")
    assert code == EXIT_OK
    mags = [r["jost_magnitude"] for r in json.loads(out)["results"]["per_zero"]]
    assert len(mags) == 5
    assert all(v == float("%.2g" % v) for v in mags)


def test_quantum_kmoment_flags_discrepancy(capsys):
    code, out, _ = run(capsys, "quantum", "kmoment", "--nu", "0.5",
                       "--deterministic")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert abs(results["integral"]["re"] - 0.7853981633974483) < 1e-8
    assert abs(results["fitted_coefficient"] - 0.5) < 1e-6
    assert results["printed_coefficient"] == 0.125
    assert results["coefficient_flag"] == "discrepancy"


def test_quantum_khuri_real_coupling(capsys):
    code, out, _ = run(capsys, "quantum", "khuri", "--lambda", "-5",
                       "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["residual"] == 0.0


def test_quantum_khuri_at_huge_imaginary_order_is_a_range_error(capsys):
    # nu = 1e-9 + 5.8e7 i: each K_nu sum would take some 5e8 nodes
    code, out, err = run(capsys, "quantum", "khuri",
                         "--lambda=-3363850199106957.0",
                         "--im-lambda=2.355446822143624")
    assert code == EXIT_DOMAIN and out == ""
    assert "more than 1000000 nodes" in err


@pytest.mark.parametrize("argv,flagged", [
    # rho = 0.7 + 14.1347i, so nu = rho - 1/2 ~ 0.2 + 14.13i
    (("--lambda", "-200", "--im-lambda", "5.654"), True),
    (("--lambda", "0.3", "--im-lambda", "0.5"), False),
    (("--lambda", "-200"), False),
])
def test_quantum_khuri_flags_absolute_accuracy(capsys, argv, flagged):
    code, out, _ = run(capsys, "quantum", "khuri", *argv, "--deterministic")
    assert code == EXIT_OK
    diagnostics = json.loads(out)["diagnostics"]
    if flagged:
        assert len(diagnostics) == 1
        assert "|Im nu| = 14.13 >= 10" in diagnostics[0]
        assert "absolute" in diagnostics[0]
    else:
        assert diagnostics == []


def _cli_subprocess(*argv):
    src = os.path.dirname(os.path.dirname(rzlab.__file__))
    out = subprocess.run([sys.executable, "-m", "rzlab.cli"] + list(argv)
                         + ["--deterministic"], capture_output=True,
                         text=True, timeout=10.0,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == EXIT_OK, out.stderr
    return json.loads(out.stdout)["results"]


def test_moment_near_re_nu_one_meets_deadline():
    # Re nu close to 1, where y K_nu(y)^2 is nearly singular at y = 0
    lam = complex(0.3, 1.2)
    nu = cmath.sqrt(lam + 0.25)
    assert 0.96 < nu.real < 0.98
    got = _cli_subprocess("quantum", "khuri", "--lambda", "0.3",
                          "--im-lambda", "1.2")["residual"]
    want = abs(lam.imag) * abs(nu / cmath.sin(math.pi * nu))
    assert abs(got - want) < 1e-12 * want
    got = _cli_subprocess("quantum", "kmoment", "--nu", "0.97")["integral"]
    want = 0.5 * math.pi * 0.97 / math.sin(math.pi * 0.97)
    assert abs(complex(got["re"], got["im"]) - want) < 1e-12 * want


def test_quantum_jost_verify(capsys):
    code, out, _ = run(capsys, "quantum", "jost-verify", "--lambda", "2",
                       "--k", "1", "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["max_rel_error"] < 1e-6


def test_quantum_jost_verify_at_large_argument(capsys):
    # the samples reach k y = 25, near the top of hankel1's range
    code, out, _ = run(capsys, "quantum", "jost-verify",
                       "--lambda", "3.6115465327657468",
                       "--k", "2.957343936945446", "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["max_rel_error"] < 1e-6


@pytest.mark.parametrize("k", ["1e-4", "1e-10", "1e-100"])
def test_quantum_jost_verify_at_tiny_k(capsys, k):
    # y_start = 25/k: the last output interval spans from about y_start/199
    # down to 1, and the graded step rule keeps it a few thousand steps
    start = time.perf_counter()
    code, out, _ = run(capsys, "quantum", "jost-verify", "--lambda", "2",
                       "--k", k, "--deterministic")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert json.loads(out)["results"]["max_rel_error"] < 1e-8


def _strict_json(text):
    def refuse(name):
        raise ValueError("non-finite number %s in the report" % name)
    return json.loads(text, parse_constant=refuse)


# any finite float, the extremes +-1e300, the largest floats (whose double
# overflows), and values within 1e-3 of 0
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([1e300, -1e300, 9e307,
                                     1.7976931348623157e308,
                                     -1.7976931348623157e308]),
                    st.floats(-1e-3, 1e-3))


def _near(lo, hi):
    """Any finite float, or one of the range where a mode does its work."""
    return st.one_of(_FINITE, st.floats(lo, hi))


def _fuzz(*argv):
    """main(argv) as a fuzz case: within 2 s, a documented exit code, no
    warning, nothing on stdout for exits 2 and 64 and strict JSON for
    exit 0.  Returns the exit code and stdout."""
    argv = list(argv) + ["--deterministic"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert time.perf_counter() - start < 2.0, argv
    assert [str(w.message) for w in caught] == [], argv
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_VERIFICATION, EXIT_USAGE), \
        (argv, err.getvalue())
    if code in (EXIT_DOMAIN, EXIT_USAGE):
        assert out.getvalue() == "", argv
    if code == EXIT_OK:
        assert _strict_json(out.getvalue())["results"], argv
    return code, out.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(st.floats(-1e300, 1e300), st.floats(-12.0, 12.0)),
       st.one_of(st.floats(1e-300, 1e300),
                 st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)))
def test_jost_verify_fuzz(lam, k):
    code, out = _fuzz("quantum", "jost-verify", "--lambda=%r" % lam,
                      "--k=%r" % k)
    assert code in (EXIT_OK, EXIT_DOMAIN), (lam, k)
    if code == EXIT_OK:
        assert _strict_json(out)["results"]["samples"]


@st.composite
def _windows(draw):
    """Any two finite ends, or an end and a width up to 30 above it."""
    t_min = draw(_near(-5.0, 270.0))
    if draw(st.booleans()):
        return t_min, draw(_near(-5.0, 270.0))
    return t_min, t_min + draw(st.floats(0.0, 30.0))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_windows(), st.floats(0.05, 0.5), st.floats(5e-324, 1e300))
def test_zeros_fuzz(window, step, tol):
    t_min, t_max = window
    argv = ["zeros", "--t-min=%r" % t_min, "--t-max=%r" % t_max,
            "--step=%r" % step, "--tol=%r" % tol]
    code, out = _fuzz(*argv)
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_VERIFICATION), argv
    if code != EXIT_DOMAIN:
        consistent = _strict_json(out)["results"]["cross_check"]
        assert (consistent == "consistent") == (code == EXIT_OK), argv


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_near(-12.0, 12.0), _near(-140.0, 140.0))
def test_smatrix_eval_fuzz(re, im):
    _fuzz("smatrix", "eval", "--re=%r" % re, "--im=%r" % im)


@st.composite
def _scans(draw):
    """(tau_max, step); a step below 0.01 comes only with a tau_max that
    the CLI rejects (negative, or more than 10^6 points), so that no
    accepted scan exceeds 13,001 points."""
    step = draw(_near(0.01, 1.0))
    if 0.0 < step < 0.01:
        return draw(st.one_of(st.floats(-1e300, 0.0, exclude_max=True),
                              st.floats(1e6 * step, 1e300))), step
    return draw(_near(0.0, 140.0)), step


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_scans())
def test_smatrix_scan_fuzz(scan):
    tau_max, step = scan
    _fuzz("smatrix", "scan", "--tau-max=%r" % tau_max, "--step=%r" % step)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(-5, 130))
def test_smatrix_correspondence_fuzz(num_zeros):
    _fuzz("smatrix", "correspondence", "--num-zeros=%d" % num_zeros)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_near(-1.5, 1.5))
def test_kmoment_fuzz(nu):
    _fuzz("quantum", "kmoment", "--nu=%r" % nu)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_near(-5.0, 5.0), _near(-3.0, 3.0))
def test_khuri_fuzz(lam, im_lam):
    _fuzz("quantum", "khuri", "--lambda=%r" % lam, "--im-lambda=%r" % im_lam)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(-5, 130), _near(-10.0, 10.0), _near(-260.0, 260.0))
def test_hadamard_fuzz(num_zeros, at_re, at_im):
    _fuzz("hadamard", "--num-zeros=%d" % num_zeros, "--at=%r" % at_re,
          "--at-im=%r" % at_im)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(["unit", "rational", "bound-state"]),
       _near(-100.0, 100.0),
       st.one_of(st.integers(max_value=20001), st.integers(6, 20001),
                 st.integers(min_value=10 ** 6 + 1)))
def test_dispersion_roundtrip_fuzz(model, half_width, nodes):
    _fuzz("dispersion", "roundtrip", "--model=%s" % model,
          "--half-width=%r" % half_width, "--nodes=%d" % nodes)


def test_dispersion_roundtrip_at_a_huge_half_width_warns_nothing():
    # per-node spacings of 1e296 once overflowed inside np.gradient
    code, _ = _fuzz("dispersion", "roundtrip", "--model", "unit",
                    "--half-width", "6.17e299", "--nodes", "12050")
    assert code == EXIT_OK


def test_zeros_consistent_where_a_window_edge_is_a_computed_zero():
    # the scan's grid and the contour's mirror end read one computed xi at
    # the edge, through one sign rule: both count the edge zero or neither
    from rzlab.zeros import find_zeros
    from rzlab.zeta import T_MAX

    ts = [z.ordinate for z in find_zeros(0.0, T_MAX)]
    windows = ([(t, t + 1.0) for t in ts if t + 1.0 <= T_MAX]
               + [(t - 1.0, t) for t in ts]
               + list(zip(ts, ts[1:])) + list(zip(ts, ts[2:])))
    assert len(windows) == 227 + 225
    failed = []
    for t_min, t_max in windows:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["zeros", "--t-min=%r" % t_min, "--t-max=%r" % t_max,
                         "--deterministic"])
        if code != EXIT_OK or _strict_json(
                out.getvalue())["results"]["cross_check"] != "consistent":
            failed.append((t_min, t_max, code))
    assert failed == []


def test_readme_commands_import_no_scipy():
    # numpy is the only runtime dependency: the README's nine example
    # commands, run in one interpreter, never load any scipy module
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        commands = [line.split()[1:] for line in fh
                    if line.startswith("rzlab ")]
    assert len(commands) == 9
    code = ("import json, os, sys\n"
            "from rzlab.cli import main\n"
            "codes = [main(argv + ['--deterministic', '--out', os.devnull])\n"
            "         for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                if m.split('.')[0] == 'scipy')]))")
    src = os.path.dirname(os.path.dirname(rzlab.__file__))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    codes, scipy_modules = json.loads(out.stdout)
    assert codes == [EXIT_OK] * 9
    assert scipy_modules == []


def test_hadamard_profile(capsys):
    code, out, _ = run(capsys, "hadamard", "--num-zeros", "20", "--at", "2",
                       "--deterministic")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["decreasing"] is True


def test_hadamard_exact_product_is_not_a_failure(capsys):
    # at 0 the truncated product is exact: every residual is the same
    # rounding of xi(0) = 1/2, which the verdict must not read as rising
    code, out, _ = run(capsys, "hadamard", "--num-zeros", "60", "--at", "0",
                       "--deterministic")
    assert code == EXIT_OK
    rows = json.loads(out)["results"]["profile"]
    assert len(rows) == 4
    assert max(r["residual"] for r in rows) <= rzlab.hadamard.RESIDUAL_FLOOR


@pytest.mark.parametrize("scale,expected", [
    ((1.0, 1.0), EXIT_OK), ((0.5, 2.0), EXIT_VERIFICATION),
    ((2.0, 2.0), EXIT_VERIFICATION), ((2.0, 3.0), EXIT_VERIFICATION)])
def test_hadamard_profile_rising_above_the_floor_exits_3(
        monkeypatch, capsys, scale, expected):
    floor = rzlab.hadamard.RESIDUAL_FLOOR
    monkeypatch.setattr(rzlab.hadamard, "convergence_profile",
                        lambda at, checkpoints, catalog, params:
                        [floor * f for f in scale])
    code, out, _ = run(capsys, "hadamard", "--num-zeros", "25",
                       "--deterministic")
    assert code == expected
    assert json.loads(out)["results"]["decreasing"] is (expected == EXIT_OK)


def test_dispersion_roundtrip_unit(capsys):
    code, out, _ = run(capsys, "dispersion", "roundtrip", "--model", "unit",
                       "--nodes", "401", "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["roundtrip_residual"] < 1e-12


def test_csv_projection(capsys):
    code, out, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "30",
                       "--format", "csv", "--deterministic")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["index", "ordinate", "residual"]
    assert len(lines) == 4


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "15",
                       "--out", str(path), "--deterministic")
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(path.read_text())["results"]["count"] == 1


# Each leaf mode with the parameters its report holds: its own options,
# defaults included, and none of the report options.
MODE_PARAMETERS = [
    (("zeros", "--t-min", "0", "--t-max", "15"),
     {"t_min": 0.0, "t_max": 15.0, "step": 0.1, "tol": 1e-10}),
    (("smatrix", "eval", "--re", "0.3"), {"re": 0.3, "im": 0.0}),
    (("smatrix", "scan", "--tau-max", "5"), {"tau_max": 5.0, "step": 0.1}),
    (("smatrix", "correspondence", "--num-zeros", "1"), {"num_zeros": 1}),
    (("quantum", "jost-verify"), {"lambda": 2.0, "k": 1.0}),
    (("quantum", "kmoment"), {"nu": 0.5}),
    (("quantum", "khuri", "--lambda", "-5"),
     {"lambda": -5.0, "im_lambda": 0.0}),
    (("hadamard", "--num-zeros", "10"),
     {"num_zeros": 10, "at_re": 2.0, "at_im": 0.0}),
    (("dispersion", "roundtrip", "--nodes", "401"),
     {"model": "unit", "half_width": 50.0, "nodes": 401}),
]


@pytest.mark.parametrize("argv,parameters", MODE_PARAMETERS)
def test_report_parameters_are_the_mode_options(capsys, argv, parameters):
    code, out, _ = run(capsys, *argv, "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["parameters"] == parameters


@pytest.mark.parametrize("argv", [argv for argv, _ in MODE_PARAMETERS])
def test_jobs_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--jobs", "3")
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ("smatrix", "eval", "--re", "8.9e307"),
    ("hadamard", "--num-zeros", "3", "--at", "1.7976931348623157e308"),
    ("dispersion", "roundtrip", "--half-width", "9e307", "--nodes", "11"),
])
def test_largest_floats_exit_2_without_a_warning(argv):
    # Re s beyond SIGMA_MAX, and a grid span 2 * half-width that
    # overflows, are refused before numpy meets an infinity
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    assert [str(w.message) for w in caught] == []
    assert (code, out.getvalue()) == (EXIT_DOMAIN, "")
    assert err.getvalue().startswith("domain error: ")
    assert err.getvalue().count("\n") == 1
