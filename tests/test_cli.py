import cmath
import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rzlab
import rzlab.hadamard
import rzlab.quantum
import rzlab.scattering
import rzlab.zeros
from rzlab.cli import (EXIT_DOMAIN, EXIT_OK, EXIT_USAGE,
                       EXIT_VERIFICATION, _default_jobs, main, mode_parsers)
from rzlab.errors import BoundaryZeroError, RangeError, VerificationError


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _readme_commands():
    """The argv of each `rzlab ...` line of the README."""
    with open(README) as fh:
        return [line.split()[1:] for line in fh if line.startswith("rzlab ")]


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


def test_zeros_index_counts_from_1_within_the_window(capsys):
    # the window (20, 30) holds t_2 and t_3, numbered 1 and 2
    code, out, _ = run(capsys, "zeros", "--t-min", "20", "--t-max", "30",
                       "--deterministic")
    assert code == EXIT_OK
    rows = json.loads(out)["results"]["zeros"]
    assert [r["index"] for r in rows] == [1, 2]
    assert abs(rows[0]["ordinate"] - 21.022039638771555) < 1e-9
    code, out, _ = run(capsys, "zeros", "--t-min", "20", "--t-max", "30",
                       "--format", "csv", "--deterministic")
    assert [line.split(",")[0] for line in out.splitlines()] \
        == ["index", "1", "2"]


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


@pytest.mark.parametrize("t_min,t_max", [
    ("25.01085758014569", "75.01085758014569"),
    ("25.01085758014569", "65.01085758014568"),
    ("92.49189927055849", "142.4918992705585"),
    ("182.20707848436646", "222.20707848436646"),
    ("229.33741330552536", "260.0")])
def test_zeros_window_from_a_zero(capsys, t_min, t_max):
    # t_min is a table zero: the scan's end point and the contour's
    # mirror end, taken in batches of other sizes, read one xi there
    code, out, err = run(capsys, "zeros", "--t-min", t_min, "--t-max", t_max,
                         "--deterministic")
    assert (code, err) == (EXIT_OK, "")
    results = json.loads(out)["results"]
    assert results["count"] == results["rectangle_count"]
    assert results["cross_check"] == "consistent"


@pytest.mark.parametrize("value", ["abc", "0", "3"])
def test_rzlab_reads_no_environment(monkeypatch, capsys, value):
    # RZLAB_JOBS is a header field of perfbench/run.py, read by no mode
    argv = ("zeros", "--t-min", "0", "--t-max", "30", "--deterministic")
    monkeypatch.delenv("RZLAB_JOBS", raising=False)
    unset = run(capsys, *argv)
    assert unset[0::2] == (EXIT_OK, "")
    monkeypatch.setenv("RZLAB_JOBS", value)
    assert _default_jobs() == 1
    assert run(capsys, *argv) == unset


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
    # the scan's step and tolerance are constants, not options
    (("zeros", "--t-min", "0", "--t-max", "30", "--step", "0.1"), EXIT_USAGE,
     "unrecognized arguments: --step 0.1"),
    (("zeros", "--t-min", "0", "--t-max", "30", "--step", "-0.1"),
     EXIT_USAGE, "unrecognized arguments: --step -0.1"),
    (("zeros", "--t-min", "0", "--t-max", "30", "--tol", "1e-10"),
     EXIT_USAGE, "unrecognized arguments: --tol 1e-10"),
    (("smatrix", "scan", "--tau-max", "10", "--step", "0"), EXIT_DOMAIN),
    # float options are finite numbers
    (("quantum", "khuri", "--lambda", "nan"), EXIT_USAGE),
    (("smatrix", "eval", "--re", "nan"), EXIT_USAGE),
    (("smatrix", "eval", "--im", "-inf"), EXIT_USAGE),
    (("hadamard", "--at", "nan"), EXIT_USAGE),
    (("zeros", "--t-min", "nan", "--t-max", "10"), EXIT_USAGE),
    (("zeros", "--t-min", "abc", "--t-max", "1"), EXIT_USAGE,
     "usage error: argument --t-min: not a finite number: 'abc'"),
    # a mode takes only the options it reads
    (("smatrix", "eval", "--num-zeros", "3"), EXIT_USAGE),
    (("quantum", "kmoment", "--lambda", "5"), EXIT_USAGE),
    # non-finite results and arithmetic failures are domain errors
    (("hadamard", "--at", "1e300"), EXIT_DOMAIN),
    (("hadamard", "--at", "1e300", "--format", "csv"), EXIT_DOMAIN),
    (("hadamard", "--at", "1e5"), EXIT_DOMAIN),
    (("quantum", "jost-verify", "--k", "0"), EXIT_DOMAIN),
    (("quantum", "jost-verify", "--k", "1e-300"), EXIT_DOMAIN),
    # the round trip's options are checked before a grid is built, each
    # by its name
    (("dispersion", "roundtrip", "--nodes", "-3"), EXIT_DOMAIN,
     "--nodes -3: the round trip needs at least 6 grid nodes"),
    (("dispersion", "roundtrip", "--nodes", "0"), EXIT_DOMAIN,
     "--nodes 0: the round trip needs at least 6 grid nodes"),
    (("dispersion", "roundtrip", "--nodes", "2"), EXIT_DOMAIN),
    (("dispersion", "roundtrip", "--nodes", "3"), EXIT_DOMAIN),
    (("dispersion", "roundtrip", "--nodes", "4"), EXIT_DOMAIN),
    (("dispersion", "roundtrip", "--nodes", "5"), EXIT_DOMAIN,
     "--nodes 5: the round trip needs at least 6 grid nodes"),
    (("dispersion", "roundtrip", "--half-width", "0"), EXIT_DOMAIN,
     "--half-width must be positive, got 0.0"),
    (("dispersion", "roundtrip", "--half-width", "-5"), EXIT_DOMAIN,
     "--half-width must be positive, got -5.0"),
    # the Hadamard residual is relative to xi, undefined at its zeros
    # (t_1 of either sign and t_100); no catalog is scanned for them
    (("hadamard", "--at", "0.5", "--at-im", "14.134725141734693"),
     EXIT_DOMAIN, "--at 0.5 --at-im 14.134725141734693 is a zero of xi"),
    (("hadamard", "--at", "0.5", "--at-im", "-14.134725141734693"),
     EXIT_DOMAIN, "--at 0.5 --at-im -14.134725141734693 is a zero of xi"),
    (("hadamard", "--num-zeros", "50", "--at", "0.5", "--at-im",
      "236.5242296658162"),
     EXIT_DOMAIN, "--at 0.5 --at-im 236.5242296658162 is a zero of xi"),
    # scans check their size before they run
    (("smatrix", "scan", "--tau-max", "-5"), EXIT_DOMAIN),
    (("smatrix", "scan", "--tau-max", "131"), EXIT_DOMAIN),
    (("smatrix", "scan", "--step", "1e-9"), EXIT_DOMAIN),
    (("zeros", "--t-min", "0", "--t-max", "30", "--step", "1e-9"),
     EXIT_USAGE, "unrecognized arguments: --step 1e-9"),
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
    # a negative number in exponent form is a value, so -1e999 is read
    # as the number -inf
    (("smatrix", "eval", "--re", "-1e999"), EXIT_USAGE),
    # jost-verify reads the tail at k y = 25, which is a plane wave only
    # for lambda in about [-10.05, 9.95], at every k
    (("quantum", "jost-verify", "--lambda", "1e300", "--k", "1"),
     EXIT_DOMAIN, "plane-wave regime"),
    (("quantum", "jost-verify", "--lambda", "-1e300", "--k", "1"),
     EXIT_DOMAIN, "plane-wave regime"),
    (("quantum", "jost-verify", "--lambda", "10.5", "--k", "1"),
     EXIT_DOMAIN, "plane-wave regime"),
    (("quantum", "jost-verify", "--lambda", "-10.5", "--k", "1"),
     EXIT_DOMAIN, "plane-wave regime"),
    # S(s) takes xi at 2s and 1 + 2s; the message names the s typed
    (("smatrix", "eval", "--re", "6"), EXIT_DOMAIN,
     "Re s = 6.0 outside supported window (|Re s| <= 5)"),
    (("smatrix", "eval", "--re", "-6"), EXIT_DOMAIN,
     "Re s = -6.0 outside supported window (|Re s| <= 5)"),
    (("smatrix", "eval", "--im", "131"), EXIT_DOMAIN,
     "|Im s| = 131.0 outside supported window (<= 130)"),
    # past about --at 433 xi overflows a float; the residual, taken in
    # log form, would read 1.0 at every checkpoint there, and the point
    # is refused before any catalog is scanned
    (("hadamard", "--num-zeros", "10", "--at", "500"), EXIT_DOMAIN,
     "xi overflows a float at --at 500.0 --at-im 0.0"),
]


@pytest.mark.parametrize("argv,expected,text",
                         [(row + ("",))[:3] for row in BAD_INPUTS],
                         ids=["argv%d" % i for i in range(len(BAD_INPUTS))])
def test_bad_scan_inputs_rejected(capsys, argv, expected, text):
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    prefix = "domain error" if expected == EXIT_DOMAIN else "usage error"
    assert err.startswith(prefix) and err.count("\n") == 1
    assert text in err
    assert "Traceback" not in err


def test_edge_input_messages(capsys):
    _, _, err = run(capsys, "quantum", "jost-verify", "--k", "0")
    assert "need 0 < k < 25, got 0.0" in err
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


@pytest.mark.parametrize("argv", [
    ("smatrix", "eval", "--re=-5.0000001"),
    ("smatrix", "eval", "--re", "0.25", "--im", "130.0000001"),
    ("hadamard", "--at", "0", "--at-im", "260.000001"),
    ("smatrix", "scan", "--tau-max", "130.00000001", "--step",
     "130.00000001"),
])
def test_window_message_value_differs_from_its_bound(capsys, argv):
    # a value just past a window's edge prints at round-trip precision,
    # not rounded onto the bound it exceeds
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    value, bound = re.fullmatch(
        r"domain error: .*? = (\S+?),? .* (\S+?)\)?\n", err).groups()
    assert float(value) != float(bound), err


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


@pytest.mark.parametrize("mode", [("smatrix", "correspondence"),
                                  ("hadamard",)])
def test_num_zeros_too_large_for_a_float_is_beyond_the_window(capsys, mode):
    code, out, err = run(capsys, *mode, "--num-zeros", "1" + "0" * 400)
    assert code == EXIT_DOMAIN and out == ""
    assert err == ("domain error: only 114 zeros available below the "
                   "evaluation ceiling t = 260\n")


def test_failed_correspondence_row_is_null(monkeypatch, capsys):
    import rzlab.scattering

    def fail(ordinates):
        return [VerificationError("forced failure at t = %g" % t_n)
                for t_n in ordinates]
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


def _fail_each(exc):
    """A batched check that fails every item with exc."""
    def fail(items):
        return [exc] * len(items)
    return fail


@pytest.mark.parametrize("module,name,replacement,argv", [
    ("zeros", "count_zeros_rectangle", lambda rect: 99,
     ["zeros", "--t-min", "0", "--t-max", "15"]),
    ("scattering", "zero_to_jost_zero",
     _fail_each(VerificationError("forced")),
     ["smatrix", "correspondence", "--num-zeros", "1"]),
    ("hadamard", "convergence_profile",
     lambda at, checkpoints, ordinates, log_xi_at: [1.0] * len(checkpoints),
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
    ("scattering", "s_matrix", VerificationError("forced"),
     ["smatrix", "eval"]),
])
def test_raised_exit_3_writes_only_its_stderr_line(
        monkeypatch, capsys, module, name, exc, argv):
    monkeypatch.setattr(getattr(rzlab, module), name, _raise(exc))
    code, out, err = run(capsys, *argv, "--deterministic")
    assert code == EXIT_VERIFICATION and out == ""
    assert err == "verification failure: forced\n"


def test_non_finite_result_exits_2_with_only_its_stderr_line(
        monkeypatch, capsys):
    # the report is serialized before it is written, so inf in a result
    # leaves stdout empty
    monkeypatch.setattr(rzlab.quantum, "khuri_reality_residual",
                        lambda lam: math.inf)
    code, out, err = run(capsys, "quantum", "khuri", "--deterministic")
    assert code == EXIT_DOMAIN and out == ""
    assert err == "domain error: the result holds a non-finite number\n"


def test_raised_range_error_exits_2_with_only_its_stderr_line(
        monkeypatch, capsys):
    # a trapezoid sum past the node cap raises RangeError: a domain error
    monkeypatch.setattr(rzlab.quantum, "k_moment_integral",
                        _raise(RangeError("forced")))
    code, out, err = run(capsys, "quantum", "kmoment", "--deterministic")
    assert code == EXIT_DOMAIN and out == ""
    assert err == "domain error: forced\n"


def test_parser_built_once(capsys):
    run(capsys, "smatrix", "eval", "--deterministic")
    run(capsys, "quantum", "khuri", "--lambda", "-5", "--deterministic")
    assert mode_parsers() is mode_parsers()
    assert mode_parsers.cache_info().misses == 1


@pytest.mark.parametrize("argv", [(), ("smatrix",), ("quantum",),
                                  ("dispersion",), ("frobnicate",),
                                  ("smatrix", "frobnicate")])
def test_missing_or_unknown_mode_lists_the_modes(capsys, argv):
    # a group word alone names no mode; the one stderr line lists them all
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    listed = err.rstrip("\n").split("; the modes are: ")[1].split(", ")
    assert listed == list(mode_parsers()) and len(listed) == 9


@pytest.mark.parametrize("argv", [
    ("zeros", "eval", "--t-min", "0", "--t-max", "1"),
    ("hadamard", "eval"),
])
def test_word_after_a_one_word_mode_is_an_unrecognized_argument(capsys,
                                                                argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "usage error: unrecognized arguments: eval\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help_lists_the_modes(capsys, flag):
    code, out, err = run(capsys, flag)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1:] == ["modes:"] + [
        "  " + mode for mode in mode_parsers()]


@pytest.mark.parametrize("mode", list(mode_parsers()))
def test_mode_help_returns_0(capsys, mode):
    # in process: main returns, as for the top-level -h, and the help is
    # the mode parser's own text
    code, out, err = run(capsys, *mode.split(), "-h")
    assert (code, err) == (EXIT_OK, "")
    assert out == mode_parsers()[mode].format_help()


def test_readme_mode_table_matches_the_parsers():
    # each row of the README's "Command line" table names a mode and the
    # options it reads, beyond -h and the report options
    with open(README) as fh:
        section = fh.read().split("\n## Command line\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([a-z -]+)` \| (.*) \|$", section, re.M)
    assert [mode for mode, _ in rows] == list(mode_parsers())
    for mode, options in rows:
        usage = mode_parsers()[mode].format_usage()
        assert set(re.findall(r"`(--[a-z-]+)", options)) == set(
            re.findall(r"--[a-z][a-z-]*", usage)) - {
                "--format", "--out", "--deterministic"}, mode


@pytest.mark.parametrize("argv,name,value", [
    (("smatrix", "eval", "--re", "-1e-5"), "re", -1e-5),
    (("smatrix", "eval", "--im", "-2e1"), "im", -20.0),
    (("hadamard", "--num-zeros", "3", "--at", "-1E-3"), "at_re", -1e-3),
    (("quantum", "khuri", "--lambda", "-2.5e3", "--im-lambda", "1"),
     "lambda", -2500.0),
])
def test_negative_value_in_exponent_form_is_a_number(capsys, argv, name,
                                                     value):
    # as a separate token too, not only as --re=-1e-5
    code, out, err = run(capsys, *argv, "--deterministic")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["parameters"][name] == value


@pytest.mark.parametrize("argv", [
    ("--im", "-inf"), ("--im=-inf",), ("--im", "-INF"),
    ("--im", "-Infinity"), ("--im", "-nan"), ("--im", "-NaN"),
])
def test_negative_non_finite_word_is_read_as_a_value(capsys, argv):
    # as a separate token it reaches the finite-number check, which names
    # it, rather than being taken for an unknown option
    code, out, err = run(capsys, "smatrix", "eval", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "usage error: argument --im: not a finite number: %r\n" % (
        argv[-1].split("=")[-1])


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


def test_smatrix_scan_deviation_is_not_exactly_zero(capsys):
    # xi(2 i tau) against xi(1 + 2 i tau), two independent sums: the
    # README scan reads their rounding, not the exact 0 that xi at the
    # conjugate points 2 i tau and -2 i tau would give
    argv, = [c for c in _readme_commands() if c[:2] == ["smatrix", "scan"]]
    code, out, _ = run(capsys, *argv, "--deterministic")
    assert code == EXIT_OK
    assert 0.0 < json.loads(out)["results"]["max_deviation"] < 1e-12


def test_smatrix_correspondence(capsys):
    code, out, _ = run(capsys, "smatrix", "correspondence",
                       "--num-zeros", "3", "--deterministic")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["passes"] == 3
    # the catalog starts at t_1, so a row's index is n
    assert [r["index"] for r in report["results"]["per_zero"]] == [1, 2, 3]


def test_smatrix_correspondence_evaluates_s_once_per_zero(monkeypatch,
                                                          capsys):
    # S at every predicted F+ zero p comes from one log_xi_array call on
    # all 2p and 1 + 2p: no scalar S or log xi
    import rzlab.scattering
    calls = []

    def counted(z):
        calls.append(np.array(z))
        return real_log_xi_array(z)

    real_log_xi_array = rzlab.scattering.log_xi_array
    monkeypatch.setattr(rzlab.scattering, "log_xi_array", counted)
    monkeypatch.setattr(rzlab.scattering, "s_matrix", pytest.fail)
    monkeypatch.setattr(rzlab.scattering, "log_xi", pytest.fail)
    code, out, _ = run(capsys, "smatrix", "correspondence",
                       "--num-zeros", "2", "--deterministic")
    assert code == EXIT_OK
    rows = json.loads(out)["results"]["per_zero"]
    p = np.array([complex(r["jost_zero_re"], r["jost_zero_im"])
                  for r in rows])
    assert np.array_equal(calls[0], np.stack((2.0 * p, 1.0 + 2.0 * p)))
    assert all(r["jost_magnitude"] < 1e-6 for r in rows)


@pytest.mark.parametrize("count", (0, 2))
def test_smatrix_correspondence_box_that_does_not_wind_once_fails(
        monkeypatch, capsys, count):
    # every point passes its |F+| check, and every box winds 0 or 2 times
    import rzlab.scattering
    monkeypatch.setattr(rzlab.scattering, "winding_number",
                        lambda g, rects: [count] * len(rects))
    code, out, _ = run(capsys, "smatrix", "correspondence",
                       "--num-zeros", "2", "--deterministic")
    assert code == EXIT_VERIFICATION
    report = json.loads(out)
    rows = report["results"]["per_zero"]
    assert [(r["winding_ok"], r["jost_magnitude"]) for r in rows] \
        == [(False, None)] * 2
    assert report["results"]["passes"] == 0
    assert report["diagnostics"] == [
        "winding of F+ around %s is %d, expected 1"
        % (complex(r["jost_zero_re"], r["jost_zero_im"]), count)
        for r in rows]


def test_correspondence_checks_every_box_in_one_batch(monkeypatch, capsys):
    # one log_s_matrix call for all the boxes, plus one per refinement
    # round: as many for 12 zeros as for 1
    import rzlab.scattering
    calls = []

    def counted(s):
        calls.append(len(s))
        return real_log_s_matrix(s)

    real_log_s_matrix = rzlab.scattering.log_s_matrix
    monkeypatch.setattr(rzlab.scattering, "log_s_matrix", counted)
    made = []
    for n in ("1", "12"):
        del calls[:]
        code, out, _ = run(capsys, "smatrix", "correspondence",
                           "--num-zeros", n, "--deterministic")
        assert code == EXIT_OK
        assert json.loads(out)["results"]["passes"] == int(n)
        made.append(len(calls))
    assert made[0] == made[1]


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


def test_kmoment_fits_the_coefficient_once_per_process(monkeypatch, capsys):
    moment = rzlab.quantum.k_moment_integral
    calls = []

    def counted(nu, *args, **kwargs):
        calls.append(nu)
        return moment(nu, *args, **kwargs)
    monkeypatch.setattr(rzlab.quantum, "k_moment_integral", counted)
    rzlab.quantum.fit_moment_coefficient.cache_clear()
    for nu in ("0.3", "0.7"):
        code, _, _ = run(capsys, "quantum", "kmoment", "--nu", nu,
                         "--deterministic")
        assert code == EXIT_OK
    # the two requests' moments and one fit, at nu = 1/2
    assert sorted(calls) == [0.3, 0.5, 0.7]
    assert rzlab.quantum.fit_moment_coefficient.cache_info().misses == 1


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


def test_quantum_jost_verify_just_below_k_25(capsys):
    # the ODE starts at y = 25/k = 1.004, just above the lowest sample y = 1
    code, out, _ = run(capsys, "quantum", "jost-verify", "--k", "24.9",
                       "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["samples"]


@pytest.mark.parametrize("k", ["25", "1e6", "1e300"])
def test_quantum_jost_verify_k_of_25_or_more_is_a_domain_error(capsys, k):
    code, out, err = run(capsys, "quantum", "jost-verify", "--k", k)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == "domain error: need 0 < k < 25, got %r\n" % float(k)


@pytest.mark.parametrize("k", ["1e-4", "1e-10", "1e-100"])
def test_quantum_jost_verify_at_tiny_k(capsys, k):
    # the ODE starts at y = 25/k: the last output interval spans from about
    # (25/k)/199 down to 1, and the graded step rule keeps it a few
    # thousand steps
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
@given(st.floats(-12.0, 12.0),
       st.floats(-150.0, math.log10(25.0), exclude_max=True)
       .map(lambda e: 10.0 ** e))
def test_jost_verify_fuzz(lam, k):
    # k is log-uniform in (1e-150, 25), inside the k check, and lambda
    # lies in [-12, 12], around the plane-wave check's [-10.05, 9.95], so
    # that the draws reach the ODE; the rejected k >= 25, k below about
    # 1.9e-153 and lambda beyond the check have rows of their own.
    # Separate tokens: a negative value such as -1e+300 is a number
    code, out = _fuzz("quantum", "jost-verify", "--lambda", repr(lam),
                      "--k", repr(k))
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
@given(_windows())
def test_zeros_fuzz(window):
    t_min, t_max = window
    argv = ["zeros", "--t-min=%r" % t_min, "--t-max=%r" % t_max]
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


def test_zeros_count_evaluates_at_most_600_points(monkeypatch, capsys):
    # the strip count of 0..250 samples Re s = 3 at SAMPLES_PER_UNIT, in
    # one call and no refinement round, after the scan's own calls
    from rzlab.numerics import ContourRectangle

    count_zeros_rectangle = rzlab.zeros.count_zeros_rectangle
    log_xi_array = rzlab.zeros.log_xi_array
    sizes, counts = [], []

    def counted_count(rect):
        counts.append((rect, len(sizes)))
        return count_zeros_rectangle(rect)

    def counted_log_xi(z):
        sizes.append(len(z))
        return log_xi_array(z)

    monkeypatch.setattr(rzlab.zeros, "count_zeros_rectangle", counted_count)
    monkeypatch.setattr(rzlab.zeros, "log_xi_array", counted_log_xi)
    code, out, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "250",
                       "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["rectangle_count"] == 108
    (rect, first), = counts
    assert rect == ContourRectangle(-2.0, 3.0, 0.0, 250.0)
    assert len(sizes) == first + 1 and sizes[first] <= 600


def test_first_zeros_scans_once_for_every_catalog(monkeypatch):
    # the window solves theta(T)/pi + 1 = n + 1.5, capped at T_MAX: one
    # scan for every catalog, and the ordinates of the benchmark's table
    from rzlab.cli import _first_zeros

    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "perfbench", "zeta_zeros.json")) as fh:
        table = [float(t) for t in json.load(fh)]
    find_zeros = rzlab.zeros.find_zeros
    scans = []

    def counted(*args, **kwargs):
        scans.append(args)
        return find_zeros(*args, **kwargs)

    monkeypatch.setattr(rzlab.zeros, "find_zeros", counted)
    for n in range(1, 115):
        del scans[:]
        ordinates = _first_zeros(n)
        assert len(scans) == 1, n
        assert len(ordinates) == n
        assert all(type(x) is float for x in ordinates)
        assert max(abs(x - t)
                   for x, t in zip(ordinates, table)) <= 2.4e-11, n


def test_zeros_consistent_where_a_window_edge_is_a_computed_zero():
    # the scan's grid and the contour's mirror end read one computed xi at
    # the edge, through one sign rule: both count the edge zero or neither
    from rzlab.zeros import find_zeros
    from rzlab.zeta import T_MAX

    ts = find_zeros(0.0, T_MAX)[0].tolist()
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
    commands = _readme_commands()
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


# xi work of each README command: calls of the scalar log_xi, calls
# and points of log_xi_array and of log_xi_line, and calls of zeta_em.
# A change that moves a count updates this table and says why.
XI_LEDGER = {
    "zeros --t-min 0 --t-max 30": (0, 3, 109, 1, 101, 10),
    "smatrix eval --re 0 --im 0": (2, 0, 0, 0, 0, 2),
    "smatrix scan --tau-max 50 --step 0.1": (0, 1, 1002, 0, 0, 8),
    # no scalar log_xi: log xi at every 2p and 1 + 2p in one batch, the
    # pole flag's points in one more, and the catalog scan's line and
    # its two rounds
    "smatrix correspondence --num-zeros 10": (0, 5, 860, 1, 189, 27),
    "quantum kmoment --nu 0.5": (0, 0, 0, 0, 0, 0),
    "quantum jost-verify --lambda 2 --k 1": (0, 0, 0, 0, 0, 0),
    "quantum khuri --lambda -5": (0, 0, 0, 0, 0, 0),
    "hadamard --num-zeros 100 --at 2": (1, 2, 1010, 1, 800, 47),
    "dispersion roundtrip --model rational --half-width 50 --nodes 4001":
        (0, 0, 0, 0, 0, 0),
}


def test_readme_commands_xi_ledger(monkeypatch, capsys):
    # counted by wrapping each kernel at every module that binds it, so a
    # call through any import is seen; counts do not move with the host.
    # Every rzlab module is loaded first, so none binds a wrapper that
    # would outlive the test
    import rzlab.dispersion
    import rzlab.zeta
    calls = {}

    def counted(name, f, size):
        def wrapper(*args):
            calls[name] += 1
            calls[name + " points"] += size(args)
            return f(*args)
        return wrapper

    kernels = {"log_xi": lambda args: 0,
               "log_xi_array": lambda args: np.size(args[0]),
               "log_xi_line": lambda args: len(args[0]),
               "zeta_em": lambda args: 0}
    for name, size in kernels.items():
        f = getattr(rzlab.zeta, name)
        wrapper = counted(name, f, size)
        for module in [m for k, m in sys.modules.items()
                       if k.split(".")[0] == "rzlab"]:
            if getattr(module, name, None) is f:
                monkeypatch.setattr(module, name, wrapper)
    commands = _readme_commands()
    assert [" ".join(argv) for argv in commands] == list(XI_LEDGER)
    for argv in commands:
        calls.update(dict.fromkeys(
            [k + s for k in kernels for s in ("", " points")], 0))
        code, _, _ = run(capsys, *argv, "--deterministic")
        assert code == EXIT_OK
        got = tuple(calls[k] for k in (
            "log_xi", "log_xi_array", "log_xi_array points", "log_xi_line",
            "log_xi_line points", "zeta_em"))
        assert got == XI_LEDGER[" ".join(argv)], argv


def _mode_words(argv):
    return " ".join(itertools.takewhile(lambda w: not w.startswith("--"),
                                        argv))


@pytest.mark.parametrize("argv", _readme_commands(), ids=_mode_words)
def test_readme_command_report_is_one_compact_line(tmp_path, capsys, argv):
    # the C encoder's layout: no indent, sorted keys, one trailing newline;
    # the same text on stdout and in an --out file
    code, out, err = run(capsys, *argv, "--deterministic")
    assert (code, err) == (EXIT_OK, "")
    assert out == json.dumps(json.loads(out), sort_keys=True,
                             allow_nan=False) + "\n"
    assert out.count("\n") == 1
    path = tmp_path / "report.json"
    code, written, _ = run(capsys, *argv, "--deterministic", "--out",
                           str(path))
    assert (code, written) == (EXIT_OK, "")
    assert path.read_text() == out


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


def test_hadamard_xi_overflow_is_refused_before_the_catalog(monkeypatch,
                                                            capsys):
    # log xi(433.0904904706722) is the last below log(float max): it is
    # accepted, with the profile [1.0], and one ulp above is refused
    code, out, _ = run(capsys, "hadamard", "--num-zeros", "10", "--at",
                       "433.0904904706722", "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["decreasing"] is True
    monkeypatch.setattr(rzlab.zeros, "find_zeros", None)
    code, out, err = run(capsys, "hadamard", "--num-zeros", "10", "--at",
                         "433.09049047067225")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "xi overflows a float at --at 433.09049047067225" in err


@pytest.mark.parametrize("scale,expected", [
    ((1.0, 1.0), EXIT_OK), ((0.5, 2.0), EXIT_VERIFICATION),
    ((2.0, 2.0), EXIT_VERIFICATION), ((2.0, 3.0), EXIT_VERIFICATION)])
def test_hadamard_profile_rising_above_the_floor_exits_3(
        monkeypatch, capsys, scale, expected):
    floor = rzlab.hadamard.RESIDUAL_FLOOR
    monkeypatch.setattr(rzlab.hadamard, "convergence_profile",
                        lambda at, checkpoints, ordinates, log_xi_at:
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


@pytest.mark.parametrize("where", ["missing/dir/report.json", "."])
def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys,
                                                     where):
    # a directory that does not exist, and a directory itself
    path = str(tmp_path / where)
    code, out, err = run(capsys, "smatrix", "eval", "--out", path)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: cannot write --out %s: " % path)
    assert err.count("\n") == 1


# Each leaf mode with the parameters its report holds: its own options,
# defaults included, and none of the report options.
MODE_PARAMETERS = [
    (("zeros", "--t-min", "0", "--t-max", "15"),
     {"t_min": 0.0, "t_max": 15.0}),
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


def test_benchmark_requests_parse():
    # every seed-7 timed and warm-up request of the benchmark's three
    # workloads, from perfbench/workloads.py (loaded by path; nothing is
    # run), picks its mode and parses as main does: no option the CLI
    # lacks, and all nine modes between them
    path = os.path.join(os.path.dirname(README), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    modes = mode_parsers()
    commands = set()
    for name in workloads.WORKLOADS:
        for req in (workloads.requests(name, 7, workloads.REFERENCE_SECONDS)
                    + workloads.warmup_requests(name, 7)):
            argv = req["argv"]
            n = 2 if " ".join(argv[:2]) in modes else 1
            commands.add(modes[" ".join(argv[:n])].parse_args(argv[n:])
                         .command)
    assert commands == set(modes)


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
