import cmath
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import rzlab
from rzlab.cli import (EXIT_DOMAIN, EXIT_OK, EXIT_USAGE,
                       EXIT_VERIFICATION, build_parser, main)
from rzlab.errors import VerificationError


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
    # the deprecated --jobs selects nothing, so the results are unchanged
    _, out3, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "22",
                     "--deterministic", "--jobs", "3")
    assert json.loads(out3)["results"] == json.loads(out1)["results"]


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
    code, out, err = run(capsys, "smatrix", "scan", "--tau-max", "130.5",
                         "--step", "0.5")
    assert code == EXIT_DOMAIN and out == ""
    assert "T_MAX/2 = 130" in err


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


def test_smatrix_scan_unitarity(capsys):
    code, out, _ = run(capsys, "smatrix", "scan", "--tau-max", "10",
                       "--step", "0.5", "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["max_deviation"] < 1e-8


def test_smatrix_correspondence(capsys):
    code, out, _ = run(capsys, "smatrix", "correspondence",
                       "--num-zeros", "3", "--deterministic")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["passes"] == 3


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


def test_hadamard_profile(capsys):
    code, out, _ = run(capsys, "hadamard", "--num-zeros", "20", "--at", "2",
                       "--deterministic")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["decreasing"] is True


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


def test_rzlab_jobs_env(monkeypatch, capsys):
    # deprecated: reported, but no worker count is claimed unless set
    monkeypatch.delenv("RZLAB_JOBS", raising=False)
    _, out, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "15",
                    "--deterministic")
    assert json.loads(out)["parameters"]["jobs"] == 1
    monkeypatch.setenv("RZLAB_JOBS", "2")
    code, out, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "15",
                       "--deterministic")
    assert code == EXIT_OK
    assert json.loads(out)["parameters"]["jobs"] == 2
    monkeypatch.setenv("RZLAB_JOBS", "junk")
    code, _, _ = run(capsys, "zeros", "--t-min", "0", "--t-max", "15")
    assert code == EXIT_USAGE
