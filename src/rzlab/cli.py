"""Command-line front end: every module exposed as a mode that emits a
JSON report (canonical) or a CSV projection for plotting.

The mode table maps each mode's command words ("zeros", "smatrix
eval", ...) to a parser of only the options it reads, whose handler
returns (results, rows, diagnostics, exit_code); `main` wraps that in
the report envelope, whose parameters are the mode's own options, and
writes it.

Exit codes: 0 success, 2 domain/range error, 3 verification failure,
64 usage error.
"""

import argparse
import cmath
import csv
import datetime
import functools
import io
import json
import math
import re
import sys

from . import __version__
from .errors import (BoundaryZeroError, DivergenceError, DomainError,
                     GridError, PoleError, PreconditionError, RangeError,
                     VerificationError)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_VERIFICATION = 3
EXIT_USAGE = 64

_DOMAIN_ERRORS = (DomainError, RangeError, PreconditionError, GridError,
                  PoleError, DivergenceError, ValueError, ArithmeticError)
_VERIFICATION_ERRORS = (VerificationError, BoundaryZeroError)


class _UsageExit(Exception):
    """A usage problem: exit code 64."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64 and reads
    -<digit>... and -.<digit>... (-1e-5), and -inf, -infinity and -nan
    in any case, as values, not as options: _finite then rejects the
    last three by name."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(
            r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise _UsageExit(message)


def _default_jobs():
    """1, the one thread rzlab runs.  No mode reads it: it exists only
    for the header line of perfbench/run.py."""
    return 1


def _finite(text):
    """argparse type of every float option: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("not a finite number: %r" % text)
    return value


def _complex_str(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# Namespace entries that shape the report rather than the computation.
_REPORT_ENTRIES = ("format", "out", "deterministic", "func", "command",
                   "columns")


def _write_report(args, results, rows, diagnostics):
    """Write the JSON envelope, as one compact line with sorted keys
    (`python -m json.tool` pretty-prints it), or its CSV projection.
    The envelope is serialized either way, so a non-finite number is a
    range error."""
    parameters = {k: v for k, v in vars(args).items()
                  if k not in _REPORT_ENTRIES}
    envelope = {"command": args.command, "parameters": parameters,
                "results": results, "diagnostics": list(diagnostics),
                "version": __version__}
    if not args.deterministic:
        envelope["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    try:
        text = json.dumps(envelope, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise RangeError("the result holds a non-finite number")
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=args.columns)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageExit("cannot write --out %s: %s"
                             % (args.out, exc.strerror or exc))
    else:
        sys.stdout.write(text)


def _first_zeros(n):
    """The first n ordinates, from one scan of 0..T, where T solves
    theta(T)/pi + 1 = n + 1.5: the main term of the Riemann-von Mangoldt
    count, with a margin above the largest |S(t)| below T_MAX (0.998)."""
    from .zeros import find_zeros
    from .zeta import T_MAX

    if n < 1:
        raise PreconditionError("--num-zeros must be at least 1")
    # theta is convex and increasing: from T_MAX, Newton's steps fall onto
    # a T below it within rounding after six, or stay at T_MAX, as for any
    # n of T_MAX or more (no window below T_MAX holds that many zeros)
    target = math.pi * (min(n, T_MAX) + 0.5)
    t = float(T_MAX)
    for _ in range(6):
        u = math.log(t / math.tau)
        theta = 0.5 * t * (u - 1.0) - math.pi / 8 + 1.0 / (48.0 * t)
        t = min(float(T_MAX), t - (theta - target)
                / (0.5 * u - 1.0 / (48.0 * t * t)))
    ordinates, _ = find_zeros(0.0, t)
    if len(ordinates) < n:
        raise RangeError(
            "only %d zeros available below the evaluation ceiling t = %g"
            % (len(ordinates), T_MAX))
    return ordinates[:n].tolist()


def cmd_zeros(args):
    from .numerics import ContourRectangle
    from .zeros import count_zeros_rectangle, find_zeros

    t, res = find_zeros(args.t_min, args.t_max)
    rect = ContourRectangle(-2.0, 3.0, args.t_min, args.t_max)
    rect_count = count_zeros_rectangle(rect)
    consistent = rect_count == len(t)
    diagnostics = [] if consistent else [
        "line scan found %d zeros but the contour count is %d"
        % (len(t), rect_count)]
    rows = [{"index": k + 1, "ordinate": x, "residual": r}
            for k, (x, r) in enumerate(zip(t.tolist(), res.tolist()))]
    results = {"zeros": rows, "count": len(t),
               "rectangle_count": rect_count,
               "cross_check": "consistent" if consistent else "inconsistent"}
    return (results, rows, diagnostics,
            EXIT_OK if consistent else EXIT_VERIFICATION)


def cmd_smatrix_eval(args):
    from .scattering import s_matrix

    s = complex(args.re, args.im)
    log_s, pole, zero = s_matrix(s)
    # at a pole both the value and its log modulus are rounding noise
    value = None if pole else _complex_str(cmath.exp(log_s))
    log_modulus = None if pole else log_s.real
    results = {"s": _complex_str(s), "value": value,
               "log_modulus": log_modulus, "pole": pole, "zero": zero}
    rows = [{"re": args.re, "im": args.im,
             "value_re": value["re"] if value else "",
             "value_im": value["im"] if value else "",
             "pole": pole, "zero": zero}]
    return results, rows, [], EXIT_OK


def cmd_smatrix_scan(args):
    import numpy as np

    from .numerics import MAX_GRID_POINTS
    from .scattering import log_s_matrix
    from .zeta import T_MAX

    if not (args.step > 0.0 and args.tau_max >= 0.0):
        raise PreconditionError("need step > 0 and tau-max >= 0")
    if args.tau_max / args.step > MAX_GRID_POINTS - 1:
        raise PreconditionError("step %g gives more than %d scan points"
                                % (args.step, MAX_GRID_POINTS))
    n = int(round(args.tau_max / args.step))
    if n * args.step > 0.5 * T_MAX:
        raise RangeError("scan reaches tau = %r, beyond T_MAX/2 = %g"
                         % (n * args.step, 0.5 * T_MAX))
    tau = np.arange(n + 1) * args.step
    dev = np.abs(np.exp(log_s_matrix(1j * tau).real) - 1.0)
    series = [{"tau": t, "unitarity_deviation": d}
              for t, d in zip(tau.tolist(), dev.tolist())]
    results = {"series": series, "max_deviation": float(dev.max())}
    return results, series, [], EXIT_OK


def cmd_smatrix_correspondence(args):
    from .scattering import zero_to_jost_zero

    diagnostics = []
    rows = []
    ordinates = _first_zeros(args.num_zeros)
    checked = zero_to_jost_zero(ordinates)
    for k, (t_n, fp) in enumerate(zip(ordinates, checked)):
        p = complex(-0.25, 0.5 * t_n)
        if isinstance(fp, VerificationError):
            mag = None
            diagnostics.append(str(fp))
        else:
            # |F+| at the float nearest a zero is rounding noise (about
            # 1e-14), so only its first two digits are reported
            mag = float("%.2g" % fp)
        rows.append({"index": k + 1, "ordinate": t_n,
                     "jost_zero_re": p.real, "jost_zero_im": p.imag,
                     "jost_magnitude": mag, "winding_ok": mag is not None})
    passes = sum(row["winding_ok"] for row in rows)
    results = {"per_zero": rows, "passes": passes,
               "checked": args.num_zeros}
    return (results, rows, diagnostics,
            EXIT_OK if passes == args.num_zeros else EXIT_VERIFICATION)


def cmd_kmoment(args):
    from .quantum import (fit_moment_coefficient, k_moment_closed_form,
                          k_moment_integral)

    res = k_moment_integral(args.nu)
    fitted = fit_moment_coefficient()
    printed = 0.125
    flag = "discrepancy" if abs(fitted - printed) > 1e-6 else "agreement"
    diagnostics = [] if flag == "agreement" else [
        "fitted closed-form coefficient %.12g disagrees with the printed "
        "value %.12g" % (fitted, printed)]
    rows = [{"nu": args.nu, "integral_re": complex(res.value).real,
             "fitted_coefficient": fitted,
             "printed_coefficient": printed, "flag": flag}]
    results = {"nu": args.nu, "integral": _complex_str(res.value),
               "error_estimate": res.error_estimate,
               "fitted_coefficient": fitted, "printed_coefficient": printed,
               "closed_form_fitted": _complex_str(
                   k_moment_closed_form(args.nu, fitted)),
               "closed_form_printed": _complex_str(
                   k_moment_closed_form(args.nu, printed)),
               "coefficient_flag": flag}
    return results, rows, diagnostics, EXIT_OK


def cmd_jost_verify(args):
    from .quantum import (jost_solution_analytic, jost_solution_ode,
                          order_from_coupling)

    lam = vars(args)["lambda"]
    nu = order_from_coupling(lam)
    samples = [(y, f) for y, f in jost_solution_ode(args.k, lam) if y <= 10.0]
    f_ref = jost_solution_analytic(args.k, nu, [y for y, _ in samples])
    rows = [{"y": y, "f_ode_re": f.real, "f_ode_im": f.imag,
             "rel_error": abs(f - r) / abs(r)}
            for (y, f), r in zip(samples, f_ref.tolist())]
    results = {"lambda": lam, "k": args.k, "nu": _complex_str(nu),
               "max_rel_error": max(row["rel_error"] for row in rows),
               "samples": rows}
    return results, rows, [], EXIT_OK


def cmd_khuri(args):
    from .quantum import (MOMENT_RELATIVE_IM_MAX, khuri_reality_residual,
                          order_from_coupling)

    lam = complex(vars(args)["lambda"], args.im_lambda)
    residual = khuri_reality_residual(lam)
    results = {"lambda": _complex_str(lam), "residual": residual,
               "real_coupling": lam.imag == 0.0}
    rows = [{"lambda_re": lam.real, "lambda_im": lam.imag,
             "residual": residual}]
    # a real coupling returns 0 before any moment is computed
    nu = order_from_coupling(lam)
    diagnostics = []
    if lam.imag != 0.0 and abs(nu.imag) >= MOMENT_RELATIVE_IM_MAX:
        diagnostics.append(
            "|Im nu| = %.4g >= %g: the moment integral, and so the "
            "residual, is accurate only in absolute terms (bessel_k "
            "cancels down to e^(-pi |Im nu| / 2))"
            % (abs(nu.imag), MOMENT_RELATIVE_IM_MAX))
    return results, rows, diagnostics, EXIT_OK


def cmd_hadamard(args):
    from .hadamard import RESIDUAL_FLOOR, convergence_profile, fit_constants
    from .scattering import _xi_vanishes
    from .zeta import log_xi

    at = complex(args.at_re, args.at_im)
    log_xi_at = log_xi(at)
    if log_xi_at.real > math.log(sys.float_info.max):
        raise RangeError("xi overflows a float at --at %r --at-im %r"
                         % (args.at_re, args.at_im))
    if _xi_vanishes(at, log_xi_at):
        raise DomainError("--at %r --at-im %r is a zero of xi, where the "
                          "relative residual is undefined"
                          % (args.at_re, args.at_im))
    ordinates = _first_zeros(args.num_zeros)
    checkpoints = sorted({n for n in (10, 25, 50, 100, args.num_zeros)
                          if n <= args.num_zeros})
    profile = convergence_profile(at, checkpoints, ordinates, log_xi_at)
    rows = [{"n": n, "residual": r} for n, r in zip(checkpoints, profile)]
    decreasing = all(r2 < r1 or max(r1, r2) <= RESIDUAL_FLOOR
                     for r1, r2 in zip(profile, profile[1:]))
    diagnostics = [] if decreasing else ["residual profile not decreasing"]
    a, b = fit_constants()
    results = {"constants": {"a": _complex_str(a), "b": _complex_str(b)},
               "at": _complex_str(at), "profile": rows,
               "decreasing": decreasing}
    return (results, rows, diagnostics,
            EXIT_OK if decreasing else EXIT_VERIFICATION)


def cmd_dispersion(args):
    from .dispersion import (ROUNDTRIP_MIN_NODES, bound_state_model,
                             rational_model, roundtrip_residual, unit_model)
    from .numerics import MAX_GRID_POINTS

    if args.nodes < ROUNDTRIP_MIN_NODES:
        raise GridError("--nodes %d: the round trip needs at least %d "
                        "grid nodes" % (args.nodes, ROUNDTRIP_MIN_NODES))
    if not args.half_width > 0.0:
        raise GridError("--half-width must be positive, got %r"
                        % args.half_width)
    if args.nodes > MAX_GRID_POINTS:
        raise GridError("--nodes %d is above the cap of %d grid points"
                        % (args.nodes, MAX_GRID_POINTS))
    if not math.isfinite(2.0 * args.half_width):
        raise GridError("--half-width %g spans a grid wider than a float"
                        % args.half_width)
    builders = {"unit": unit_model, "rational": rational_model,
                "bound-state": bound_state_model}
    samples = builders[args.model](half_width=args.half_width,
                                   nodes=args.nodes)
    residual = roundtrip_residual(samples)
    row = {"model": args.model, "half_width": args.half_width,
           "nodes": args.nodes}
    results = dict(row, bound_states=list(samples.bound_state_momenta),
                   roundtrip_residual=residual)
    return results, [dict(row, residual=residual)], [], EXIT_OK


def _mode(modes, command, func, columns):
    """modes[command]: the report options plus the handler, the report's
    command name and its CSV columns as defaults."""
    p = modes[command] = _Parser(prog="rzlab " + command)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write report to this file")
    p.add_argument("--deterministic", action="store_true",
                   help="omit the timestamp field for byte-identical output")
    p.set_defaults(func=func, command=command, columns=columns)
    return p


@functools.cache
def mode_parsers():
    """The mode table, keyed by command words, built once per process:
    the parsers cost more than S(s)."""
    modes = {}
    p = _mode(modes, "zeros", cmd_zeros, ("index", "ordinate", "residual"))
    p.add_argument("--t-min", type=_finite, required=True)
    p.add_argument("--t-max", type=_finite, required=True)
    p = _mode(modes, "smatrix eval", cmd_smatrix_eval,
              ("re", "im", "value_re", "value_im", "pole", "zero"))
    p.add_argument("--re", type=_finite, default=0.0)
    p.add_argument("--im", type=_finite, default=0.0)
    p = _mode(modes, "smatrix scan", cmd_smatrix_scan,
              ("tau", "unitarity_deviation"))
    p.add_argument("--tau-max", type=_finite, default=50.0)
    p.add_argument("--step", type=_finite, default=0.1)
    p = _mode(modes, "smatrix correspondence", cmd_smatrix_correspondence,
              ("index", "ordinate", "jost_zero_re", "jost_zero_im",
               "jost_magnitude", "winding_ok"))
    p.add_argument("--num-zeros", type=int, default=10)
    p = _mode(modes, "quantum jost-verify", cmd_jost_verify,
              ("y", "f_ode_re", "f_ode_im", "rel_error"))
    p.add_argument("--lambda", type=_finite, default=2.0)
    p.add_argument("--k", type=_finite, default=1.0)
    p = _mode(modes, "quantum kmoment", cmd_kmoment,
              ("nu", "integral_re", "fitted_coefficient",
               "printed_coefficient", "flag"))
    p.add_argument("--nu", type=_finite, default=0.5)
    p = _mode(modes, "quantum khuri", cmd_khuri,
              ("lambda_re", "lambda_im", "residual"))
    p.add_argument("--lambda", type=_finite, default=2.0)
    p.add_argument("--im-lambda", type=_finite, default=0.0)
    p = _mode(modes, "hadamard", cmd_hadamard, ("n", "residual"))
    p.add_argument("--num-zeros", type=int, default=100)
    p.add_argument("--at", dest="at_re", type=_finite, default=2.0)
    p.add_argument("--at-im", type=_finite, default=0.0)
    p = _mode(modes, "dispersion roundtrip", cmd_dispersion,
              ("model", "half_width", "nodes", "residual"))
    p.add_argument("--model", choices=("unit", "rational", "bound-state"),
                   default="unit")
    p.add_argument("--half-width", type=_finite, default=50.0)
    p.add_argument("--nodes", type=int, default=4001)
    return modes


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    modes = mode_parsers()
    if argv[:1] in (["-h"], ["--help"]):
        print("usage: rzlab MODE [-h] [options]\nmodes:", *modes, sep="\n  ")
        return EXIT_OK
    try:
        n = 2 if " ".join(argv[:2]) in modes else 1  # else the first word
        if " ".join(argv[:n]) not in modes:
            raise _UsageExit("%s; the modes are: %s" % (
                "unknown mode %r" % argv[0] if argv else "no mode given",
                ", ".join(modes)))
        try:
            args = modes[" ".join(argv[:n])].parse_args(argv[n:])
        except SystemExit:  # -h, its help printed: error() raises instead
            return EXIT_OK
        *report, code = args.func(args)
        _write_report(args, *report)
        return code
    except _UsageExit as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write("domain error: %s\n" % exc)
        return EXIT_DOMAIN
    except _VERIFICATION_ERRORS as exc:
        sys.stderr.write("verification failure: %s\n" % exc)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
