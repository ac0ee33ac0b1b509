"""Command-line front end: every module exposed as a subcommand that
emits a JSON report (canonical) or a CSV projection for plotting.

Exit codes: 0 success, 2 domain/range error, 3 verification failure,
64 usage error.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import datetime

from . import __version__
from .errors import (BoundaryZeroError, BudgetExhaustedError, DivergenceError,
                     DomainError, GridError, IntegrationLimitError, PoleError,
                     PreconditionError, RangeError, VerificationError)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_VERIFICATION = 3
EXIT_USAGE = 64

_DOMAIN_ERRORS = (DomainError, RangeError, PreconditionError, GridError,
                  PoleError, IntegrationLimitError, ValueError)
_VERIFICATION_ERRORS = (VerificationError, BudgetExhaustedError,
                        DivergenceError, BoundaryZeroError)


class _UsageExit(Exception):
    def __init__(self, message):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        raise _UsageExit(message)


def _default_jobs():
    """The deprecated RZLAB_JOBS value, else 1.  It is validated and
    reported but selects nothing: every scan runs serially."""
    env = os.environ.get("RZLAB_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise _UsageExit("RZLAB_JOBS must be an integer, got %r" % env)
    return 1


def _complex_str(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _envelope(command, parameters, results, diagnostics, deterministic):
    env = {
        "command": command,
        "parameters": parameters,
        "results": results,
        "diagnostics": list(diagnostics),
        "version": __version__,
    }
    if not deterministic:
        env["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    return env


def _emit(envelope, rows, columns, args):
    if args.format == "json":
        text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _first_zeros(n):
    """Scan the critical line upward until n zeros are in hand."""
    from .zeros import find_zeros
    from .zeta import T_MAX

    t_max = min(float(T_MAX), 20.0 + 3.0 * n)
    while True:
        zeros = find_zeros(0.0, t_max)
        if len(zeros) >= n:
            return zeros[:n]
        if t_max >= T_MAX:
            raise VerificationError(
                "only %d zeros available below the evaluation ceiling t = %g"
                % (len(zeros), T_MAX))
        t_max = min(float(T_MAX), 1.5 * t_max)


def _add_common(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write report to this file")
    p.add_argument("--jobs", type=int, default=None,
                   help="deprecated and ignored; scans run serially "
                        "(default: RZLAB_JOBS or 1)")
    p.add_argument("--deterministic", action="store_true",
                   help="omit the timestamp field for byte-identical output")


def cmd_zeros(args):
    from .numerics import ContourRectangle
    from .zeros import count_zeros_rectangle, find_zeros

    zeros = find_zeros(args.t_min, args.t_max, step=args.step, tol=args.tol)
    diagnostics = []
    if args.t_max > args.t_min:
        rect = ContourRectangle(0.0, 1.0, max(args.t_min, 1e-3), args.t_max)
        rect_count = count_zeros_rectangle(rect)
    else:
        rect_count = 0
    consistent = rect_count == len(zeros)
    verdict = "consistent" if consistent else "inconsistent"
    if not consistent:
        diagnostics.append("line scan found %d zeros but the contour count "
                           "is %d" % (len(zeros), rect_count))
    results = {
        "zeros": [{"index": z.index, "ordinate": z.ordinate,
                   "residual": z.residual} for z in zeros],
        "count": len(zeros),
        "rectangle_count": rect_count,
        "cross_check": verdict,
    }
    rows = [{"index": z.index, "ordinate": z.ordinate, "residual": z.residual}
            for z in zeros]
    env = _envelope("zeros", {"t_min": args.t_min, "t_max": args.t_max,
                              "step": args.step, "tol": args.tol,
                              "jobs": args.jobs},
                    results, diagnostics, args.deterministic)
    _emit(env, rows, ["index", "ordinate", "residual"], args)
    return EXIT_OK if consistent else EXIT_VERIFICATION


def cmd_smatrix(args):
    from .scattering import jost_plus, s_matrix, zero_to_jost_zero

    diagnostics = []
    if args.mode == "eval":
        m = s_matrix(complex(args.re, args.im))
        results = {
            "s": _complex_str(m.s),
            "value": None if m.pole_flag else _complex_str(
                m.value.to_complex()),
            "log_modulus": m.value.log_modulus,
            "pole": m.pole_flag,
            "zero": m.zero_flag,
        }
        rows = [{"re": args.re, "im": args.im,
                 "value_re": results["value"]["re"] if results["value"] else "",
                 "value_im": results["value"]["im"] if results["value"] else "",
                 "pole": m.pole_flag, "zero": m.zero_flag}]
        env = _envelope("smatrix eval", {"re": args.re, "im": args.im},
                        results, diagnostics, args.deterministic)
        _emit(env, rows, ["re", "im", "value_re", "value_im", "pole", "zero"],
              args)
        return EXIT_OK
    if args.mode == "scan":
        if not args.step > 0.0:
            raise PreconditionError("step must be positive")
        series = []
        worst = 0.0
        n = int(round(args.tau_max / args.step))
        for i in range(n + 1):
            tau = i * args.step
            m = s_matrix(complex(0.0, tau))
            dev = abs(m.value.abs() - 1.0)
            worst = max(worst, dev)
            series.append({"tau": tau, "unitarity_deviation": dev})
        results = {"series": series, "max_deviation": worst}
        env = _envelope("smatrix scan",
                        {"tau_max": args.tau_max, "step": args.step},
                        results, diagnostics, args.deterministic)
        _emit(env, series, ["tau", "unitarity_deviation"], args)
        return EXIT_OK
    # correspondence
    zeros = _first_zeros(args.num_zeros)
    rows = []
    passes = 0
    for z in zeros:
        try:
            p = zero_to_jost_zero(z.ordinate, verify=True)
            mag = jost_plus(p).value.abs()
            ok = True
            passes += 1
        except VerificationError as exc:
            p = complex(-0.25, 0.5 * z.ordinate)
            mag = float("nan")
            ok = False
            diagnostics.append(str(exc))
        rows.append({"index": z.index, "ordinate": z.ordinate,
                     "jost_zero_re": p.real, "jost_zero_im": p.imag,
                     "jost_magnitude": mag, "winding_ok": ok})
    results = {"per_zero": rows, "passes": passes,
               "checked": args.num_zeros}
    env = _envelope("smatrix correspondence",
                    {"num_zeros": args.num_zeros}, results, diagnostics,
                    args.deterministic)
    _emit(env, rows, ["index", "ordinate", "jost_zero_re", "jost_zero_im",
                      "jost_magnitude", "winding_ok"], args)
    return EXIT_OK if passes == args.num_zeros else EXIT_VERIFICATION


def cmd_quantum(args):
    from .quantum import (OrderParameter, fit_moment_coefficient,
                          jost_solution_analytic, jost_solution_ode,
                          k_moment_closed_form, k_moment_integral,
                          khuri_reality_residual)

    diagnostics = []
    if args.sub == "kmoment":
        res = k_moment_integral(args.nu)
        fitted = fit_moment_coefficient()
        printed = 0.125
        closed_fitted = k_moment_closed_form(args.nu, fitted)
        closed_printed = k_moment_closed_form(args.nu, printed)
        flag = "discrepancy" if abs(fitted - printed) > 1e-6 else "agreement"
        if flag == "discrepancy":
            diagnostics.append(
                "fitted closed-form coefficient %.12g disagrees with the "
                "printed value %.12g" % (fitted, printed))
        results = {
            "nu": args.nu,
            "integral": _complex_str(res.value),
            "error_estimate": res.error_estimate,
            "fitted_coefficient": fitted,
            "printed_coefficient": printed,
            "closed_form_fitted": _complex_str(closed_fitted),
            "closed_form_printed": _complex_str(closed_printed),
            "coefficient_flag": flag,
        }
        rows = [{"nu": args.nu, "integral_re": complex(res.value).real,
                 "fitted_coefficient": fitted,
                 "printed_coefficient": printed, "flag": flag}]
        env = _envelope("quantum kmoment", {"nu": args.nu}, results,
                        diagnostics, args.deterministic)
        _emit(env, rows, ["nu", "integral_re", "fitted_coefficient",
                          "printed_coefficient", "flag"], args)
        return EXIT_OK
    if args.sub == "jost-verify":
        nu = OrderParameter.from_coupling(args.lam).nu
        y_start = 25.0 / args.k
        samples = jost_solution_ode(args.k, args.lam, 1.0, y_start)
        rows = []
        worst = 0.0
        for y, f_ode in samples:
            if not (1.0 <= y <= 10.0):
                continue
            f_ref = jost_solution_analytic(args.k, nu, y)
            rel = abs(f_ode - f_ref) / abs(f_ref)
            worst = max(worst, rel)
            rows.append({"y": y, "f_ode_re": f_ode.real,
                         "f_ode_im": f_ode.imag, "rel_error": rel})
        results = {"lambda": args.lam, "k": args.k, "nu": _complex_str(nu),
                   "max_rel_error": worst, "samples": rows}
        env = _envelope("quantum jost-verify",
                        {"lambda": args.lam, "k": args.k}, results,
                        diagnostics, args.deterministic)
        _emit(env, rows, ["y", "f_ode_re", "f_ode_im", "rel_error"], args)
        return EXIT_OK
    # khuri
    lam = complex(args.lam, args.im_lambda)
    residual = khuri_reality_residual(lam)
    results = {"lambda": _complex_str(lam), "residual": residual,
               "real_coupling": lam.imag == 0.0}
    rows = [{"lambda_re": lam.real, "lambda_im": lam.imag,
             "residual": residual}]
    env = _envelope("quantum khuri",
                    {"lambda": args.lam, "im_lambda": args.im_lambda},
                    results, diagnostics, args.deterministic)
    _emit(env, rows, ["lambda_re", "lambda_im", "residual"], args)
    return EXIT_OK


def cmd_hadamard(args):
    from .hadamard import ZeroCatalog, convergence_profile, fit_constants

    catalog = ZeroCatalog.from_zeros(_first_zeros(args.num_zeros))
    params = fit_constants()
    checkpoints = sorted({n for n in (10, 25, 50, 100, args.num_zeros)
                          if n <= args.num_zeros})
    profile = convergence_profile(complex(args.at_re, args.at_im),
                                  checkpoints, catalog, params)
    rows = [{"n": n, "residual": r} for n, r in zip(checkpoints, profile)]
    decreasing = all(b < a for a, b in zip(profile, profile[1:]))
    diagnostics = [] if decreasing else ["residual profile not decreasing"]
    results = {
        "constants": {"a": _complex_str(params.a),
                      "b": _complex_str(params.b)},
        "at": _complex_str(complex(args.at_re, args.at_im)),
        "profile": rows,
        "decreasing": decreasing,
    }
    env = _envelope("hadamard", {"num_zeros": args.num_zeros,
                                 "at_re": args.at_re, "at_im": args.at_im},
                    results, diagnostics, args.deterministic)
    _emit(env, rows, ["n", "residual"], args)
    return EXIT_OK if decreasing else EXIT_VERIFICATION


def cmd_dispersion(args):
    from .dispersion import (bound_state_model, rational_model,
                             roundtrip_residual, unit_model)

    builders = {"unit": unit_model, "rational": rational_model,
                "bound-state": bound_state_model}
    samples, spec = builders[args.model](half_width=args.half_width,
                                         nodes=args.nodes)
    residual = roundtrip_residual(samples, spec)
    results = {"model": args.model, "half_width": args.half_width,
               "nodes": args.nodes,
               "bound_states": list(spec.bound_state_momenta),
               "roundtrip_residual": residual}
    rows = [{"model": args.model, "half_width": args.half_width,
             "nodes": args.nodes, "residual": residual}]
    env = _envelope("dispersion roundtrip",
                    {"model": args.model, "half_width": args.half_width,
                     "nodes": args.nodes}, results, [], args.deterministic)
    _emit(env, rows, ["model", "half_width", "nodes", "residual"], args)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="rzlab",
                     description="numerical laboratory for the completed "
                                 "zeta scattering correspondence")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("zeros", help="scan the critical line for zeros")
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("smatrix", help="evaluate or scan S(s)")
    p.add_argument("mode", choices=("eval", "scan", "correspondence"))
    p.add_argument("--re", type=float, default=0.0)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, default=50.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--num-zeros", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_smatrix)

    p = sub.add_parser("quantum", help="inverse-square potential checks")
    p.add_argument("sub", choices=("jost-verify", "kmoment", "khuri"))
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p.add_argument("--im-lambda", type=float, default=0.0)
    p.add_argument("--k", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_quantum)

    p = sub.add_parser("hadamard", help="truncated zero-product convergence")
    p.add_argument("--num-zeros", type=int, default=100)
    p.add_argument("--at", dest="at_re", type=float, default=2.0)
    p.add_argument("--at-im", dest="at_im", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("dispersion", help="dispersion reconstruction checks")
    p.add_argument("mode", choices=("roundtrip",))
    p.add_argument("--model", choices=("unit", "rational", "bound-state"),
                   default="unit")
    p.add_argument("--half-width", type=float, default=50.0)
    p.add_argument("--nodes", type=int, default=4001)
    _add_common(p)
    p.set_defaults(func=cmd_dispersion)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise _UsageExit("a subcommand is required")
        args.jobs = args.jobs or _default_jobs()
        return args.func(args)
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
