"""Independent referee for rzlab reports.

Every check uses mpmath 1.3.0 or a closed form, never rzlab. A check
returns one of three verdicts:

- ``ok``;
- ``failed``: the report is honest but misses the acceptance bound the
  benchmark fixes for that command (for example the ODE and closed-form
  Jost routes disagreeing by more than 1e-6); the request counts as
  failed;
- ``wrong``: the report contradicts the reference; the request counts
  as failed and the run as incorrect.

``python3 perfbench/referee.py --make-zero-table`` regenerates the
zero table the checks and the workloads share.
"""

import cmath
import json
import math
import os
import sys

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "zeta_zeros.json")

mpmath.mp.dps = 25

ORDINATE_TOL = 1e-8
EDGE_TOL = 1e-7          # a zero this close to a window edge may go either way
# |log S - log S_ref| may reach LOG_S_TOL (1 + 1/d(2s) + 1/d(-2s)), where d
# is the distance to the nearest zero of xi: near a zero the log of either
# factor loses digits as 1/d. Measured: at most 1e-13 times that factor.
LOG_S_TOL = 5e-12
SCAN_TOL = 1e-8
KMOMENT_TOL = 1e-10      # the CLI's absolute quadrature tolerance
KHURI_TOL = 1e-9         # absolute tolerance of khuri's moment integral
JOST_REL_TOL = 1e-6      # acceptance bound on the CLI's max_rel_error
JOST_SAMPLE_TOL = 1e-7   # ODE samples against mpmath's Hankel function
ROUNDTRIP_TOL = 1e-3
HADAMARD_A_TOL = 1e-12
HADAMARD_B_TOL = 1e-6    # finite-difference B is off by 7.6e-7

HADAMARD_A = math.log(0.5)
HADAMARD_B = float(-mpmath.euler / 2 - 1 + mpmath.log(4 * mpmath.pi) / 2)


class Referee:
    def __init__(self, zeros):
        self.zeros = zeros

    def check(self, request, report):
        """Verdict ('ok' | 'failed' | 'wrong', message) for one report."""
        kind = request["kind"]
        try:
            return getattr(self, "_" + kind.replace("-", "_"))(
                request["params"], report["results"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return "wrong", "%s report malformed: %r" % (kind, exc)

    # critical line ---------------------------------------------------

    def _expected_zeros(self, lo, hi):
        sure = [t for t in self.zeros if lo + EDGE_TOL < t < hi - EDGE_TOL]
        edge = [t for t in self.zeros
                if abs(t - lo) <= EDGE_TOL or abs(t - hi) <= EDGE_TOL]
        return sure, edge

    def _match_ordinates(self, ordinates, lo, hi):
        sure, edge = self._expected_zeros(lo, hi)
        if not len(sure) <= len(ordinates) <= len(sure) + len(edge):
            return "found %d zeros in (%r, %r), mpmath has %d" % (
                len(ordinates), lo, hi, len(sure))
        for t in ordinates:
            near = min(self.zeros, key=lambda z: abs(z - t))
            if abs(near - t) > ORDINATE_TOL:
                return "ordinate %r is %.3g from the nearest zero %r" % (
                    t, abs(near - t), near)
        return None

    def _zeros(self, p, r):
        ords = [z["ordinate"] for z in r["zeros"]]
        problem = self._match_ordinates(ords, p["t_min"], p["t_max"])
        if problem:
            return "wrong", problem
        if r["count"] != len(ords) or r["rectangle_count"] != len(ords) \
                or r["cross_check"] != "consistent":
            return "wrong", "count %r, rectangle %r, cross_check %r" % (
                r["count"], r["rectangle_count"], r["cross_check"])
        return "ok", ""

    def _hadamard(self, p, r):
        a = complex(r["constants"]["a"]["re"], r["constants"]["a"]["im"])
        b = complex(r["constants"]["b"]["re"], r["constants"]["b"]["im"])
        if abs(a - HADAMARD_A) > HADAMARD_A_TOL:
            return "wrong", "A = %r, closed form %r" % (a, HADAMARD_A)
        if abs(b - HADAMARD_B) > HADAMARD_B_TOL:
            return "wrong", "B = %r, closed form %r" % (b, HADAMARD_B)
        ns = [row["n"] for row in r["profile"]]
        want = sorted({n for n in (10, 25, 50, 100, p["num_zeros"])
                       if n <= p["num_zeros"]})
        if ns != want or not r["decreasing"]:
            return "wrong", "profile checkpoints %r, decreasing %r" % (
                ns, r["decreasing"])
        return "ok", ""

    # jost plane ------------------------------------------------------

    @staticmethod
    def log_xi(s):
        s = mpmath.mpc(s)
        return (mpmath.log(s * (s - 1) / 2) - s / 2 * mpmath.log(mpmath.pi)
                + mpmath.loggamma(s / 2) + mpmath.log(mpmath.zeta(s)))

    def log_s(self, s):
        """log S(s) = log xi(2s) - log xi(-2s), up to 2 pi i."""
        return complex(self.log_xi(2 * s) - self.log_xi(-2 * s))

    def zero_distance(self, w):
        """Distance from w to the nearest zero 1/2 +- i t_n of xi."""
        return min(abs(complex(w.real - 0.5, abs(w.imag) - t))
                   for t in self.zeros)

    def _eval(self, p, r):
        s = complex(p["re"], p["im"])
        if p["at"] == "pole":
            if not r["pole"] or r["zero"] or r["value"] is not None:
                return "wrong", "S(%r) should be a pole" % s
            return "ok", ""
        if p["at"] == "zero":
            if not r["zero"] or r["pole"]:
                return "wrong", "S(%r) should be a zero" % s
            return "ok", ""
        if r["pole"] or r["zero"] or r["value"] is None:
            return "wrong", "S(%r) flagged pole/zero at a generic point" % s
        got = complex(r["log_modulus"], math.atan2(r["value"]["im"],
                                                   r["value"]["re"]))
        d = got - self.log_s(s)
        d = complex(d.real, (d.imag + math.pi) % (2 * math.pi) - math.pi)
        tol = LOG_S_TOL * (1.0 + 1.0 / self.zero_distance(2 * s)
                           + 1.0 / self.zero_distance(-2 * s))
        if abs(d) > tol:
            return "wrong", "log S(%r) off by %.3g (tolerance %.3g)" % (
                s, abs(d), tol)
        return "ok", ""

    def _scan(self, p, r):
        n = int(round(p["tau_max"] / p["step"]))
        devs = [row["unitarity_deviation"] for row in r["series"]]
        if len(devs) != n + 1 or max(devs) != r["max_deviation"]:
            return "wrong", "scan series malformed"
        if r["max_deviation"] >= SCAN_TOL:
            return "wrong", "|S| - 1 reaches %.3g on the unitarity line" % (
                r["max_deviation"])
        return "ok", ""

    def _correspondence(self, p, r):
        k = p["num_zeros"]
        if r["checked"] != k or r["passes"] != k or len(r["per_zero"]) != k:
            return "wrong", "passes %r of %r" % (r["passes"], r["checked"])
        for row, t in zip(r["per_zero"], self.zeros):
            if abs(row["ordinate"] - t) > ORDINATE_TOL \
                    or row["jost_zero_re"] != -0.25 \
                    or abs(row["jost_zero_im"] - 0.5 * t) > ORDINATE_TOL \
                    or not row["winding_ok"] or row["jost_magnitude"] >= 1e-6:
                return "wrong", "correspondence row %r disagrees" % (row,)
        return "ok", ""

    # real line -------------------------------------------------------

    def _kmoment(self, p, r):
        nu = p["nu"]
        want = 0.5 if nu == 0 else 0.5 * math.pi * nu / math.sin(math.pi * nu)
        got = complex(r["integral"]["re"], r["integral"]["im"])
        if abs(got - want) > KMOMENT_TOL:
            return "wrong", "moment at nu=%r is %r, closed form %r" % (
                nu, got, want)
        if abs(r["fitted_coefficient"] - 0.5) > KMOMENT_TOL:
            return "wrong", "fitted coefficient %r" % r["fitted_coefficient"]
        return "ok", ""

    def _khuri(self, p, r):
        lam = complex(p["lam_re"], p["lam_im"])
        if lam.imag == 0.0:
            want = 0.0
        else:
            nu = cmath.sqrt(lam + 0.25)
            want = abs(lam.imag) * abs(nu / cmath.sin(math.pi * nu))
        slack = abs(lam.imag) * (2.0 / math.pi) * KHURI_TOL
        if abs(r["residual"] - want) > slack:
            return "wrong", "khuri residual %r, closed form %r" % (
                r["residual"], want)
        if r["real_coupling"] != (lam.imag == 0.0):
            return "wrong", "real_coupling %r" % r["real_coupling"]
        return "ok", ""

    @staticmethod
    def jost(k, lam, y):
        nu = mpmath.sqrt(mpmath.mpc(lam) + 0.25)
        if mpmath.re(nu) < 0 or (mpmath.re(nu) == 0 and mpmath.im(nu) < 0):
            nu = -nu
        return complex(mpmath.sqrt(mpmath.pi * k * y / 2)
                       * mpmath.exp(1j * (mpmath.pi * nu / 2 + mpmath.pi / 4))
                       * mpmath.hankel1(nu, k * y))

    def _jost_verify(self, p, r):
        rows = r["samples"]
        for row in (rows[0], rows[len(rows) // 2], rows[-1]):
            got = complex(row["f_ode_re"], row["f_ode_im"])
            want = self.jost(p["k"], p["lam"], row["y"])
            if abs(got - want) > JOST_SAMPLE_TOL * abs(want):
                return "wrong", "ODE Jost value at y=%r off by %.3g" % (
                    row["y"], abs(got - want) / abs(want))
        if not r["max_rel_error"] < JOST_REL_TOL:
            return "failed", "max_rel_error %.3g at lambda=%r, k=%r" % (
                r["max_rel_error"], p["lam"], p["k"])
        return "ok", ""

    def _dispersion(self, p, r):
        res = r["roundtrip_residual"]
        if p["model"] == "unit" and res != 0.0:
            return "wrong", "unit model residual %r is not exactly 0" % res
        if not 0.0 <= res < ROUNDTRIP_TOL:
            return "failed", "roundtrip residual %r" % res
        return "ok", ""


def self_test(referee, rng):
    """The referee must accept true reports and reject perturbed ones.

    Returns a list of problems (empty when the referee is sound).
    """
    problems = []
    # Spot-check two table entries against mpmath.zetazero itself.
    for n in (1, rng.randrange(2, len(referee.zeros) + 1)):
        live = float(mpmath.zetazero(n).imag)
        if abs(live - referee.zeros[n - 1]) > 1e-12:
            problems.append("zero table entry %d disagrees with mpmath" % n)
    t = referee.zeros[:3]
    nu = 0.3
    k_true = 0.5 * math.pi * nu / math.sin(math.pi * nu)
    s = complex(0.7, 33.0)
    ls = referee.log_s(s)
    sv = cmath.exp(ls)
    lam = complex(-2.0, 0.5)
    nu_l = cmath.sqrt(lam + 0.25)
    kh = abs(lam.imag) * abs(nu_l / cmath.sin(math.pi * nu_l))

    def zeros_report(ords):
        return {"zeros": [{"ordinate": x} for x in ords], "count": 3,
                "rectangle_count": 3, "cross_check": "consistent"}

    def kmoment_report(v):
        return {"integral": {"re": v, "im": 0.0}, "fitted_coefficient": 0.5}

    def eval_report(log_mod):
        return {"pole": False, "zero": False, "log_modulus": log_mod,
                "value": {"re": sv.real, "im": sv.imag}}

    zeros_req = {"t_min": 10.0, "t_max": 26.0}
    cases = [
        ("zeros", zeros_req, zeros_report(t), "ok"),
        ("zeros", zeros_req, zeros_report([t[0], t[1] + 1e-6, t[2]]), "wrong"),
        ("zeros", zeros_req, zeros_report(t[:2]), "wrong"),
        ("kmoment", {"nu": nu}, kmoment_report(k_true), "ok"),
        ("kmoment", {"nu": nu}, kmoment_report(k_true + 1e-9), "wrong"),
        ("eval", {"re": s.real, "im": s.imag, "at": None},
         eval_report(ls.real), "ok"),
        ("eval", {"re": s.real, "im": s.imag, "at": None},
         eval_report(ls.real + 1e-9), "wrong"),
        ("khuri", {"lam_re": lam.real, "lam_im": lam.imag},
         {"residual": kh, "real_coupling": False}, "ok"),
        ("khuri", {"lam_re": lam.real, "lam_im": lam.imag},
         {"residual": kh * (1 + 1e-6), "real_coupling": False}, "wrong"),
        ("dispersion", {"model": "unit"}, {"roundtrip_residual": 1e-15},
         "wrong"),
    ]
    for kind, params, results, want in cases:
        got, msg = referee.check({"kind": kind, "params": params},
                                 {"results": results})
        if got != want:
            problems.append("self-test %s expected %s, got %s (%s)" % (
                kind, want, got, msg))
    return problems


def make_zero_table(path=TABLE, t_max=262.0):
    """Write every zeta-zero ordinate up to t_max, as decimal strings."""
    out = []
    n = 1
    while True:
        t = mpmath.zetazero(n).imag
        out.append(mpmath.nstr(t, 25))
        if t > t_max:
            break
        n += 1
    with open(path, "w") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")
    return len(out)


if __name__ == "__main__":
    if sys.argv[1:] != ["--make-zero-table"]:
        sys.exit("usage: python3 perfbench/referee.py --make-zero-table")
    mpmath.mp.dps = 30
    print("wrote %d ordinates to %s" % (make_zero_table(), TABLE))
