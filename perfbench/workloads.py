"""Seeded request streams for the three workloads.

Each request kind draws its parameters from a stratified design (see
``Draws``): the point set is the same for every seed up to a jitter
inside each stratum, and the seed shuffles the points and the request
order. Every run therefore covers each parameter range evenly and runs
about the same amount of work, so two seeds give comparable medians,
while no two seeds send the same inputs. The program sees only the
generated argv.

Counts are fixed for a reference run of REFERENCE_SECONDS and scale
with ``--seconds``; the request list, not the clock, ends a run, so
``wall_s`` is the time to finish a fixed amount of work.
"""

import json
import math
import os
import random

REFERENCE_SECONDS = 20.0

# Share of a stratum the jitter may move a draw away from its centre.
JITTER = 0.5
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

HERE = os.path.dirname(os.path.abspath(__file__))


def zero_table():
    """Ordinates of the nontrivial zeta zeros up to t = 262, from
    mpmath.zetazero (see ``referee.py --make-zero-table``)."""
    with open(os.path.join(HERE, "zeta_zeros.json")) as fh:
        return [float(t) for t in json.load(fh)]


class Draws:
    """n stratified draws of several parameters for one request kind.

    Point c (0 <= c < n) puts parameter j in stratum (c * g_j) mod n, a
    rank-1 lattice whose multipliers g_j are coprime to n and spread by
    the golden ratio, so every parameter and every pair of them is
    covered evenly. A parameter is a (lo, hi) range, drawn at its
    stratum's centre plus a seeded jitter, or a list of choices, each
    owning an equal block of strata.
    """

    def __init__(self, rng, n, jitter=JITTER):
        self.rng = rng
        self.n = n
        self.jitter = jitter

    def _multiplier(self, j):
        g = max(1, int(round(self.n * ((j * GOLDEN) % 1.0))))
        while math.gcd(g, self.n) != 1:
            g += 1
        return g if j else 1

    def draw(self, *params):
        cells = list(range(self.n))
        self.rng.shuffle(cells)
        gs = [self._multiplier(j) for j in range(len(params))]
        out = []
        for c in cells:
            row = []
            for g, param in zip(gs, params):
                stratum = (c * g) % self.n
                if isinstance(param, list):
                    row.append(param[stratum * len(param) // self.n])
                else:
                    lo, hi = param
                    u = (stratum + 0.5
                         + self.jitter * (self.rng.random() - 0.5)) / self.n
                    row.append(lo + (hi - lo) * u)
            out.append(tuple(row))
        return out


def _num(x):
    return repr(float(x))


def _scale(count, seconds):
    return max(1, int(round(count * seconds / REFERENCE_SECONDS)))


def _request(kind, argv, **params):
    return {"kind": kind, "argv": argv, "params": params}


def critical_line(rng, seconds, zeros):
    """Short windows over the whole [0, 250] range plus full catalogs:
    almost all xi on Re s = 1/2 (EM sum, log-gamma, bisection, winding).

    The catalogs outnumber the ten samples above the p95 tail, so the
    tail is a full-catalog latency: a long request, steadier under host
    noise than the top of the short windows."""
    out = []
    n = _scale(215, seconds)
    for w, u in Draws(rng, n).draw((1.0, 10.0), (0.0, 1.0)):
        a = u * (250.0 - w)
        out.append(_request("zeros", ["zeros", "--t-min", _num(a),
                                      "--t-max", _num(a + w)],
                            t_min=a, t_max=a + w))
    for _ in range(_scale(16, seconds)):
        out.append(_request("zeros", ["zeros", "--t-min", "0", "--t-max",
                                      "250"], t_min=0.0, t_max=250.0))
    n = _scale(9, seconds)
    for k, x in Draws(rng, n).draw([25, 50, 100], (0.25, 4.0)):
        out.append(_request("hadamard", ["hadamard", "--num-zeros", str(k),
                                         "--at", _num(x)],
                            num_zeros=k, at=x))
    return out


def jost_plane(rng, seconds, zeros):
    """Isolated S(s) points over |Re s| <= 5, |Im s| <= 130, some exactly
    at predicted poles and zeros, plus unitarity scans and the
    zero/pole correspondence: half of all xi calls reflect."""
    out = []
    n = _scale(800, seconds)
    for re, im in Draws(rng, n).draw((-5.0, 5.0), (-130.0, 130.0)):
        out.append(_eval(re, im))
    # S has poles at -1/4 +- i t_n / 2 and zeros at +1/4 +- i t_n / 2.
    usable = [t for t in zeros if t <= 260.0]
    n = _scale(100, seconds)
    for kind, sign, u in Draws(rng, n).draw(["pole", "zero"], [1, -1],
                                            (0.0, 1.0)):
        t = usable[min(int(u * len(usable)), len(usable) - 1)]
        re = -0.25 if kind == "pole" else 0.25
        out.append(_eval(re, sign * 0.5 * t, at=kind))
    n = _scale(80, seconds)
    for tau, in Draws(rng, n).draw((10.0, 130.0)):
        out.append(_request("scan", ["smatrix", "scan", "--tau-max",
                                     _num(tau), "--step", "0.5"],
                            tau_max=tau, step=0.5))
    n = _scale(80, seconds)
    for u, in Draws(rng, n).draw((1.0, 13.0)):
        k = int(u)
        out.append(_request("correspondence",
                            ["smatrix", "correspondence", "--num-zeros",
                             str(k)], num_zeros=k))
    return out


def _eval(re, im, at=None):
    return _request("eval", ["smatrix", "eval", "--re", _num(re),
                             "--im", _num(im)], re=re, im=im, at=at)


def real_line(rng, seconds, zeros):
    """Quadrature, ODE and dispersion requests; no xi at all."""
    out = []
    # nu over the CLI's whole range [0, 1), one draw per sixth.  The jitter
    # is narrowed to +-0.02 so no draw lands where the runtime crosses the
    # deadline (nu ~ 0.66): the strata at 0.75 and 0.92 always run away
    # and count as failed, the one at 0.58 always answers (1.3 s).
    n = _scale(6, seconds)
    for nu, in Draws(rng, n, jitter=0.24).draw((0.0, 1.0)):
        out.append(_request("kmoment", ["quantum", "kmoment", "--nu",
                                        _num(nu)], nu=nu))
    # Negative controls: lambda = rho (rho - 1) for off-line rho near the
    # first zeros, where the residual must be positive.
    n = _scale(3, seconds)
    for t_index, off, side in Draws(rng, n).draw([0, 1, 2], (0.05, 0.2),
                                                 [1, -1]):
        rho = complex(0.5 + side * off, zeros[t_index])
        out.append(_khuri(rho * (rho - 1.0)))
    # Generic complex couplings lambda = nu^2 - 1/4 with Re nu <= 0.6; the
    # k_moment_integral runaway at Re nu >= 0.7 is drawn by kmoment above.
    n = _scale(4, seconds)
    for x, y in Draws(rng, n).draw((0.0, 0.6), (0.2, 3.0)):
        nu = complex(x, y)
        out.append(_khuri(nu * nu - 0.25))
    # Positive controls: real couplings from critical-line zeros.
    n = _scale(4, seconds)
    for u, in Draws(rng, n).draw((0.0, 1.0)):
        t = zeros[min(int(u * 20), 19)]
        out.append(_khuri(complex(-(0.25 + t * t), 0.0)))
    n = _scale(80, seconds)
    for lam, k in Draws(rng, n).draw((-5.0, 6.0), (0.3, 3.0)):
        out.append(_request("jost-verify", ["quantum", "jost-verify",
                                            "--lambda", _num(lam),
                                            "--k", _num(k)], lam=lam, k=k))
    n = _scale(9, seconds)
    for model, hw, nodes in Draws(rng, n).draw(
            ["unit", "rational", "bound-state"], (25.0, 100.0),
            (2001.0, 8001.0)):
        nodes = int(nodes)
        out.append(_request("dispersion",
                            ["dispersion", "roundtrip", "--model", model,
                             "--half-width", _num(hw), "--nodes",
                             str(nodes)],
                            model=model, half_width=hw, nodes=nodes))
    return out


def _khuri(lam):
    return _request("khuri", ["quantum", "khuri", "--lambda", _num(lam.real),
                              "--im-lambda", _num(lam.imag)],
                    lam_re=lam.real, lam_im=lam.imag)


WORKLOADS = {
    "critical-line": critical_line,
    "jost-plane": jost_plane,
    "real-line": real_line,
}

# Modules each workload's subcommands import; setup_s cold-starts these.
SETUP_MODULES = {
    "critical-line": ["rzlab.cli", "rzlab.zeros", "rzlab.hadamard"],
    "jost-plane": ["rzlab.cli", "rzlab.scattering", "rzlab.zeros"],
    "real-line": ["rzlab.cli", "rzlab.quantum", "rzlab.dispersion"],
}

# Layers each workload is built to exercise; the traced run fails if one
# of them records no call.
NAMED_LAYERS = {
    "critical-line": ["cli.main", "zeta.zeta_em", "zeta.log_xi",
                      "specfun.log_gamma", "numerics.find_root_bracketed",
                      "numerics.winding_number", "zeros.find_zeros",
                      "zeros.count_zeros_rectangle", "hadamard.fit_constants",
                      "hadamard.convergence_profile"],
    "jost-plane": ["cli.main", "zeta.zeta_em", "zeta.log_xi",
                   "specfun.log_gamma", "numerics.winding_number",
                   "scattering.s_matrix", "scattering.zero_to_jost_zero"],
    "real-line": ["cli.main", "numerics.integrate_adaptive",
                  "specfun.bessel_k", "specfun.hankel1",
                  "quantum.k_moment_integral",
                  "quantum.khuri_reality_residual",
                  "quantum.jost_solution_ode", "dispersion.roundtrip_residual",
                  "dispersion._pv_on_grid"],
}


def requests(workload, seed, seconds, stream="timed"):
    """The run's request list; ``stream`` separates warm-up draws from
    timed ones so no timed input is run before it is timed."""
    rng = random.Random("%s/%s/%s" % (workload, seed, stream))
    out = WORKLOADS[workload](rng, seconds, zero_table())
    rng.shuffle(out)
    return out


def warmup_requests(workload, seed):
    """One request of each kind, drawn from a separate seed stream."""
    seen = {}
    for req in requests(workload, seed, REFERENCE_SECONDS, stream="warmup"):
        if req["kind"] == "kmoment" and req["params"]["nu"] > 0.6:
            continue  # a runaway would only burn the deadline untimed
        seen.setdefault(req["kind"], req)
    return list(seen.values())


def tail_percentile(n):
    """Highest of the fixed percentiles with at least ten samples above
    it; the maximum (100) when n < 20."""
    best = 100.0
    for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def quantile(sorted_values, p):
    """Linear-interpolation percentile of an ascending list."""
    if not sorted_values:
        return math.nan
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (
        pos - lo)
