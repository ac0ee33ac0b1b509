"""rzlab benchmark: seeded request streams through the public CLI.

    python3 perfbench/run.py --workload critical-line --seed 1 \
        --seconds 20 --trace 0

Each run is one fresh process and one closed-loop client: it sends the
next request to ``rzlab.cli.main(argv)`` in-process only after the
previous one returned. A request fails on a nonzero exit code, a missed
per-request deadline (DEADLINE_S, enforced by SIGALRM), output that is
not strict JSON, or disagreement with the referee (``referee.py``),
which checks every report after the timed region.

Times are reported at reference speed. The CPU speed of a shared host
drifts by up to 1.7x within seconds, so between requests (at most every
PROBE_EVERY_S) a probe times a fixed piece of pure-Python work, and
each request's seconds are divided by its slowdown: the median of the
probes around it (see ``Probes.scale``) over PROBE_REF_S, the probe's
time on an idle 2-core reference box. Cold starts are scaled the same
way; a request stopped at the deadline counts DEADLINE_S scaled alike.
The raw sums and percentiles are printed on the ``# raw`` line, and
per-layer times (``--trace 1``) are raw.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the same requests untraced and then traced (see
``spans.py``) and prints the per-layer metrics. ``--workload all`` runs
every workload, each in its own process, one after another. The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import bisect
import collections
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A request that has not returned after this long (raw seconds) is
# stopped and counted failed. On an idle 2-core reference box the
# slowest requests that answer take 1.7 s (dispersion at 8001 nodes, a
# khuri control near t = 25), and a busy host runs up to 1.7x slower;
# k_moment_integral runs 2.4 s at nu = 0.65, 11.6 s at 0.68 and beyond
# 15 s from nu = 0.7 on (at nu = 0.9 it gives up after 244 s).
DEADLINE_S = 4.0
# The traced pass repeats only requests that met the deadline untraced;
# its looser deadline keeps tracing overhead from turning them into misses.
TRACED_DEADLINE_S = 4 * DEADLINE_S
COLD_STARTS = 5
IMPORT_PROBES = 3
PROBE_LOOPS = 40000
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 0.5
PROBE_REF_S = 4.0e-3
ALL_MODULES = ["rzlab.cli", "rzlab.zeros", "rzlab.scattering",
               "rzlab.hadamard", "rzlab.quantum", "rzlab.dispersion"]

Result = collections.namedtuple("Result", "secs rc out err start")


class DeadlineExceeded(BaseException):
    """Raised in the request's thread when DEADLINE_S runs out; derives
    from BaseException so no handler inside rzlab can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _reject_constant(name):
    raise ValueError("non-strict JSON constant %s" % name)


def speed_probe():
    """(end time, seconds) of a fixed piece of pure-Python work."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(PROBE_LOOPS):
        x += (i * 0.5) % 3.0
    t1 = time.perf_counter()
    return t1, t1 - t0


class Probes:
    """Speed probes taken between pieces of timed work."""

    def __init__(self):
        self.taken = [speed_probe()]

    def maybe(self):
        if time.perf_counter() - self.taken[-1][0] >= PROBE_EVERY_S:
            self.taken.append(speed_probe())

    def scale(self, start, secs):
        """secs of work that began at start, at reference speed.

        The slowdown is the median of the probes taken from PROBE_WINDOW_S
        before the work to PROBE_WINDOW_S after it, and at least of the
        probes just before and just after it.
        """
        times = [t for t, _ in self.taken]
        j = max(0, bisect.bisect_right(times, start) - 1)
        k = min(j + 1, len(self.taken) - 1)
        lo = min(j, bisect.bisect_left(times, start - PROBE_WINDOW_S))
        hi = max(k, bisect.bisect_right(times, start + secs + PROBE_WINDOW_S)
                 - 1)
        slowdown = statistics.median(
            d for _, d in self.taken[lo:hi + 1]) / PROBE_REF_S
        return secs / slowdown


def run_request(argv, deadline):
    """Run one CLI request; the exit code is None when the deadline
    stopped it."""
    from rzlab import cli  # looked up per call so a traced main is used
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                rc = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        rc = None
    return Result(time.perf_counter() - t0, rc, out.getvalue(),
                  err.getvalue(), t0)


def run_pass(reqs, deadline, tracer=None):
    """Closed loop over reqs; returns (results, reference-speed seconds)."""
    probes = Probes()
    results = []
    for i, req in enumerate(reqs):
        if tracer:
            tracer.begin_request(i)
        res = run_request(req["argv"], deadline)
        if tracer:
            tracer.end_request(res.rc == 0)
        results.append(res)
        probes.maybe()
    probes.taken.append(speed_probe())
    return results, [probes.scale(r.start, r.secs) for r in results]


def usable_cores():
    return len(os.sched_getaffinity(0))


def _python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cold_start_s(modules):
    """Median reference-speed time of fresh interpreters that import
    ``modules``."""
    code = "import " + ", ".join(modules)
    probes = Probes()
    runs = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_python_env(),
                       check=True, stdout=subprocess.DEVNULL)
        runs.append((t0, time.perf_counter() - t0))
        probes.taken.append(speed_probe())
    return statistics.median(probes.scale(t0, s) for t0, s in runs)


def import_breakdown(modules):
    """Cumulative import seconds per module from ``python -X importtime``.

    The workload's own modules are imported first, in the order setup_s
    imports them; the remaining rzlab modules follow, so their rows are
    measured too but are not part of the workload's setup_s.
    """
    order = modules + [m for m in ALL_MODULES if m not in modules]
    rows = {}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import " + ", ".join(order)],
            env=_python_env(), check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                cum_us = int(parts[1])
            except ValueError:
                continue  # the header line
            rows.setdefault(parts[2].strip(), []).append(cum_us * 1e-6)
    return {name: statistics.median(v) for name, v in rows.items()}


def referee_pass(workload, seed, reqs, results):
    """Check every report; returns (correct, failed flags, notes)."""
    from referee import Referee, self_test
    from workloads import zero_table

    referee = Referee(zero_table())
    problems = self_test(referee, random.Random("%s/%s/self-test" % (
        workload, seed)))
    if problems:
        sys.exit("referee self-test failed: " + "; ".join(problems))
    correct = True
    failed = []
    notes = []
    for req, res in zip(reqs, results):
        if res.rc is None:
            verdict, msg = "failed", "missed the %g s deadline" % DEADLINE_S
        elif res.rc != 0:
            verdict, msg = "failed", "exit %d: %s" % (res.rc,
                                                       res.err.strip()[-200:])
        else:
            try:
                report = json.loads(res.out, parse_constant=_reject_constant)
            except ValueError as exc:
                verdict, msg = "wrong", "output is not strict JSON: %s" % exc
            else:
                verdict, msg = referee.check(req, report)
        failed.append(verdict != "ok")
        correct = correct and verdict != "wrong"
        if verdict != "ok":
            notes.append("%s %s: %s" % (verdict, " ".join(req["argv"]), msg))
    return correct, failed, notes


def latency_metrics(latencies):
    """(p50, tail, tail percentile, samples beyond the tail)."""
    from workloads import quantile, tail_percentile

    lat = sorted(latencies)
    p = tail_percentile(len(lat))
    tail = quantile(lat, p)
    return quantile(lat, 50.0), tail, p, sum(1 for x in lat if x > tail)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(correct, attempted, failed, values, specs):
    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            sys.exit("metric %s was not measured" % spec["name"])
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_workload(args, spec):
    if not os.path.isfile(os.path.join(SRC, "rzlab", "cli.py")):
        sys.exit("rzlab sources not found under %s" % SRC)
    sys.path.insert(0, SRC)
    if (os.cpu_count() or 1) > usable_cores():
        os.environ["RZLAB_JOBS"] = str(usable_cores())
    import numpy
    import scipy
    import rzlab
    from rzlab import cli
    import workloads

    modules = workloads.SETUP_MODULES[args.workload]
    for name in modules:
        __import__(name)
    reqs = workloads.requests(args.workload, args.seed, args.seconds)
    print("# workload=%s seed=%s seconds=%g trace=%d requests=%d" % (
        args.workload, args.seed, args.seconds, args.trace, len(reqs)))
    print("# nproc=%d cpu_count=%s python=%s numpy=%s scipy=%s backend=%s "
          "jobs=%d RZLAB_JOBS=%s deadline_s=%g" % (
              usable_cores(), os.cpu_count(), sys.version.split()[0],
              numpy.__version__, scipy.__version__, rzlab.backend_name,
              cli._default_jobs(), os.environ.get("RZLAB_JOBS", "unset"),
              DEADLINE_S))

    setup_s = cold_start_s(modules)
    signal.signal(signal.SIGALRM, _on_alarm)
    run_pass(workloads.warmup_requests(args.workload, args.seed), DEADLINE_S)
    results, secs = run_pass(reqs, DEADLINE_S)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        values = traced_metrics(args.workload, modules, reqs, results, secs,
                                spec)
    correct, failed, notes = referee_pass(args.workload, args.seed, reqs,
                                          results)
    for note in notes[:20]:
        print("# " + note)
    if len(notes) > 20:
        print("# ... %d more" % (len(notes) - 20))
    by_kind = collections.defaultdict(list)
    for req, s in zip(reqs, secs):
        by_kind[req["kind"]].append(s)
    for kind, ks in sorted(by_kind.items()):
        print("# kind %-15s n=%-5d total_s=%-8.3f p50_s=%.4f max_s=%.4f" % (
            kind, len(ks), sum(ks), statistics.median(ks), max(ks)))
    raw_p50, raw_tail, _, _ = latency_metrics([r.secs for r in results])
    print("# raw wall_s=%.6g p50=%.6g tail=%.6g" % (
        sum(r.secs for r in results), raw_p50, raw_tail))
    p50, tail, p, beyond = latency_metrics(secs)
    n_failed = sum(failed)
    print("# failed_frac=%.4f (%d of %d)  tail=p%g with %d samples beyond" % (
        n_failed / len(reqs), n_failed, len(reqs), p, beyond))
    if not args.trace:
        values = {"setup_s": setup_s, "wall_s": sum(secs),
                  "request_s_p50": p50, "request_s_tail": tail,
                  "peak_rss_mb": peak_rss_mb}
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    for s in specs:
        print("%-46s %14.6g %s" % (s["name"], values.get(s["name"], 0),
                                   s["unit"]))
    print(result_line(correct, len(reqs), n_failed, values, specs))


def traced_metrics(workload, modules, reqs, results, secs, spec):
    """Trace the requests that met the deadline; per-layer metrics."""
    import spans
    import workloads

    keep = [i for i, r in enumerate(results) if r.rc is not None]
    for name in ALL_MODULES:  # so every layer is wrapped, used or not
        __import__(name)
    tracer = spans.Tracer()
    tracer.install()
    traced, traced_secs = run_pass([reqs[i] for i in keep],
                                   TRACED_DEADLINE_S, tracer)
    if any(r.rc is None for r in traced):
        sys.exit("a request missed the traced deadline")
    names = [s["name"] for s in spec["per_layer"]]
    values = spans.layer_metrics(tracer, names)
    imports = import_breakdown(modules)
    for name in names:
        if name.startswith("import.") and name.endswith(".cum_s"):
            values[name] = imports.get(name[len("import."):-len(".cum_s")],
                                       0.0)
    values["trace.overhead_s"] = sum(traced_secs) - sum(secs[i] for i in keep)
    for layer, (calls, self_s) in sorted(tracer.totals.items(),
                                         key=lambda kv: -kv[1][1]):
        if calls:
            print("# layer %-40s calls=%-9d self_s=%.4f" % (layer, calls,
                                                            self_s))
    dead = [layer for layer in workloads.NAMED_LAYERS[workload]
            if tracer.totals[layer][0] == 0]
    if dead:
        sys.exit("traced run: named layers recorded no calls: %s"
                 % ", ".join(dead))
    return values


def run_all(args, spec):
    """Run each workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             w["name"], "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit("workload %s exited %d" % (w["name"], proc.returncode))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            metrics["%s.%s" % (w["name"], name)] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    if args.workload == "all":
        run_all(args, spec)
    else:
        run_workload(args, spec)


if __name__ == "__main__":
    main()
