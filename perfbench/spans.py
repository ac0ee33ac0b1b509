"""Per-layer tracing for the traced run, installed from outside rzlab.

``Tracer.install`` replaces every public module-level function of every
rzlab module (plus the layers ROADMAP names that are private:
``dispersion._pv_on_grid`` and the ``_backend`` kernel ``zeta_em``) by
a wrapper that records a span. The wrapper is bound under every name a
caller looks the function up by: a ``from .zeta import xi`` binding in
``rzlab.zeros`` is a separate name, and ``log_gamma`` recurses through
``rzlab.specfun``. In ``rzlab.cli`` only ``main`` is wrapped, so its
self time is the argument parsing, dispatch and report emission.

A span's self time is its duration minus the part of it that child
spans cover. Children in the CLI's worker threads are attributed to the
span open in the request's thread when they start, and they carry the
id of the request that was running; overlapping worker children are
merged before they are subtracted. Aggregates are kept in memory per
request and merged only for requests that completed, so counts repeat
exactly for a seed.
"""

import collections
import inspect
import sys
import threading
import time

# The pure-Python kernel module holds the ``_backend`` layer zeta_em.  A
# compiled kernel would be a builtin, which install() does not wrap; the
# traced run would then fail because zeta.zeta_em records no call.
LAYER_ALIAS = {"_kernels_py": "zeta"}
PRIVATE_LAYERS = {("dispersion", "_pv_on_grid"), ("_kernels_py", "zeta_em")}


class _Frame:
    __slots__ = ("t0", "child", "foreign")

    def __init__(self, t0):
        self.t0 = t0
        self.child = 0.0
        self.foreign = None


def _union_within(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack = None
        self.request_id = None
        # name -> [calls, self_s]; counters: name -> value.  "pending"
        # holds the running request, "totals" completed requests.
        self._pending = collections.defaultdict(lambda: [0, 0.0])
        self._pending_counts = collections.Counter()
        self.totals = collections.defaultdict(lambda: [0, 0.0])
        self.counts = collections.Counter()
        self._live_calls = collections.Counter()  # monotonic, for deltas
        self.layers = set()

    # spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main_ident:
                self._main_stack = stack
        return stack

    def span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rid = tracer.request_id
            stack = tracer._stack()
            foreign_parent = None
            if not stack and threading.get_ident() != tracer._main_ident:
                main = tracer._main_stack
                foreign_parent = main[-1] if main else None
            state = None
            if before:
                state, args, kwargs = before(tracer, args, kwargs)
            with tracer._lock:
                tracer._live_calls[name] += 1
            frame = _Frame(time.perf_counter())
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                child = frame.child
                if frame.foreign:
                    child += _union_within(frame.foreign, frame.t0, t1)
                dur = t1 - frame.t0
                if stack:
                    stack[-1].child += dur
                elif foreign_parent is not None:
                    with tracer._lock:
                        if foreign_parent.foreign is None:
                            foreign_parent.foreign = []
                        foreign_parent.foreign.append((frame.t0, t1))
                with tracer._lock:
                    if rid == tracer.request_id:
                        agg = tracer._pending[name]
                        agg[0] += 1
                        agg[1] += max(0.0, dur - child)
                        if after:
                            after(tracer, state, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def count(self, name, value=1):
        """Add to a counter of the running request (lock held by caller)."""
        self._pending_counts[name] += value

    def live(self, name):
        with self._lock:
            return self._live_calls[name]

    # requests ---------------------------------------------------------

    def begin_request(self, rid):
        with self._lock:
            self.request_id = rid
            self._pending.clear()
            self._pending_counts.clear()
        self._stack().clear()

    def end_request(self, completed):
        """Merge the request's aggregates if it completed; drop them if
        it failed, so a deadline miss cannot make counts depend on timing."""
        if not completed and self._lock.locked():
            # the deadline fired while a span held the lock; the CLI's
            # workers have all ended by now, so nobody else owns it
            self._lock = threading.Lock()
        with self._lock:
            if completed:
                for name, (calls, self_s) in self._pending.items():
                    agg = self.totals[name]
                    agg[0] += calls
                    agg[1] += self_s
                self.counts.update(self._pending_counts)
            self.request_id = None
            self._pending.clear()
            self._pending_counts.clear()
        self._stack().clear()

    # installation -----------------------------------------------------

    def install(self, package="rzlab"):
        """Wrap the package's public functions under every binding."""
        modules = {n: m for n, m in sys.modules.items()
                   if (n == package or n.startswith(package + "."))
                   and m is not None}
        wrappers = {}
        for mod in modules.values():
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or id(fn) in wrappers:
                    continue
                home = fn.__module__ or ""
                if not home.startswith(package + "."):
                    continue
                short = home[len(package) + 1:]
                if short == "cli" and fn.__name__ != "main":
                    continue
                if fn.__name__.startswith("_") and \
                        (short, fn.__name__) not in PRIVATE_LAYERS:
                    continue
                name = "%s.%s" % (LAYER_ALIAS.get(short, short), fn.__name__)
                before, after = OBSERVERS.get(name, (None, None))
                wrappers[id(fn)] = self.span(name, fn, before, after)
                self.layers.add(name)
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and id(fn) in wrappers:
                    setattr(mod, attr, wrappers[id(fn)])


# Observers derive work counts at the same boundaries as the spans.
# ``before`` returns (state, args, kwargs) and may swap a callable
# argument for a counting one; ``after`` runs with the tracer lock held.

def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _count_callable(counter, key):
    def before(tr, args, kwargs):
        f = _arg(args, kwargs, 0, key)

        def counted(*a):
            with tr._lock:
                tr.count(counter)
            return f(*a)
        if args:
            args = (counted,) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, **{key: counted})
        return None, args, kwargs
    return before


def _zeta_em_after(tr, state, args, kwargs, result, exc):
    tr.count("zeta.zeta_em.terms", int(_arg(args, kwargs, 2, "n")))


def _zeta_after(tr, state, args, kwargs, result, exc):
    s = _arg(args, kwargs, 0, "s")
    re = s.sigma if hasattr(s, "sigma") else complex(s).real
    tr.count("zeta.zeta.reflected", int(re < 0.0))


def _quad_after(tr, state, args, kwargs, result, exc):
    if exc is not None:
        if type(exc).__name__ == "BudgetExhaustedError":
            tr.count("numerics.integrate_adaptive.budget_exhausted")
            best = getattr(exc, "best_estimate", None)
            if best is not None:
                tr.count("numerics.integrate_adaptive.nodes",
                         best.evaluations)
        return
    tr.count("numerics.integrate_adaptive.nodes", result.evaluations)
    tol = _arg(args, kwargs, 3, "tol")
    tr.count("numerics.integrate_adaptive.tol_missed",
             int(result.error_estimate > tol))


def _winding_after(tr, state, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "BoundaryZeroError":
        tr.count("numerics.winding_number.boundary_errors")


def _delta(counter):
    def before(tr, args, kwargs):
        return tr.live(counter), args, kwargs
    return before


def _find_zeros_after(tr, state, args, kwargs, result, exc):
    tr.count("zeros.find_zeros.xi", tr._live_calls["zeta.xi"] - state)
    if result is not None:
        tr.count("zeros.find_zeros.zeros", len(result))


def _rect_after(tr, state, args, kwargs, result, exc):
    tr.count("zeros.rect_nudges",
             tr._live_calls["numerics.winding_number"] - state - 1)


def _s_matrix_after(tr, state, args, kwargs, result, exc):
    tr.count("scattering.s_matrix.xi", tr._live_calls["zeta.xi"] - state)


def _fit_after(tr, state, args, kwargs, result, exc):
    tr.count("hadamard.fit_constants.xi_evals",
             tr._live_calls["zeta.xi"] - state)


OBSERVERS = {
    "zeta.zeta_em": (None, _zeta_em_after),
    "zeta.zeta": (None, _zeta_after),
    "numerics.integrate_adaptive": (None, _quad_after),
    "numerics.find_root_bracketed": (
        _count_callable("numerics.find_root_bracketed.f_evals", "f"), None),
    "numerics.winding_number": (
        _count_callable("numerics.winding_number.probes", "g"),
        _winding_after),
    "zeros.find_zeros": (_delta("zeta.xi"), _find_zeros_after),
    "zeros.count_zeros_rectangle": (_delta("numerics.winding_number"),
                                    _rect_after),
    "scattering.s_matrix": (_delta("zeta.xi"), _s_matrix_after),
    "hadamard.fit_constants": (_delta("zeta.xi"), _fit_after),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, names):
    """Values of the requested per-layer metrics from a traced run.

    ``<layer>.calls`` and ``<layer>.self_s`` come from the spans, the
    ratios are derived, and every other name is an observer counter.
    """
    totals, counts = tracer.totals, tracer.counts
    derived = {
        "zeta.zeta.reflected_frac": _ratio(
            counts["zeta.zeta.reflected"], totals["zeta.zeta"][0]),
        "zeros.xi_per_zero": _ratio(
            counts["zeros.find_zeros.xi"], counts["zeros.find_zeros.zeros"]),
        "scattering.xi_per_s_matrix": _ratio(
            counts["scattering.s_matrix.xi"], totals["scattering.s_matrix"][0]),
    }
    out = {}
    for metric in names:
        layer, _, field = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif field in ("calls", "self_s") and layer in tracer.layers:
            out[metric] = totals[layer][0 if field == "calls" else 1]
        elif metric in COUNTERS:
            out[metric] = counts[metric]
    return out


COUNTERS = {
    "zeta.zeta_em.terms", "numerics.integrate_adaptive.nodes",
    "numerics.integrate_adaptive.tol_missed",
    "numerics.integrate_adaptive.budget_exhausted",
    "numerics.find_root_bracketed.f_evals", "numerics.winding_number.probes",
    "numerics.winding_number.boundary_errors", "zeros.rect_nudges",
    "hadamard.fit_constants.xi_evals",
}
