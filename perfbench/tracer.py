"""Span tracing at mechfront's module boundaries, from outside the program.

`Tracer.install` replaces each public function at the binding its caller
uses -- `from .optsolver import opt_makespan` copies the name into
`analysis` and `cli`, so both copies are wrapped -- and the rule and
instance methods on their classes.  A span records its name, start, end,
parent span and request id.  Spans live in compact arrays while the run
lasts and are written out by `dump` at the end.

Parents come from a per-thread stack.  A span opened on a worker thread with
an empty stack (the frontier sweep's thread pool) takes the innermost open
span of the client thread as its parent.  Self time is a span's duration
minus the union of its children's intervals, so concurrent children are not
counted twice.
"""
from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

ORIGINAL = "__perfbench_original__"


def _masked_name(args, kwargs):
    objective = kwargs.get("objective", args[2] if len(args) > 2 else "min")
    return f"optsolver.masked_{objective}"


# (module, attribute, span name): the bindings callers reach.  cli reaches
# analysis and equilibria through module attributes, so those are wrapped
# where they are defined.  verify_equilibrium is wrapped only where analysis
# imports it: equilibria's own calls to it stay inside the module.
FUNCTIONS = (
    ("cli", "run", "cli.run"),
    ("analysis", "frontier_sweep", "analysis.frontier_sweep"),
    ("analysis", "inefficiency", "analysis.inefficiency"),
    ("analysis", "monotonicity_check", "analysis.monotonicity_check"),
    ("analysis", "opt_makespan", "optsolver.opt_makespan"),
    ("cli", "opt_makespan", "optsolver.opt_makespan"),
    ("analysis", "opt_makespan_masked", _masked_name),
    ("cli", "opt_makespan_masked", _masked_name),
    ("analysis", "achievable_winners", "equilibria.achievable_winners"),
    ("equilibria", "achievable_winners", "equilibria.achievable_winners"),
    ("analysis", "enumerate_equilibria", "equilibria.enumerate_equilibria"),
    ("equilibria", "enumerate_equilibria", "equilibria.enumerate_equilibria"),
    ("analysis", "verify_equilibrium", "equilibria.verify_equilibrium"),
    ("analysis", "canonical_certificate", "equilibria.canonical_certificate"),
    ("equilibria", "canonical_certificate", "equilibria.canonical_certificate"),
    ("analysis", "default_grid", "equilibria.default_grid"),
    ("equilibria", "default_grid", "equilibria.default_grid"),
)

# (module, class, method, span name)
METHODS = (
    ("rules", "SingleTaskRule", "batch", "rules.batch"),
    ("rules", "SingleTaskRule", "outcome", "rules.outcome"),
    ("instances", "GeneratorSpec", "build", "instances.build"),
    ("model", "Instance", "__init__", "model.instance_init"),
)

_COUNT = "count/req"
_SECONDS = "s/req"

# Per-layer metrics: span name -> (stat, unit, better).  Counts and times are
# per measured request, so they do not depend on how many passes a run made.
LAYER_STATS = {
    "optsolver.opt_makespan": (("calls", _COUNT, "lower"), ("busy_s", _SECONDS, "lower"),
                               ("p50_us", "us", "lower"), ("p90_us", "us", "lower"),
                               ("repeat_ratio", "ratio", "lower")),
    "optsolver.masked_min": (("calls", _COUNT, "lower"), ("busy_s", _SECONDS, "lower"),
                             ("p50_us", "us", "lower"), ("p90_us", "us", "lower")),
    "optsolver.masked_max": (("calls", _COUNT, "lower"), ("busy_s", _SECONDS, "lower")),
    "analysis.frontier_sweep": (("self_s", _SECONDS, "lower"),),
    "analysis.inefficiency": (("calls", _COUNT, "lower"), ("self_s", _SECONDS, "lower")),
    "instances.build": (("calls", _COUNT, "lower"), ("busy_s", _SECONDS, "lower")),
    "model.instance_init": (("calls", _COUNT, "lower"), ("busy_s", _SECONDS, "lower")),
    "cli.run": (("self_s", _SECONDS, "lower"),),
    "equilibria.achievable_winners": (("calls", _COUNT, "lower"),
                                      ("busy_s", _SECONDS, "lower")),
    "equilibria.enumerate_equilibria": (("calls", _COUNT, "lower"),
                                        ("self_s", _SECONDS, "lower"),
                                        ("profiles", _COUNT, "lower"),
                                        ("ns_per_profile", "ns", "lower"),
                                        ("kept_ratio", "ratio", "higher"),
                                        ("peak_mb", "MiB", "lower")),
    "rules.batch": (("calls", _COUNT, "lower"), ("busy_s", _SECONDS, "lower"),
                    ("rows", _COUNT, "lower"), ("ns_per_row", "ns", "lower")),
    "rules.outcome": (("calls", _COUNT, "lower"), ("busy_s", _SECONDS, "lower")),
    "equilibria.verify_equilibrium": (("calls", _COUNT, "lower"),
                                      ("self_s", _SECONDS, "lower"),
                                      ("p50_us", "us", "lower"),
                                      ("deviations", _COUNT, "lower"),
                                      ("ns_per_deviation", "ns", "lower")),
    "equilibria.canonical_certificate": (("calls", _COUNT, "lower"),
                                         ("self_s", _SECONDS, "lower"),
                                         ("failed", _COUNT, "lower")),
    "analysis.monotonicity_check": (("calls", _COUNT, "lower"),
                                    ("self_s", _SECONDS, "lower")),
    "equilibria.default_grid": (("calls", _COUNT, "lower"), ("busy_s", _SECONDS, "lower")),
}


def per_layer_spec() -> list:
    """Every per-layer metric as (name, unit, better)."""
    out = [(f"{layer}.{stat}", unit, better)
           for layer, stats in LAYER_STATS.items() for stat, unit, better in stats]
    out.append(("trace.throughput_rps", "1/s", "higher"))
    return out


def wrapped_bindings(package) -> list:
    """Names of bindings that currently hold a tracing wrapper."""
    found = []
    for module, attr, _ in FUNCTIONS:
        if hasattr(getattr(getattr(package, module), attr, None), ORIGINAL):
            found.append(f"{module}.{attr}")
    for module, cls, meth, _ in METHODS:
        owner = getattr(getattr(package, module), cls)
        if hasattr(owner.__dict__.get(meth), ORIGINAL):
            found.append(f"{module}.{cls}.{meth}")
    return found


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack = []
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.request = array("q")
        self.extra = defaultdict(lambda: defaultdict(float))  # name -> counter -> value
        self.peaks = defaultdict(list)  # name -> tracemalloc peak bytes per call
        self.request_id = -1
        self.requests = 0
        self.enabled = False
        self._solved = set()  # Instances opt_makespan saw in the current request
        self._patches = []
        self.missing = []

    # -- requests --------------------------------------------------------------

    def begin_request(self) -> None:
        self.request_id += 1
        self.requests += 1
        self._solved = set()
        self.enabled = True

    def end_request(self) -> None:
        self.enabled = False

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _open(self, name: str, stack: list) -> int:
        if stack:
            parent = stack[-1]
        else:
            client = self._client_stack
            parent = client[-1] if client else -1
        nid = self._name_id(name)
        with self._lock:
            sid = len(self.start)
            self.parent.append(parent)
            self.name.append(nid)
            self.request.append(self.request_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid: int, stack: list) -> None:
        self.end[sid] = time.perf_counter()
        stack.pop()

    def count(self, name: str, key: str, value: float) -> None:
        with self._lock:
            self.extra[name][key] += value

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn, name):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            if before:
                before(tracer, args, kwargs)
            stack = tracer._stack()
            sid = tracer._open(span, stack)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._close(sid, stack)
                if after:
                    after(tracer, None, e)
                raise
            tracer._close(sid, stack)
            if after:
                after(tracer, result, None)
            return result

        setattr(traced, ORIGINAL, fn)
        return traced

    def install(self, package) -> None:
        """Wrap every binding in FUNCTIONS and METHODS; one wrapper per
        function object, so every copy of a name records the same span."""
        wrappers = {}
        for module, attr, name in FUNCTIONS:
            mod = getattr(package, module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, name)
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, wrappers[id(fn)])
        for module, cls, meth, name in METHODS:
            owner = getattr(getattr(package, module), cls)
            fn = owner.__dict__.get(meth)
            if fn is None:
                self.missing.append(f"{module}.{cls}.{meth}")
                continue
            self._patches.append((owner, meth, fn))
            setattr(owner, meth, self.wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def span_counts(self) -> dict:
        counts = np.bincount(np.frombuffer(self.name, dtype=np.int32),
                             minlength=len(self.names))
        return {name: int(c) for name, c in zip(self.names, counts) if c}

    def _arrays(self):
        return (np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.name, dtype=np.int32))

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the union of its children's intervals,
        clipped to the span."""
        start, end, parent, _ = self._arrays()
        own = end - start
        kids = np.flatnonzero(parent >= 0)
        if not len(kids):
            return own
        order = kids[np.lexsort((start[kids], parent[kids]))]
        par = parent[order]
        lo = np.maximum(start[order], start[par])
        hi = np.minimum(end[order], end[par])
        same = np.r_[False, par[1:] == par[:-1]]
        overlaps = same & (lo < np.r_[-np.inf, hi[:-1]])
        clipped = np.clip(hi - lo, 0.0, None)
        # children that run one after another: subtract their durations
        plain = ~np.isin(par, par[overlaps])
        own -= np.bincount(par[plain], weights=clipped[plain], minlength=len(own))
        # concurrent children (worker threads): subtract their union
        for p in np.unique(par[overlaps]):
            covered = 0.0
            cur_lo = cur_hi = None
            for s, e in zip(lo[par == p], hi[par == p]):
                if e <= s:
                    continue
                if cur_hi is None or s > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = s, e
                elif e > cur_hi:
                    cur_hi = e
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            own[p] -= covered
        return own

    def metrics(self) -> dict:
        """Per-layer metrics by name; layers with no span report zeros."""
        reqs = max(1, self.requests)
        start, end, _, name = self._arrays()
        duration = end - start
        own = self.self_times()
        out = {}
        for layer, stats in LAYER_STATS.items():
            nid = self._name_ids.get(layer)
            d = duration[name == nid] if nid is not None else np.empty(0)
            busy = float(d.sum())
            extra = self.extra.get(layer, {})
            profiles = extra.get("profiles", 0.0)
            rows = extra.get("rows", 0.0)
            deviations = extra.get("deviations", 0.0)
            values = {
                "calls": len(d) / reqs,
                "busy_s": busy / reqs,
                "self_s": float(own[name == nid].sum()) / reqs if len(d) else 0.0,
                "p50_us": float(np.percentile(d, 50)) * 1e6 if len(d) else 0.0,
                "p90_us": float(np.percentile(d, 90)) * 1e6 if len(d) else 0.0,
                "repeat_ratio": extra.get("repeats", 0.0) / len(d) if len(d) else 0.0,
                "profiles": profiles / reqs,
                "ns_per_profile": busy * 1e9 / profiles if profiles else 0.0,
                "kept_ratio": extra.get("kept", 0.0) / profiles if profiles else 0.0,
                "peak_mb": max(self.peaks.get(layer, [0])) / 2 ** 20,
                "rows": rows / reqs,
                "ns_per_row": busy * 1e9 / rows if rows else 0.0,
                "deviations": deviations / reqs,
                "ns_per_deviation": busy * 1e9 / deviations if deviations else 0.0,
                "failed": extra.get("failed", 0.0) / reqs,
            }
            for stat, unit, _ in stats:
                out[f"{layer}.{stat}"] = {"value": values[stat], "unit": unit}
        return out

    def dump(self, path) -> None:
        """Write every span to a numpy .npz: `start` and `end` (seconds on the
        perf_counter clock), `parent` (-1 for none), `request`, and `name`
        as an index into `names`.  A span's id is its index."""
        start, end, parent, name = self._arrays()
        np.savez(path, start=start, end=end, parent=parent, name=name,
                 request=np.frombuffer(self.request, dtype=np.int64),
                 names=np.array(self.names))


# -- per-layer counters, recorded around the wrapped call ---------------------

def _opt_before(tracer, args, kwargs):
    inst = args[0] if args else kwargs.get("inst")
    with tracer._lock:
        seen = inst in tracer._solved
        tracer._solved.add(inst)
    tracer.count("optsolver.opt_makespan", "repeats", float(seen))


def _enum_before(tracer, args, kwargs):
    tracemalloc.start()


def _enum_after(tracer, result, error):
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    name = "equilibria.enumerate_equilibria"
    tracer.peaks[name].append(peak)
    if result is not None:
        tracer.count(name, "profiles", result.scanned)
        tracer.count(name, "kept", len(result))


def _batch_before(tracer, args, kwargs):
    tracer.count("rules.batch", "rows", len(args[1]))


def _verify_after(tracer, result, error):
    if result is not None:
        tracer.count("equilibria.verify_equilibrium", "deviations",
                     result.checked_deviations)


def _certificate_after(tracer, result, error):
    if isinstance(error, ValueError):
        tracer.count("equilibria.canonical_certificate", "failed", 1)


_BEFORE = {
    "optsolver.opt_makespan": _opt_before,
    "equilibria.enumerate_equilibria": _enum_before,
    "rules.batch": _batch_before,
}
_AFTER = {
    "equilibria.enumerate_equilibria": _enum_after,
    "equilibria.verify_equilibrium": _verify_after,
    "equilibria.canonical_certificate": _certificate_after,
}
