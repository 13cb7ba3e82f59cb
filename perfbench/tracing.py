"""Spans around smoothcert's public functions, recorded from the benchmark side.

Nothing in ``src/`` knows about tracing.  ``install`` replaces each name in
``PATCHES`` at the place its caller looks it up (``pipeline.sample_class_sums``
rather than ``classifiers.sample_class_sums``, because ``pipeline`` imported
the name) with a wrapper that records a span, and ``uninstall`` puts the
originals back, so untraced passes run the unmodified code.

A span is ``(id, name, start, end, parent, thread, request, ok)``.  Its
request id is the point id of the ``certify_point`` call (or the ``q/m1/m2``
stats of the ``solve_grid`` radius) that caused it.  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict

__all__ = ["TraceError", "Tracer", "install", "uninstall", "require", "summarize"]


class TraceError(RuntimeError):
    """A traced name is missing, or a workload left a required counter at zero."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        # spans opened on a thread with an empty stack (pool workers) take
        # this span as parent: the run_points call that handed them work
        self._adopter = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, request=None, adopt=False):
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (self._adopter, None)
        sid = next(self._ids)
        # a request id set higher up the stack wins over this call's own
        request = request if inherited is None else inherited
        stack.append((sid, request))
        previous = self._adopter
        if adopt:
            self._adopter = sid
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopter = previous
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), request, ok))

    def add(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "request", "ok")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class _TracedGenerator:
    """Generator proxy that times and counts ``standard_normal`` draws."""

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        out = self._tracer.call("classifiers.standard_normal",
                                self._gen.standard_normal, (size,) + args, kwargs)
        self._tracer.add("classifiers.normals", int(getattr(out, "size", 1)))
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _plain(name, adopt=False, request=None):
    def make(tracer, orig):
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            req = request(args) if request is not None else None
            return tracer.call(name, orig, args, kwargs, req, adopt)
        return traced
    return make


def _generator(tracer, orig):
    @functools.wraps(orig)
    def traced(self):
        return _TracedGenerator(orig(self), tracer)
    return traced


def _directional_radius(tracer, orig):
    @functools.wraps(orig)
    def traced(stats, *args, **kwargs):
        # solve_grid calls this directly; its stats are the request id there
        request = f"{stats.q!r}/{stats.m1!r}/{stats.m2!r}"
        result = tracer.call("certify.directional_radius", orig, (stats,) + args,
                             kwargs, request)
        if result.fallback_used:
            tracer.add("certify.fallback")
        return result
    return traced


def _solve_system(tracer, orig):
    @functools.wraps(orig)
    def traced(residual, *args, **kwargs):
        def counted(theta):
            return tracer.call("certify.dual_residual", residual, (theta,))
        return tracer.call("numerics.solve_system", orig, (counted,) + args, kwargs)
    return traced


# (module, owner inside the module or "", attribute, wrapper factory).
# Span names are "<layer>.<function>", the layer being the module that
# defines the function.
PATCHES = [
    ("classifiers", "RngSpec", "generator", _generator),
    ("classifiers", "LinearClassifier", "classify_batch",
     _plain("classifiers.classify_batch")),
    ("pipeline", "", "sample_class_sums", _plain("classifiers.sample_class_sums")),
    ("pipeline", "", "batch_for_class", _plain("classifiers.batch_for_class")),
    ("pipeline", "", "split_alpha", _plain("estimate.split_alpha")),
    ("pipeline", "", "estimate_q_lower", _plain("estimate.estimate_q_lower")),
    ("pipeline", "", "l2_norm_bounds", _plain("estimate.l2_norm_bounds")),
    ("pipeline", "", "linf_norm_bounds", _plain("estimate.linf_norm_bounds")),
    ("pipeline", "", "l1_norm_bounds", _plain("estimate.l1_norm_bounds")),
    ("pipeline", "", "subspace_norm_bounds", _plain("estimate.subspace_norm_bounds")),
    ("certify", "", "radius_l1_first", _plain("certify.radius_l1_first")),
    ("certify", "", "radius_l2_first", _plain("certify.radius_l2_first")),
    ("certify", "", "radius_linf_first", _plain("certify.radius_linf_first")),
    ("certify", "", "directional_radius", _directional_radius),
    ("certify", "", "solve_dual", _plain("certify.solve_dual")),
    ("certify", "", "solve_system", _solve_system),
    ("certify", "", "bisect_root", _plain("numerics.bisect_root")),
    ("pipeline", "", "certify_point",
     _plain("pipeline.certify_point", request=lambda args: args[0].point_id)),
    ("pipeline", "", "run_points", _plain("pipeline.run_points", adopt=True)),
    ("pipeline", "", "persist_run", _plain("pipeline.persist_run")),
]


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap every name in PATCHES; returns what ``uninstall`` needs."""
    saved = []
    try:
        for module_name, owner_name, attr, factory in PATCHES:
            owner = modules[module_name]
            if owner_name:
                owner = getattr(owner, owner_name, None)
            orig = owner.__dict__.get(attr) if owner is not None else None
            if not callable(orig):
                raise TraceError(
                    f"cannot trace {module_name}.{owner_name + '.' if owner_name else ''}"
                    f"{attr}: the name is missing")
            setattr(owner, attr, factory(tracer, orig))
            saved.append((owner, attr, orig))
    except TraceError:
        uninstall(saved)
        raise
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)


def require(tracer: Tracer, names, workload: str) -> None:
    """Raise unless every span or counter in ``names`` was recorded."""
    recorded = {s[1] for s in tracer.spans} | {c for c, n in tracer.counts.items() if n}
    missing = [name for name in names if name not in recorded]
    if missing:
        raise TraceError(f"{workload}: traced run recorded nothing for {', '.join(missing)}")


def percentile(values, share: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered) - 1e-9))
    return ordered[rank - 1]


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> the part of its duration that no child span covers.

    Same-thread children nest inside their parent, so their durations add
    up.  Children on other threads (pool workers) run concurrently; the time
    they cover is the parent waiting for them, which is not its own work.
    """
    by_id = {s[0]: s for s in spans}
    nested: dict = defaultdict(float)
    concurrent: dict = defaultdict(list)
    for sid, _, start, end, parent, thread, _, _ in spans:
        owner = by_id.get(parent)
        if owner is None:
            continue
        if owner[5] == thread:
            nested[parent] += end - start
        else:
            concurrent[parent].append((start, end))
    return {s[0]: max(0.0, s[3] - s[2] - nested[s[0]] - _union_length(concurrent[s[0]]))
            for s in spans}


LAYERS = ("classifiers", "estimate", "certify", "numerics", "pipeline")


def summarize(tracer: Tracer, root_name: str, points: int, jobs: int) -> dict:
    """Per-layer metrics from the spans of the traced passes.

    Times marked per point are divided by ``points``, the number of points
    (or radii) the traced passes completed.  ``trace.accounted_frac`` is the
    layers' summed self time over ``jobs`` times the wall time of the
    ``root_name`` spans: the share of the run's thread time that the layers
    account for.
    """
    spans = tracer.spans
    counts = tracer.counts
    names = {s[0]: s[1] for s in spans}
    own = self_times(spans)
    dur = defaultdict(list)
    for s in spans:
        dur[s[1]].append(s[3] - s[2])

    def total(name):
        return sum(dur[name])

    def per_point(value):
        return value / points if points else 0.0

    def entry_time(name):
        # threat entry points called by the pipeline itself; linf via l2
        # calls radius_l2_first again, and that nested call is linf's time
        return sum(s[3] - s[2] for s in spans
                   if s[1] == name and names.get(s[4]) == "pipeline.certify_point")

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s[1].split(".", 1)[0]] += own[s[0]]
    roots = [s for s in spans if s[1] == root_name]
    root_wall = sum(s[3] - s[2] for s in roots)
    accounted = sum(layer_self[layer] for layer in LAYERS)

    normals = counts["classifiers.normals"]
    sampling = total("classifiers.sample_class_sums")
    estimate_names = [n for n in dur if n.startswith("estimate.")]
    solves = [s for s in spans if s[1] == "numerics.solve_system"]
    radii = len(dur["certify.directional_radius"])
    run_wall = total("pipeline.run_points")
    metrics = {
        "classifiers.rng_s": per_point(total("classifiers.standard_normal")),
        "classifiers.classify_s": per_point(total("classifiers.classify_batch")),
        "classifiers.accumulate_s": per_point(sum(
            own[s[0]] for s in spans if s[1] == "classifiers.sample_class_sums")),
        "classifiers.normals": per_point(normals),
        "classifiers.normals_per_s": normals / sampling if sampling else 0.0,
        "estimate.s": per_point(sum(total(n) for n in estimate_names)),
        "estimate.calls": per_point(sum(len(dur[n]) for n in estimate_names)),
        "certify.l1_s": per_point(entry_time("certify.radius_l1_first")),
        "certify.l2_s": per_point(entry_time("certify.radius_l2_first")),
        "certify.linf_s": per_point(entry_time("certify.radius_linf_first")),
        "certify.directional_radius.calls": per_point(radii),
        "certify.directional_radius.samples": radii,
        "certify.directional_radius.p50_s": percentile(dur["certify.directional_radius"], 0.5),
        "certify.directional_radius.p90_s": percentile(dur["certify.directional_radius"], 0.9),
        "certify.solve_dual.calls": per_point(len(dur["certify.solve_dual"])),
        "certify.fallback_frac": counts["certify.fallback"] / radii if radii else 0.0,
        "numerics.solve_system.calls": per_point(len(solves)),
        "numerics.solve_system.converged_frac":
            sum(1 for s in solves if s[7]) / len(solves) if solves else 0.0,
        "numerics.residual_evals": per_point(len(dur["certify.dual_residual"])),
        "numerics.bisect_root.calls": per_point(len(dur["numerics.bisect_root"])),
        "pipeline.point.samples": len(dur["pipeline.certify_point"]),
        "pipeline.point.p50_s": percentile(dur["pipeline.certify_point"], 0.5),
        "pipeline.point.p90_s": percentile(dur["pipeline.certify_point"], 0.9),
        "pipeline.busy_frac":
            total("pipeline.certify_point") / (jobs * run_wall) if run_wall else 0.0,
        "pipeline.persist_s":
            total("pipeline.persist_run") / len(roots) if roots else 0.0,
        "trace.accounted_frac": accounted / (jobs * root_wall) if root_wall else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_point(layer_self[layer])
    return metrics
