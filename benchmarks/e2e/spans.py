"""Host-time spans for the traced pass of the end-to-end benchmark.

:func:`install` wraps public callables of each layer from outside —
``src/`` is not edited — so every call becomes a :class:`Span` with a
parent (the innermost enclosing span on the same thread) and a point id
(that of the innermost enclosing ``eval.compare``, one per computed
point). Spans stay in memory; :func:`layer_metrics` folds them into the
per-layer metrics and :func:`write_chrome_trace` exports them.

A layer's *total* time sums its outermost spans (a span nested in one of
the same name is not counted twice); its *self* time is each span's
duration minus the time its direct children cover. Install before any
worker process is forked and only in the process that runs the points:
spans recorded in a pool worker stay in that worker.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import statistics
import threading
import time
from pathlib import Path

#: Span names whose time is reported; each becomes ``<name>_s``,
#: ``<name>_self_s`` and ``<name>_share`` metrics.
TIMED = ("eval.compare", "workloads.construct", "workloads.build",
         "graph.recover", "sched.hints", "machine.build", "arch.mapper",
         "core.delta_sim", "baseline.static_sim", "sim.run", "eval.verify",
         "util.cache_key", "util.fingerprint", "store.get", "store.put")


class Span:
    """One timed call, with what the layer's hook recorded about it."""

    __slots__ = ("name", "site", "parent", "point", "tid", "start", "end",
                 "child_s", "events", "tasks", "hit", "identity", "nbytes")

    def __init__(self, name: str, site: str, parent, point, tid: int):
        self.name, self.site, self.parent = name, site, parent
        self.point, self.tid = point, tid
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.events = self.tasks = self.nbytes = 0
        self.hit = None
        self.identity = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def nested_in(self, name: str) -> bool:
        parent = self.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False


class Recorder:
    """In-memory span sink; thread-safe for the server's worker threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._points = itertools.count()
        self._tids: dict[int, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span:
        return self._stack()[-1]

    def wrap(self, name: str, site: str, fn, *, point: bool = False,
             after=None):
        """``fn`` recording one span per call; ``after(span, args,
        result)`` runs once the span is closed, outside its time."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            ident = threading.get_ident()
            tid = recorder._tids.setdefault(ident, len(recorder._tids))
            span = Span(name, site, parent,
                        next(recorder._points) if point
                        else (parent.point if parent else None), tid)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                recorder.spans.append(span)
            if after is not None:
                after(span, args, result)
            return result

        return traced


def install(recorder: Recorder):
    """Wrap every traced callable; returns the function that unwraps them."""
    from repro.arch.mapper import Mapper
    from repro.baseline import static as baseline_static
    from repro.core.delta import Delta
    from repro.eval import cache as eval_cache
    from repro.eval import parallel as eval_parallel
    from repro.eval import runner as eval_runner
    from repro.graph import cache as graph_cache
    from repro.machine.machine import Machine
    from repro.sched import structure as sched_structure
    from repro.sim.engine import Environment
    from repro.sim.fastengine import FastEnvironment
    from repro.util import fingerprint as util_fingerprint
    from repro.workloads.base import Workload

    def point_done(span, args, result):
        span.identity = util_fingerprint.workload_cache_key(args[0])
        span.nbytes = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))

    def recovered(span, args, graph):
        span.tasks = graph.task_count

    def looked_up(span, args, hit):
        span.hit = hit is not None

    def counting(run):
        # Each machine's environment is fresh; count what this call drains.
        @functools.wraps(run)
        def counted(env, *args, **kwargs):
            before = env.events_processed
            try:
                return run(env, *args, **kwargs)
            finally:
                recorder.current().events = env.events_processed - before
        return counted

    targets = [
        (eval_runner, "compare", "eval.compare", point_done),
        (baseline_static, "recover_structure", "graph.recover", recovered),
        (sched_structure, "recover_structure", "graph.recover", recovered),
        (graph_cache, "recover_structure", "graph.recover", recovered),
        (sched_structure, "hints_from_factory", "sched.hints", None),
        (sched_structure, "hints_from_graph", "sched.hints", None),
        (baseline_static, "hints_from_graph", "sched.hints", None),
        (Machine, "build", "machine.build", None),
        (Mapper, "map", "arch.mapper", None),
        (Delta, "run", "core.delta_sim", None),
        (baseline_static.StaticParallel, "run", "baseline.static_sim", None),
        (Environment, "run", "sim.run", None),
        (FastEnvironment, "run", "sim.run", None),
        (eval_cache, "comparison_key", "util.cache_key", None),
        (eval_parallel, "comparison_key", "util.cache_key", None),
        (eval_cache, "comparison_fingerprint", "util.fingerprint", None),
        (util_fingerprint, "comparison_fingerprint", "util.fingerprint",
         None),
        (eval_cache.EvalCache, "get", "store.get", looked_up),
        (eval_cache.EvalCache, "put", "store.put", None),
    ]
    pending = [Workload]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        targets += [(cls, "__init__", "workloads.construct", None),
                    (cls, "build_program", "workloads.build", None),
                    (cls, "check", "eval.verify", None)]

    undo = []
    for owner, attr, name, after in targets:
        raw = vars(owner).get(attr)
        if raw is None or getattr(raw, "__isabstractmethod__", False):
            continue  # inherited or abstract: the defining class is wrapped
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if name == "sim.run":
            fn = counting(fn)
        site = getattr(owner, "__name__", "?")
        traced = recorder.wrap(name, site, fn, after=after,
                               point=name == "eval.compare")
        setattr(owner, attr,
                classmethod(traced) if isinstance(raw, classmethod)
                else traced)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


def layer_metrics(recorder: Recorder, wall_s: float) -> dict:
    """Per-layer metrics from the recorded spans of a pass of ``wall_s``."""
    by_name: dict[str, list[Span]] = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    metrics = {}
    for name in TIMED:
        spans = by_name.get(name, [])
        total = sum(s.duration for s in spans if not s.nested_in(name))
        metrics[f"{name}_s"] = total
        metrics[f"{name}_self_s"] = sum(s.duration - s.child_s
                                        for s in spans)
        metrics[f"{name}_share"] = total / wall_s
    runs = by_name.get("sim.run", [])
    events = sum(s.events for s in runs)
    metrics["sim.events"] = events
    metrics["sim.events_per_s"] = (events / metrics["sim.run_s"]
                                   if events else 0.0)
    metrics["core.delta_events"] = sum(
        s.events for s in runs if s.nested_in("core.delta_sim"))
    metrics["baseline.static_events"] = sum(
        s.events for s in runs if s.nested_in("baseline.static_sim"))

    points = {s.point: s for s in by_name.get("eval.compare", [])}
    recovers = by_name.get("graph.recover", [])
    metrics["eval.points_computed"] = len(points)
    metrics["eval.point_ms_p50"] = (
        statistics.median(s.duration * 1e3 for s in points.values())
        if points else 0.0)
    metrics["eval.result_bytes"] = (
        sum(s.nbytes for s in points.values()) / len(points)
        if points else 0.0)
    tasks: dict = {}
    for span in recovers:
        tasks[span.point] = max(tasks.get(span.point, 0), span.tasks)
    identities = {points[s.point].identity if s.point in points else None
                  for s in recovers}
    metrics["graph.recover_calls_per_point"] = (
        len(recovers) / len(points) if points else 0.0)
    metrics["graph.recover_dup_frac"] = (
        1.0 - len(identities) / len(recovers) if recovers else 0.0)
    metrics["graph.tasks_per_point"] = (
        sum(tasks.values()) / len(tasks) if tasks else 0.0)
    gets = by_name.get("store.get", [])
    metrics["store.hit_rate"] = (sum(1 for s in gets if s.hit) / len(gets)
                                 if gets else 0.0)
    return metrics


def write_chrome_trace(recorder: Recorder, path: Path, label: str) -> None:
    """Chrome-trace JSON (``chrome://tracing``, Perfetto): one complete
    event per span, one track per thread, point id and self time in
    ``args``."""
    index = {id(span): i for i, span in enumerate(recorder.spans)}
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": label}}]
    for i, span in enumerate(recorder.spans):
        args = {"span": i, "site": span.site,
                "self_us": round((span.duration - span.child_s) * 1e6, 3)}
        if span.parent is not None:
            args["parent"] = index[id(span.parent)]
        if span.point is not None:
            args["point"] = span.point
        if span.events:
            args["events"] = span.events
        events.append({"name": span.name, "cat": span.name.split(".")[0],
                       "ph": "X", "pid": 1, "tid": span.tid,
                       "ts": round((span.start - recorder.origin) * 1e6, 3),
                       "dur": round(span.duration * 1e6, 3), "args": args})
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
