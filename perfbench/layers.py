"""Per-layer wall-time attribution for the benchmark's traced runs.

:func:`install` wraps the public entry points of each simulator layer,
from outside the program: module functions and class methods are
replaced by wrappers that record a span (name, start, end, parent) per
call. A layer's *self time* is its spans' duration minus the part their
child spans cover, so nested layers never count twice.

Per-line cache and protocol calls run millions of times in one sweep.
Their wrappers keep the same self-time accounting but fold each call
into a count and a total on the spot instead of keeping a span, which
bounds the trace's memory. Every other span is kept in memory and
written out by :meth:`SpanRecorder.write_spans` when the run ends.

State is per thread: the job server runs simulations on worker threads,
and each thread has its own span stack. Totals are merged on read.

Layers and the functions wrapped (``repro.<module>``):

========== =========================================================
workloads  ``workloads.base.interned_runs_for_arg`` (also where
           ``gpu.sim`` imported it by name), ``prewarm_workload_traces``
memory     ``memory.npcache.NumpyCacheCore``: ``access``/``fill``
           (per line) and ``bulk_access``/``bulk_fill``/``bulk_serve``/
           ``bulk_flush``/``bulk_invalidate``
coherence  ``access``/``access_run`` of every protocol class
gpu        ``gpu.sim.Simulator.run``
cp, core   ``cp.global_cp.GlobalCP.launch_next``/``complete`` (the
           table and elision logic runs inside them)
timing     ``timing.model.TimingModel.kernel_time``
memo       ``gpu.memo.KernelMemoizer.lookup_key``, ``MemoStore.get``,
           ``begin_capture``/``end_capture``, ``replay``
engine     ``engine.cache.ResultCache.load``/``store``,
           ``gpu.sim.SimulationResult.to_dict``/``from_dict``
========== =========================================================
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Protocols a figure sweep runs on the 4-chiplet config, in registry
#: order; the per-protocol metrics list exactly these names.
PROTOCOLS = ("baseline", "cpelide", "cpelide-driver", "cpelide-range",
             "cpelide-ts", "hmg", "hmg-wb", "nosync", "timestamp")

_BULK_OPS = ("bulk_access", "bulk_fill", "bulk_serve", "bulk_flush",
             "bulk_invalidate")


class _ThreadState:
    """One thread's span stack and running totals."""

    def __init__(self) -> None:
        #: Open frames: ``[name, start, child seconds, span id]``.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        #: Protocol of the simulation running on this thread.
        self.protocol = "none"
        self.bulk_depth = 0
        self.line_calls: Dict[str, int] = defaultdict(int)
        self.run_s: Dict[str, float] = defaultdict(float)
        self.trace_lines = 0
        self.bulk_lines = 0
        self.cache_hits = 0


class SpanRecorder:
    """Collects spans and per-layer totals from wrapped functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn: Callable, *, keep: bool = True,
             enter: Optional[Callable] = None,
             leave: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call is a span named ``name``.

        ``keep=False`` folds the call into the totals without storing
        the span. ``enter(st, args, kwargs)`` runs before the call;
        ``leave(st, args, kwargs, result, seconds)`` after it returns.
        """
        state = self.state
        ids = self._ids

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1][3] if stack else None
            frame = [name, 0.0, 0.0, next(ids)]
            stack.append(frame)
            if enter is not None:
                enter(st, args, kwargs)
            start = frame[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                seconds = end - start
                st.self_s[name] += seconds - frame[2]
                st.calls[name] += 1
                if stack:
                    stack[-1][2] += seconds
                if keep:
                    st.spans.append((frame[3], name, start, end, parent))
            if leave is not None:
                leave(st, args, kwargs, result, seconds)
            return result

        return functools.update_wrapper(wrapper, fn)

    def line_op(self, fn: Callable) -> Callable:
        """Wrap a per-line cache call. Calls made by a bulk op on its own
        behalf belong to that op and pass straight through."""
        inner = self.span("memory.line", fn, keep=False)
        state = self.state

        def wrapper(*args, **kwargs):
            st = state()
            if st.bulk_depth:
                return fn(*args, **kwargs)
            st.line_calls[st.protocol] += 1
            return inner(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def bulk_op(self, op: str, fn: Callable) -> Callable:
        """Wrap one ``bulk_*`` cache op (outermost calls only)."""
        def enter(st, args, kwargs):
            if op == "bulk_access":
                st.bulk_lines += kwargs["count"]

        inner = self.span("memory.bulk", fn, enter=enter)
        state = self.state

        def wrapper(*args, **kwargs):
            st = state()
            if st.bulk_depth:
                return fn(*args, **kwargs)
            st.bulk_depth = 1
            try:
                return inner(*args, **kwargs)
            finally:
                st.bulk_depth = 0

        return functools.update_wrapper(wrapper, fn)

    # -- output ---------------------------------------------------------

    def merged(self) -> Dict[str, Any]:
        """Every thread's totals folded into one JSON-able dict."""
        with self._lock:
            states = list(self._states)
        out: Dict[str, Any] = {"trace_lines": 0, "bulk_lines": 0,
                               "cache_hits": 0}
        for table in ("self_s", "calls", "line_calls", "run_s"):
            merged: Dict[str, float] = defaultdict(int)
            for st in states:
                for key, value in getattr(st, table).items():
                    merged[key] += value
            out[table] = dict(merged)
        for st in states:
            for key in ("trace_lines", "bulk_lines", "cache_hits"):
                out[key] += getattr(st, key)
        return out

    def write_spans(self, path: str) -> int:
        """Write every kept span as one JSON line ``[id, name, start,
        end, parent id]``; returns the number written."""
        with self._lock:
            states = list(self._states)
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for st in states:
                for span in st.spans:
                    fh.write(json.dumps(span, separators=(",", ":")))
                    fh.write("\n")
                    count += 1
        return count


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _protocol_classes() -> List[type]:
    from repro.coherence import registry  # noqa: F401  (loads builtins)
    from repro.coherence.base import CoherenceProtocol

    seen, todo = [], [CoherenceProtocol]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _simulator_run(rec: SpanRecorder, fn: Callable) -> Callable:
    """``Simulator.run``: names the protocol for nested line counts and
    totals host time and trace lines per protocol."""
    def enter(st, args, kwargs):
        st.protocol = args[0].protocol_name

    def leave(st, args, kwargs, result, seconds):
        st.run_s[result.protocol] += seconds
        st.trace_lines += args[0].last_trace_lines

    return rec.span("gpu.run", fn, enter=enter, leave=leave)


def install() -> SpanRecorder:
    """Wrap every layer's entry points; returns the recorder."""
    from repro.cp import global_cp
    from repro.engine import cache as engine_cache
    from repro.gpu import memo, sim
    from repro.memory import npcache
    from repro.timing import model as timing_model
    from repro.workloads import base as workloads_base

    rec = SpanRecorder()

    runs = rec.span("workloads.runs", workloads_base.interned_runs_for_arg,
                    keep=False)
    workloads_base.interned_runs_for_arg = runs
    sim.interned_runs_for_arg = runs
    workloads_base.prewarm_workload_traces = rec.span(
        "workloads.runs", workloads_base.prewarm_workload_traces)

    core = npcache.NumpyCacheCore
    core.access = rec.line_op(core.access)
    core.fill = rec.line_op(core.fill)
    for op in _BULK_OPS:
        setattr(core, op, rec.bulk_op(op, getattr(core, op)))

    for cls in _protocol_classes():
        if "access" in cls.__dict__:
            cls.access = rec.span("coherence.access", cls.__dict__["access"],
                                  keep=False)
        if "access_run" in cls.__dict__:
            cls.access_run = rec.span("coherence.access_run",
                                      cls.__dict__["access_run"])

    sim.Simulator.run = _simulator_run(rec, sim.Simulator.run)
    global_cp.GlobalCP.launch_next = rec.span(
        "cp.launch", global_cp.GlobalCP.launch_next)
    global_cp.GlobalCP.complete = rec.span(
        "cp.complete", global_cp.GlobalCP.complete)
    timing_model.TimingModel.kernel_time = rec.span(
        "timing.kernel_time", timing_model.TimingModel.kernel_time)

    memoizer = memo.KernelMemoizer
    memoizer.lookup_key = rec.span("memo.lookup", memoizer.lookup_key)
    memo.MemoStore.get = rec.span("memo.lookup", memo.MemoStore.get)
    memoizer.begin_capture = rec.span("memo.capture", memoizer.begin_capture)
    memoizer.end_capture = rec.span("memo.capture", memoizer.end_capture)
    memoizer.replay = rec.span("memo.replay", memoizer.replay)

    def count_hit(st, args, kwargs, result, seconds):
        if result is not None:
            st.cache_hits += 1

    result_cache = engine_cache.ResultCache
    result_cache.load = rec.span("engine.cache_load", result_cache.load,
                                 leave=count_hit)
    result_cache.store = rec.span("engine.cache_store", result_cache.store)
    result_cls = sim.SimulationResult
    result_cls.to_dict = rec.span("engine.serialize", result_cls.to_dict)
    from_dict = result_cls.__dict__["from_dict"].__func__
    result_cls.from_dict = classmethod(rec.span("engine.serialize",
                                                from_dict))
    return rec


def install_line_counter() -> Dict[str, int]:
    """The untraced run's only hook: total trace lines, read off each
    finished ``Simulator.run`` (one attribute read per cell)."""
    from repro.gpu import sim

    counts = {"trace_lines": 0}
    run = sim.Simulator.run

    @functools.wraps(run)
    def counted(self, workload):
        result = run(self, workload)
        counts["trace_lines"] += self.last_trace_lines
        return result

    sim.Simulator.run = counted
    return counts


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def metric_units() -> Dict[str, str]:
    """Per-layer metric names and units, in report order. The runner
    fills in ``server.*`` and ``trace_overhead``."""
    units = {"workloads.runs_s": "s"}
    for protocol in PROTOCOLS:
        units[f"memory.line_calls.{protocol}"] = "count"
    units.update({
        "memory.line_s": "s",
        "memory.bulk_calls": "count",
        "memory.bulk_s": "s",
        "memory.bulk_share": "ratio",
        "coherence.access_s": "s",
        "coherence.access_run_s": "s",
    })
    for protocol in PROTOCOLS:
        units[f"gpu.run_s.{protocol}"] = "s"
    units.update({
        "gpu.self_s": "s",
        "gpu.trace_lines": "count",
        "cp.launch_s": "s",
        "cp.complete_s": "s",
        "cp.acquires_issued": "count",
        "cp.releases_issued": "count",
        "cp.acquires_elided": "count",
        "cp.releases_elided": "count",
        "timing.kernel_time_s": "s",
        "memo.lookup_s": "s",
        "memo.capture_s": "s",
        "memo.replay_s": "s",
        "memo.hits": "count",
        "memo.misses": "count",
        "memo.bypasses": "count",
        "memo.hit_ratio": "ratio",
        "engine.cache_load_s": "s",
        "engine.cache_store_s": "s",
        "engine.cache_hits": "count",
        "engine.serialize_s": "s",
        "server.queue_wait_ms_p50": "ms",
        "server.run_ms_p50": "ms",
        "server.delivery_ms_p50": "ms",
        "server.executed": "count",
        "server.cache_hits": "count",
        "server.rejects": "count",
        "trace_overhead": "ratio",
    })
    return units


def layer_metrics(totals: Dict[str, Any],
                  counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics from :meth:`SpanRecorder.merged` totals and the
    exact result counts ``counts`` (sync ops and memo outcomes summed
    over the results). Layers a run never reached read 0."""
    self_s = defaultdict(float, totals["self_s"])
    calls = defaultdict(int, totals["calls"])
    line_calls = defaultdict(int, totals["line_calls"])
    run_s = defaultdict(float, totals["run_s"])
    trace_lines = totals["trace_lines"]
    out: Dict[str, float] = {"workloads.runs_s": self_s["workloads.runs"]}
    for protocol in PROTOCOLS:
        out[f"memory.line_calls.{protocol}"] = line_calls[protocol]
    out["memory.line_s"] = self_s["memory.line"]
    out["memory.bulk_calls"] = calls["memory.bulk"]
    out["memory.bulk_s"] = self_s["memory.bulk"]
    out["memory.bulk_share"] = (totals["bulk_lines"] / trace_lines
                                if trace_lines else 0.0)
    out["coherence.access_s"] = self_s["coherence.access"]
    out["coherence.access_run_s"] = self_s["coherence.access_run"]
    for protocol in PROTOCOLS:
        out[f"gpu.run_s.{protocol}"] = run_s[protocol]
    out["gpu.self_s"] = self_s["gpu.run"]
    out["gpu.trace_lines"] = trace_lines
    out["cp.launch_s"] = self_s["cp.launch"]
    out["cp.complete_s"] = self_s["cp.complete"]
    for key in ("acquires_issued", "releases_issued", "acquires_elided",
                "releases_elided"):
        out[f"cp.{key}"] = counts.get(key, 0)
    out["timing.kernel_time_s"] = self_s["timing.kernel_time"]
    out["memo.lookup_s"] = self_s["memo.lookup"]
    out["memo.capture_s"] = self_s["memo.capture"]
    out["memo.replay_s"] = self_s["memo.replay"]
    hits, misses = counts.get("memo_hits", 0), counts.get("memo_misses", 0)
    out["memo.hits"] = hits
    out["memo.misses"] = misses
    out["memo.bypasses"] = counts.get("memo_bypasses", 0)
    out["memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["engine.cache_load_s"] = self_s["engine.cache_load"]
    out["engine.cache_store_s"] = self_s["engine.cache_store"]
    out["engine.cache_hits"] = totals["cache_hits"]
    out["engine.serialize_s"] = self_s["engine.serialize"]
    return out
