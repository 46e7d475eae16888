"""Spans around the program's public entry points, kept in memory.

The benchmark traces from its own files: :func:`instrument` swaps each
layer's public function for a wrapper that records a span (name,
start, end, the span that caused it, the run id) and a work count, and
puts the originals back on exit.  Nothing under ``src/`` knows about
it.  A traced run alternates: :func:`traced_pass` instruments the odd
passes only, so each traced pass has an untraced neighbour run in the
same phase of the machine, and their difference is the tracing
overhead.  The span that caused a span is tracked per asyncio task
with a context variable, so the shard actor's work is never mistaken
for a child of the socket handler that enqueued it.

:func:`layer_metrics` turns the spans recorded inside the timed
windows into the per-layer metrics, normalised per window (one window
is one timed pass or request), and :func:`self_time_table` prints the
per-layer self-time summary.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import itertools
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Span name -> the repository module (layer) it measures.
LAYER_OF = {
    "messages.decode": "service.messages",
    "supervisor.pack": "service.supervisor",
    "supervisor.inject": "service.supervisor",
    "supervisor.snapshot": "service.supervisor",
    "shard.put": "service.shard",
    "shard.serve_packed": "service.shard",
    "fleet.run": "runtime.fleet",
    "fleet.prepare_events": "runtime.fleet",
    "fleet.dispatch_ids": "runtime.fleet",
    "petrinet.compile_net": "petrinet",
    "qss.analyse": "qss",
    "codegen.synthesize": "codegen",
    "codegen.emit_c": "codegen",
}

#: Spans that wait on another asyncio task rather than work themselves.
WAIT_SPANS = frozenset({"supervisor.snapshot", "shard.put"})

# Span record layout: [id, name, start, end, parent id, work count, extra]
_ID, _NAME, _START, _END, _PARENT, _COUNT, _EXTRA = range(7)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        #: Timed windows ``(start, end)``: one per pass or request.
        self.windows: List[Tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0
        )

    def wrap(
        self,
        name: str,
        fn: Callable,
        measure: Optional[Callable[[tuple, Any], Tuple[int, Any]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``measure(args, result)`` returns ``(work count, extra)`` for
        the span; a call that raises records ``extra={"error": name of
        the exception}`` and re-raises.
        """
        spans = self.spans
        ids = self._ids
        current = self._current
        clock = time.perf_counter

        def record(span_id, parent, start, args, result, error) -> None:
            end = clock()
            if error is not None:
                count, extra = 0, {"error": type(error).__name__}
            elif measure is not None:
                count, extra = measure(args, result)
            else:
                count, extra = 0, None
            spans.append([span_id, name, start, end, parent, count, extra])

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id = next(ids)
                parent = current.get()
                token = current.set(span_id)
                start = clock()
                result = error = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                except Exception as exc:
                    error = exc
                    raise
                finally:
                    current.reset(token)
                    record(span_id, parent, start, args, result, error)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                current.reset(token)
                record(span_id, parent, start, args, result, error)

        return traced

    def records(self) -> List[Dict[str, Any]]:
        """Every span as a JSON-ready dict (written once, at the end)."""
        out = []
        for span_id, name, start, end, parent, count, extra in self.spans:
            record = {
                "run": self.run_id,
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent or None,
                "count": count,
            }
            if extra:
                record.update(extra)
            out.append(record)
        for index, (start, end) in enumerate(self.windows):
            out.append(
                {"run": self.run_id, "window": index, "start": start, "end": end}
            )
        return out


# ----------------------------------------------------------------------
# Instrumentation of the layers' public entry points
# ----------------------------------------------------------------------
def _events_in(message) -> int:
    if hasattr(message, "events"):
        return len(message.events)
    if hasattr(message, "sources"):
        return len(message)
    return 1 if hasattr(message, "instance") else 0


def _decoded(args, result):
    line = args[0]
    return _events_in(result), {"bytes": len(line) + 1}


def _snapshot(args, result):
    return 0, {"queue_depth": max((s.queue_depth for s in result.shards), default=0)}


def _analysed(args, result):
    return 1, {
        "allocations": result.allocation_count,
        "reductions": result.reduction_count,
    }


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Trace every layer's public entry points for the ``with`` body."""
    from repro.runtime.fleet import FleetEngine, FleetSimulator
    from repro.service.shard import ShardActor, ShardCore
    from repro.service.supervisor import FleetSupervisor

    # imported by path: the package attribute ``repro.codegen.emit_c``
    # is the function of that name, not its module
    emit_c, generator, compiled, scheduler, ingest = (
        importlib.import_module(f"repro.{path}")
        for path in (
            "codegen.emit_c",
            "codegen.generator",
            "petrinet.compiled",
            "qss.scheduler",
            "service.ingest",
        )
    )

    restore: List[Tuple[Any, str, Any]] = []

    def method(owner, attr, name, measure=None) -> None:
        original = owner.__dict__[attr]
        restore.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, measure))

    def function(module, attr, name, measure=None) -> None:
        # patch every repro module that bound the function by name
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and mod.__dict__.get(attr) is original:
                restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    function(ingest, "decode_message", "messages.decode", _decoded)
    method(FleetSupervisor, "pack", "supervisor.pack", lambda a, r: (len(r), None))
    method(
        FleetSupervisor, "inject", "supervisor.inject",
        lambda a, r: (_events_in(a[1]), None),
    )
    method(FleetSupervisor, "snapshot", "supervisor.snapshot", _snapshot)
    method(ShardActor, "put", "shard.put")
    method(ShardCore, "serve_packed", "shard.serve_packed", lambda a, r: (r, None))
    method(
        FleetEngine, "prepare_events", "fleet.prepare_events",
        lambda a, r: (len(a[1]), None),
    )
    method(
        FleetEngine, "dispatch_ids", "fleet.dispatch_ids",
        lambda a, r: (len(a[2]), None),
    )
    method(
        FleetSimulator, "run", "fleet.run",
        lambda a, r: (r.stats.events_processed, None),
    )
    function(compiled, "compile_net", "petrinet.compile_net")
    function(scheduler, "analyse", "qss.analyse", _analysed)
    function(generator, "synthesize", "codegen.synthesize")
    function(
        emit_c, "emit_c", "codegen.emit_c", lambda a, r: (r.lines_of_code, None)
    )
    try:
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def is_traced(tracer: Optional[Tracer], index: int) -> bool:
    """Whether pass ``index`` of a run is traced: the odd ones, if any."""
    return tracer is not None and index % 2 == 1


@contextmanager
def traced_pass(tracer: Optional[Tracer], index: int) -> Iterator[bool]:
    """Instrument pass ``index`` if :func:`is_traced`; yields whether it is."""
    if is_traced(tracer, index):
        with instrument(tracer):
            yield True
    else:
        yield False


def overhead(windows: Sequence[float]) -> Tuple[float, float]:
    """Tracing overhead of a run whose odd windows were traced.

    The median, over the pairs (window ``2i``, window ``2i + 1``), of
    the traced minus the untraced time, in seconds and in percent of
    the untraced time.
    """
    pairs = list(zip(windows[0::2], windows[1::2]))
    return (
        statistics.median(traced - untraced for untraced, traced in pairs),
        statistics.median(
            100.0 * (traced - untraced) / untraced for untraced, traced in pairs
        ),
    )


# ----------------------------------------------------------------------
# Per-layer metrics and the self-time summary
# ----------------------------------------------------------------------
def _union(intervals: Sequence[Tuple[float, float]]) -> float:
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def _in_windows(spans: Sequence[list], windows) -> List[list]:
    """The spans that start inside one of the (disjoint) windows."""
    bounds = sorted(windows)
    starts = [lo for lo, _ in bounds]
    inside = []
    for span in spans:
        k = bisect.bisect_right(starts, span[_START]) - 1
        if k >= 0 and span[_START] <= bounds[k][1]:
            inside.append(span)
    return inside


def _self_times(spans: Sequence[list]) -> Dict[int, float]:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[_PARENT]:
            children.setdefault(span[_PARENT], []).append(
                (span[_START], span[_END])
            )
    out = {}
    for span in spans:
        start, end = span[_START], span[_END]
        covered = _union(
            [
                (max(lo, start), min(hi, end))
                for lo, hi in children.get(span[_ID], ())
                if hi > start and lo < end
            ]
        )
        out[span[_ID]] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the spans inside the timed windows.

    Times and work counts are per window (per timed pass); rates and
    averages are ratios over all windows.  ``petrinet.compile_net_s``
    is the mean time of one ``compile_net`` call over the whole run,
    set-up included, since that is where the program compiles its nets.
    """
    passes = max(1, len(tracer.windows))
    spans = _in_windows(tracer.spans, tracer.windows)
    self_time = _self_times(tracer.spans)

    def named(name):
        return [s for s in spans if s[_NAME] == name]

    def total(name) -> float:
        return sum(s[_END] - s[_START] for s in named(name))

    def work(name) -> int:
        return sum(s[_COUNT] for s in named(name))

    def self_total(name) -> float:
        return sum(self_time[s[_ID]] for s in named(name))

    def extra_sum(name, key) -> int:
        return sum((s[_EXTRA] or {}).get(key, 0) for s in named(name))

    def rate(count, seconds) -> float:
        return count / seconds if seconds > 0 else 0.0

    decodes = named("messages.decode")
    serves = named("shard.serve_packed")
    dispatches = named("fleet.dispatch_ids")
    ingest_self = 0.0
    if decodes:
        # the socket workload: the serving process does nothing but
        # serve this connection, so window time no span covers is the
        # ingest loop itself (socket reads, line splitting, replies)
        for lo, hi in tracer.windows:
            inside = [
                (max(s[_START], lo), min(s[_END], hi))
                for s in spans
                if s[_END] > lo and s[_START] < hi
            ]
            ingest_self += (hi - lo) - _union(inside)
    snapshots = [s for s in tracer.spans if s[_NAME] == "supervisor.snapshot"]
    compiles = [s for s in tracer.spans if s[_NAME] == "petrinet.compile_net"]
    metrics = {
        "messages.decode_s": total("messages.decode") / passes,
        "messages.decode_events_per_s": rate(
            work("messages.decode"), total("messages.decode")
        ),
        "messages.protocol_errors": sum(
            1 for s in decodes if (s[_EXTRA] or {}).get("error")
        ),
        "ingest.self_s": ingest_self / passes,
        "ingest.bytes_in": extra_sum("messages.decode", "bytes") / passes,
        "supervisor.pack_s": total("supervisor.pack") / passes,
        "supervisor.pack_events_per_s": rate(
            work("supervisor.pack"), total("supervisor.pack")
        ),
        "supervisor.route_s": self_total("supervisor.inject") / passes,
        "supervisor.barrier_wait_s": total("supervisor.snapshot") / passes,
        "shard.serve_s": total("shard.serve_packed") / passes,
        "shard.serve_self_s": self_total("shard.serve_packed") / passes,
        "shard.events_per_serve": (
            work("shard.serve_packed") / len(serves) if serves else 0.0
        ),
        "shard.queue_depth_max": max(
            ((s[_EXTRA] or {}).get("queue_depth", 0) for s in snapshots),
            default=0,
        ),
        "shard.inbox_wait_s": total("shard.put") / passes,
        "fleet.dispatch_s": total("fleet.dispatch_ids") / passes,
        "fleet.dispatch_calls": len(dispatches) / passes,
        "fleet.events_per_dispatch": (
            work("fleet.dispatch_ids") / len(dispatches) if dispatches else 0.0
        ),
        "fleet.prepare_s": total("fleet.prepare_events") / passes,
        "fleet.run_self_s": self_total("fleet.run") / passes,
        "petrinet.compile_net_s": (
            sum(s[_END] - s[_START] for s in compiles) / len(compiles)
            if compiles
            else 0.0
        ),
        "qss.analyse_s": total("qss.analyse") / passes,
        "qss.allocations": extra_sum("qss.analyse", "allocations") / passes,
        "qss.reductions": extra_sum("qss.analyse", "reductions") / passes,
        "codegen.synthesize_s": total("codegen.synthesize") / passes,
        "codegen.emit_s": total("codegen.emit_c") / passes,
        "codegen.c_lines": work("codegen.emit_c") / passes,
        "trace.window_s": sum(hi - lo for lo, hi in tracer.windows) / passes,
        "trace.spans": len(tracer.spans),
    }
    return metrics


def self_time_table(tracer: Tracer) -> List[str]:
    """Per-layer busy self time and waits inside the timed windows.

    Waiting spans (a snapshot barrier, a put on a full inbox) overlap
    the work of other asyncio tasks, so they are listed apart from the
    busy time, whose shares of the window add up to at most 100%.
    """
    spans = _in_windows(tracer.spans, tracer.windows)
    self_time = _self_times(tracer.spans)
    window = sum(hi - lo for lo, hi in tracer.windows) or 1.0
    passes = max(1, len(tracer.windows))
    rows: Dict[str, List[float]] = {}
    for span in spans:
        label = (
            f"{span[_NAME]} (wait)"
            if span[_NAME] in WAIT_SPANS
            else LAYER_OF[span[_NAME]]
        )
        entry = rows.setdefault(label, [0, 0.0])
        entry[0] += 1
        entry[1] += self_time[span[_ID]]
    lines = [
        f"{'layer':<28} {'calls/pass':>11} {'self s/pass':>12} {'share':>7}"
    ]
    for label, (calls, self_s) in sorted(
        rows.items(), key=lambda item: ("(wait)" in item[0], -item[1][1])
    ):
        lines.append(
            f"{label:<28} {calls / passes:>11.1f} {self_s / passes:>12.6f} "
            f"{100.0 * self_s / window:>6.1f}%"
        )
    return lines
