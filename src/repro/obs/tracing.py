"""Cross-layer trace spans.

One :class:`Tracer` is shared by every layer of a system.  A span opened
while another span is active becomes its child and inherits the trace
id, so a single ``ps_invoke`` produces one trace whose tree mirrors the
paper's request path: syscall -> DED stage pipeline -> membrane check ->
DBFS op -> journal commit -> block I/O.  Spans carry free-form
attributes (subject_id, purpose, shard index, cache hit/miss) set either
at creation or mid-flight via :meth:`Span.set_attr`.

Determinism and bounds:

* ids come from per-tracer monotonic counters, not randomness, so two
  identical serial runs produce identical trace structures (concurrent
  runs keep unique ids but may interleave assignment order);
* finished spans live in a bounded ring buffer (``max_spans``); a
  long-running system can stay traced without unbounded memory;
* the active-span stack is **per thread** (``threading.local``): each
  request-engine worker builds its own span tree, so a span opened on
  one thread can never be adopted as the parent of another thread's
  span.  The ring-buffer append and the id counters are single atomic
  operations under CPython, so finished spans from all threads land in
  one shared, bounded buffer without a lock.

A probe is one timed operation in one ``with``: ``_SpanProbe`` opens a
span (and, for :meth:`repro.obs.Telemetry.op`, feeds a latency
histogram from the same two clock reads); the untraced ``_Probe`` only
feeds the histogram.

Exports: JSONL (one span per line, loadable with ``json.loads``) and
the Chrome ``trace_event`` format (open in ``chrome://tracing`` or
Perfetto).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional


class Span:
    """One timed, attributed node in a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name",
                 "start_ns", "end_ns", "attrs")

    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str,
                 start_ns: int, attrs: Dict[str, object]):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.attrs = attrs

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_us(self) -> float:
        return self.duration_ns / 1000.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id}, "
                f"dur={self.duration_us:.1f}us)")


class _NullSpan:
    """Shared no-op stand-in returned by a disabled tracer."""

    __slots__ = ()
    trace_id = span_id = 0
    parent_id = None
    name = ""
    attrs: Dict[str, object] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attr(self, key: str, value: object) -> None:
        pass

    def set_attrs(self, **attrs: object) -> None:
        pass


NULL_SPAN = _NullSpan()


_clock = time.perf_counter_ns


class _Probe:
    """One timed operation: one pair of clock reads, one histogram sample."""

    __slots__ = ("_histogram", "_start_ns")

    def __enter__(self):
        self._start_ns = _clock()
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._histogram.observe(_clock() - self._start_ns)
        return False


class _SpanProbe(_Probe):
    """A probe that also opens a span, timed by the same clock reads.

    Without a histogram (a bare :meth:`Tracer.span`) it only traces.
    ``elapsed_ns`` holds the measured duration after exit, so a caller
    keeping its own accounting reads the same measurement instead of
    timing the operation a second time.
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_stack",
                 "elapsed_ns")

    def __init__(self, tracer: "Tracer", histogram,
                 name: str, attrs: Dict[str, object]):
        self._histogram = histogram
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._thread_stack()
        if stack:
            parent = stack[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(tracer._trace_ids), None
        self._start_ns = start = _clock()
        span = Span(trace_id, next(tracer._span_ids), parent_id,
                    self._name, start, self._attrs)
        stack.append(span)
        self._stack = stack
        self._span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = _clock()
        self.elapsed_ns = elapsed = end - self._start_ns
        span = self._span
        span.end_ns = end
        # A ``with`` block enters and exits on one thread, so the stack
        # captured on enter is this thread's stack.
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # exception unwound out of order; stay consistent
            try:
                stack.remove(span)
            except ValueError:
                pass
        self._tracer._finished.append(span)
        histogram = self._histogram
        if histogram is not None:
            histogram.observe(elapsed)
        return False


class Tracer:
    """Factory and bounded buffer for spans."""

    def __init__(self, enabled: bool = True, max_spans: int = 20000):
        self.enabled = enabled
        self.max_spans = max_spans
        # deque.append with a maxlen is a single atomic operation under
        # CPython, so concurrent workers share this buffer lock-free.
        self._finished: Deque[Span] = deque(maxlen=max_spans)
        # One active-span stack per thread: parentage is a property of
        # the call stack, and call stacks are per-thread.
        self._stacks = threading.local()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    def _thread_stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def span(self, name: str, **attrs: object):
        """Open a child of the innermost active span (or a new trace)."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanProbe(self, None, name, attrs)

    @property
    def current_span(self) -> Optional[Span]:
        """The calling thread's innermost active span, if any."""
        stack = self._thread_stack()
        return stack[-1] if stack else None

    # -- reads -----------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return list(self._finished)

    def traces(self) -> Dict[int, List[Span]]:
        """Finished spans grouped by trace id, each sorted by start."""
        grouped: Dict[int, List[Span]] = {}
        for span in self._finished:
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: (s.start_ns, s.span_id))
        return grouped

    def clear(self) -> None:
        self._finished.clear()

    def __len__(self) -> int:
        return len(self._finished)

    # -- exports ---------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per finished span; returns span count."""
        spans = sorted(self._finished, key=lambda s: (s.start_ns, s.span_id))
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
        return len(spans)

    def export_chrome_trace(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON (complete 'X' events)."""
        spans = sorted(self._finished, key=lambda s: (s.start_ns, s.span_id))
        events = []
        for span in spans:
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": max(span.duration_ns / 1000.0, 0.001),
                "pid": 1,
                "tid": span.trace_id,
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
        return len(events)
