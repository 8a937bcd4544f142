"""In-memory span recording around layer calls, and self-time rollups.

A :class:`SpanRecorder` owns the spans of one traced run.  The
benchmark opens one root span per operation (:meth:`SpanRecorder.op`),
which starts a new trace id; every wrapped layer call made while that
root is open becomes a child span of whatever span is innermost.  Calls
made outside an operation (set-up, correctness checks) or from another
thread pass straight through unrecorded.

Spans are ``(span_id, parent_id, trace_id, name, start_ns, end_ns)``
tuples kept in a list and written out as JSONL when the run ends; the
per-layer table is computed from that file by :func:`self_times`.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Span = Tuple[int, int, int, str, int, int]

#: Name given to the root span of each operation.
OP_SPAN = "bench.op"


class SpanRecorder:
    """Collects spans for calls made inside :meth:`op` on one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Side counts taken at the wrapped call sites (blocks scanned,
        #: bytes written), keyed by counter name.
        self.counts: Counter = Counter()
        self.ops = 0
        self._thread = threading.get_ident()
        self._trace_id = 0  # 0: no operation open, record nothing
        self._next_id = 1
        self._stack: List[int] = []

    @contextmanager
    def op(self) -> Iterator[None]:
        """Open the root span of one operation (a fresh trace id)."""
        self.ops += 1
        self._trace_id = self.ops
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, 0, self._trace_id, OP_SPAN, start, end))
            self._trace_id = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[..., Tuple[str, int]]] = None,
    ) -> Callable:
        """``fn`` recording a span called ``name`` on every traced call.

        ``count(*args, **kwargs)`` may return ``(counter, amount)`` to
        add to :attr:`counts` at the same call site.
        """
        recorder = self
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder._trace_id or get_ident() != recorder._thread:
                return fn(*args, **kwargs)
            if count is not None:
                key, amount = count(*args, **kwargs)
                recorder.counts[key] += amount
            span_id = recorder._next_id
            recorder._next_id += 1
            stack = recorder._stack
            parent = stack[-1]
            trace_id = recorder._trace_id
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, trace_id, name, start, end)
                )

        return traced

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, trace_id, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace_id,
                    "name": name, "start_ns": start, "end_ns": end,
                }, separators=(",", ":")))
                out.write("\n")


def read_jsonl(path: str) -> List[Span]:
    """Spans back from a file written by :meth:`SpanRecorder.write_jsonl`."""
    spans: List[Span] = []
    with open(path, encoding="utf-8") as src:
        for line in src:
            s = json.loads(line)
            spans.append((s["id"], s["parent"], s["trace"], s["name"],
                          s["start_ns"], s["end_ns"]))
    return spans


def _covered(start: int, end: int, intervals: List[Tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Iterable[Span]) -> Dict[str, Dict[str, int]]:
    """Per span name: ``calls``, ``total_ns`` and ``self_ns``.

    A span's self time is its duration minus the part of its interval
    covered by its child spans, as a profiler reports exclusive time.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _, parent, _, _, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    table: Dict[str, Dict[str, int]] = {}
    for span_id, _, _, name, start, end in spans:
        row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += (end - start) - _covered(
            start, end, children.get(span_id, [])
        )
    return table


def unattributed_share(table: Dict[str, Dict[str, int]]) -> float:
    """Share of operation time that no wrapped layer call covers."""
    root = table.get(OP_SPAN)
    if not root or not root["total_ns"]:
        return 0.0
    return root["self_ns"] / root["total_ns"]


# ---------------------------------------------------------------------------
# Installing wrappers on classes
# ---------------------------------------------------------------------------


def _is_context_manager_factory(fn: Callable) -> bool:
    inner = getattr(fn, "__wrapped__", None)
    return inner is not None and inspect.isgeneratorfunction(inner)


def public_methods(cls: type) -> List[str]:
    """Public plain methods defined on ``cls`` itself.

    Generator functions and ``@contextmanager`` factories are left out:
    a span around them would time only the creation of the iterator,
    not the work done while the caller consumes it.
    """
    names = []
    for name, value in vars(cls).items():
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if inspect.isgeneratorfunction(value) or _is_context_manager_factory(value):
            continue
        names.append(name)
    return sorted(names)


class Patches:
    """Class attributes replaced by traced wrappers; :meth:`undo` restores."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[type, str, object]] = []

    def method(
        self,
        cls: type,
        attr: str,
        name: str,
        count: Optional[Callable[..., Tuple[str, int]]] = None,
    ) -> None:
        original = vars(cls)[attr]
        self._saved.append((cls, attr, original))
        if isinstance(original, property):
            wrapped = property(self.recorder.wrap(name, original.fget, count))
        else:
            wrapped = self.recorder.wrap(name, original, count)
        setattr(cls, attr, wrapped)

    def layer(self, cls: type, prefix: str, skip: Iterable[str] = ()) -> None:
        """Wrap every public method of ``cls`` as ``<prefix>.<method>``."""
        skip = set(skip)
        for attr in public_methods(cls):
            if attr not in skip:
                self.method(cls, attr, f"{prefix}.{attr}")

    def undo(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()
