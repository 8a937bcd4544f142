"""repro.obs — unified telemetry: metrics, trace spans, exporters.

One :class:`Telemetry` object is shared by every layer of an
:class:`~repro.core.system.RgpdOS` instance (block device, journal,
DBFS, shards, DED pipeline, processing store, subject rights).  It
bundles

* a :class:`~repro.obs.registry.MetricsRegistry` (counters, gauges,
  p50/p95/p99 latency histograms),
* a :class:`~repro.obs.tracing.Tracer` (cross-layer spans sharing one
  trace id per request),
* exporters (``snapshot()`` JSON, ``to_prometheus()`` text, JSONL /
  Chrome ``trace_event`` span dumps).

Histograms, counters and gauges are the always-on layer: an
:class:`~repro.core.system.RgpdOS` built without a ``telemetry``
argument gets ``Telemetry(tracing=False)``, whose probes record one
latency sample per operation and open no span.  Spans are opt-in:
pass ``Telemetry()`` to get the span trees as well.

Disabled mode (``Telemetry.disabled()``) hands out shared null
instruments so instrumentation left in the code costs roughly one
attribute check per operation.  ``NULL_TELEMETRY`` is the module-wide
disabled singleton used as the default by layers constructed
standalone.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, TypeVar

from .exporters import parse_prometheus, snapshot, to_prometheus
from .histogram import DEFAULT_BUCKET_BOUNDS_NS, LatencyHistogram
from .registry import (Counter, Gauge, MetricsRegistry, Timer,
                       NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, NULL_TIMER)
from .tracing import NULL_SPAN, Span, Tracer, _Probe, _SpanProbe, _clock

T = TypeVar("T")


class _NullOp:
    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_OP = _NullOp()


class Telemetry:
    """Facade bundling a metrics registry, a tracer, and exporters."""

    def __init__(self, enabled: bool = True, tracing: bool = True,
                 max_spans: int = 20000):
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled and tracing,
                             max_spans=max_spans)

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(enabled=False)

    # -- instruments -----------------------------------------------------

    def counter(self, name: str):
        return self.registry.counter(name)

    def gauge(self, name: str):
        return self.registry.gauge(name)

    def histogram(self, name: str):
        return self.registry.histogram(name)

    def timer(self, name: str):
        return self.registry.timer(name)

    def span(self, name: str, **attrs: object):
        return self.tracer.span(name, **attrs)

    def op(self, name: str, **attrs: object):
        """Latency histogram sample, and a trace span when tracing, for
        one operation.

        One probe per call: the histogram is resolved once, one pair of
        clock reads feeds both instruments, and the span exists only
        when the tracer is on.  The context target is the live
        :class:`Span` (or a shared null span when not tracing), so
        callers may ``span.set_attr(...)`` results discovered
        mid-operation.
        """
        if not self.enabled:
            return _NULL_OP
        histogram = self.registry.histogram(name)
        tracer = self.tracer
        if tracer.enabled:
            return _SpanProbe(tracer, histogram, name, attrs)
        # Built without a Python-level __init__: this is the per-call
        # cost of every untraced operation.
        probe = _Probe()
        probe._histogram = histogram
        return probe

    def measure(self, name: str, thunk: Callable[[], T]) -> Tuple[T, int]:
        """Run ``thunk`` as one operation; return its value and duration.

        For a caller that keeps its own accounting beside the histogram
        (the DED's per-stage ``StageTrace``): one pair of clock reads
        feeds both.  Without tracing no probe object is built; with
        tracing the operation is an :meth:`op` and gets its span.  The
        duration is measured even when telemetry is disabled.
        """
        if self.tracer.enabled:
            probe = self.op(name)
            with probe:
                value = thunk()
            return value, probe.elapsed_ns
        histogram = self.registry.histogram(name)
        start = _clock()
        try:
            value = thunk()
        finally:
            elapsed = _clock() - start
            histogram.observe(elapsed)
        return value, elapsed

    # -- exports ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump of every instrument (collectors refreshed)."""
        return snapshot(self.registry)

    def to_prometheus(self, prefix: str = "repro") -> str:
        return to_prometheus(self.registry, prefix=prefix)

    def export_trace_jsonl(self, path: str) -> int:
        return self.tracer.export_jsonl(path)

    def export_chrome_trace(self, path: str) -> int:
        return self.tracer.export_chrome_trace(path)


NULL_TELEMETRY = Telemetry.disabled()

# The evidence trail has no dependency back into core, so it exports
# eagerly; the audit engine and monitors (repro.obs.audit /
# repro.obs.monitors) import core types and are reached as submodules
# (or lazily via __getattr__) to keep the obs package import-light.
from .evidence import (EvidenceChainError, EvidenceTrail,  # noqa: E402
                       GENESIS_HASH, verify_entries)

_LAZY_EXPORTS = {
    "AuditEngine": ("audit", "AuditEngine"),
    "AuditReport": ("audit", "AuditReport"),
    "resolve_evidence": ("audit", "resolve_evidence"),
    "MonitorDaemon": ("monitors", "MonitorDaemon"),
    "ResidueScrubberMonitor": ("monitors", "ResidueScrubberMonitor"),
    "ResidueWatchlist": ("monitors", "ResidueWatchlist"),
    "TTLWatcherMonitor": ("monitors", "TTLWatcherMonitor"),
    "BreachDeadlineWatcherMonitor": ("monitors",
                                     "BreachDeadlineWatcherMonitor"),
    "JournalBoundWatcherMonitor": ("monitors", "JournalBoundWatcherMonitor"),
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AuditEngine",
    "AuditReport",
    "BreachDeadlineWatcherMonitor",
    "EvidenceChainError",
    "EvidenceTrail",
    "GENESIS_HASH",
    "JournalBoundWatcherMonitor",
    "MonitorDaemon",
    "ResidueScrubberMonitor",
    "ResidueWatchlist",
    "TTLWatcherMonitor",
    "resolve_evidence",
    "verify_entries",
    "Counter",
    "DEFAULT_BUCKET_BOUNDS_NS",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NULL_TIMER",
    "Span",
    "Telemetry",
    "Timer",
    "Tracer",
    "parse_prometheus",
    "snapshot",
    "to_prometheus",
]
