"""Named metrics: counters, gauges, histograms, and timers.

The :class:`MetricsRegistry` is the single store every layer publishes
into.  Instruments are created lazily by name (``registry.counter(
"journal.commits")``), so call sites never coordinate; asking twice for
the same name returns the same object.

Two properties matter for the hot paths:

* **disabled mode is near-free** — a disabled registry hands out shared
  null singletons whose methods are empty; call sites can also cache
  ``registry.histogram(...) if registry.enabled else None`` and guard
  with ``is not None`` so the per-op cost is one attribute test.
* **pull-based gauges** — a layer can register a *collector* callback
  that publishes its current state (cache hit counts, live journal
  records, ...) only when somebody actually reads the registry via
  :meth:`MetricsRegistry.collect`.  Steady-state operation pays nothing
  for stats that are only interesting at snapshot time.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Union

from .histogram import LatencyHistogram

Number = Union[int, float]


class Counter:
    """A monotonically increasing named value.

    ``inc`` is locked: ``value += amount`` is a read-modify-write, and
    the request engine runs instrumented code on many threads — an
    unlocked counter silently loses increments under contention.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A named value that can go up and down (locked, like Counter)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self.value -= amount


class Timer:
    """Context manager recording its wall time into a histogram."""

    __slots__ = ("histogram", "_start_ns")

    def __init__(self, histogram: LatencyHistogram):
        self.histogram = histogram
        self._start_ns = 0

    def __enter__(self) -> "Timer":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.histogram.observe(time.perf_counter_ns() - self._start_ns)
        return False


class _NullCounter:
    __slots__ = ()
    name = ""
    value = 0

    def inc(self, amount: Number = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = ""
    value = 0

    def set(self, value: Number) -> None:
        pass

    def inc(self, amount: Number = 1) -> None:
        pass

    def dec(self, amount: Number = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = ""
    count = 0
    sum_ns = 0
    max_ns = 0
    min_ns = None
    mean_ns = 0.0

    def observe(self, duration_ns: int) -> None:
        pass

    def percentile(self, fraction: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "p50_us": 0.0, "p95_us": 0.0,
                "p99_us": 0.0, "max_us": 0.0, "mean_us": 0.0}

    def reset(self) -> None:
        pass


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()
NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Lazy, name-keyed store of counters, gauges, and histograms."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        # Guards lazy instrument creation: without it two threads asking
        # for the same name could each build an instrument, and whoever
        # publishes second silently orphans the other's samples.
        # Reentrant because collectors run under it and may themselves
        # ask the registry for gauges to publish into.
        self._lock = threading.RLock()

    # -- instrument accessors -------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        counter = self.counters.get(name)
        if counter is None:
            with self._lock:
                counter = self.counters.get(name)
                if counter is None:
                    counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE  # type: ignore[return-value]
        gauge = self.gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self.gauges.get(name)
                if gauge is None:
                    gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> LatencyHistogram:
        # Probes ask on every operation: the common hit is one dict get
        # (a disabled registry never holds a histogram).
        histogram = self.histograms.get(name)
        if histogram is None:
            if not self.enabled:
                return NULL_HISTOGRAM  # type: ignore[return-value]
            with self._lock:
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = self.histograms[name] = LatencyHistogram(name)
        return histogram

    def timer(self, name: str) -> Union[Timer, _NullTimer]:
        if not self.enabled:
            return NULL_TIMER
        return Timer(self.histogram(name))

    # -- convenience reads ----------------------------------------------

    def counter_value(self, name: str, default: Number = 0) -> Number:
        counter = self.counters.get(name)
        return counter.value if counter is not None else default

    def gauge_value(self, name: str, default: Number = 0) -> Number:
        gauge = self.gauges.get(name)
        return gauge.value if gauge is not None else default

    # -- collectors ------------------------------------------------------

    def register_collector(
            self, callback: Callable[["MetricsRegistry"], None]) -> None:
        """Register a pull-based publisher run on every :meth:`collect`."""
        if self.enabled:
            with self._lock:
                self._collectors.append(callback)

    def collect(self) -> None:
        """Run every registered collector so gauges reflect live state."""
        with self._lock:
            collectors = list(self._collectors)
        for callback in collectors:
            callback(self)

    # -- export ----------------------------------------------------------

    def as_dict(self, refresh: bool = True) -> Dict[str, Dict[str, object]]:
        """A JSON-safe snapshot of every instrument in the registry."""
        if not self.enabled:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        if refresh:
            self.collect()
        # Snapshot the instrument maps under the lock so a worker
        # creating a new instrument mid-export cannot perturb the sort.
        with self._lock:
            counters = sorted(self.counters.items())
            gauges = sorted(self.gauges.items())
            histograms = sorted(self.histograms.items())
        return {
            "counters": {name: c.value for name, c in counters},
            "gauges": {name: g.value for name, g in gauges},
            "histograms": {name: h.summary() for name, h in histograms},
        }

    def reset(self) -> None:
        for counter in self.counters.values():
            counter.value = 0
        for gauge in self.gauges.values():
            gauge.value = 0
        for histogram in self.histograms.values():
            histogram.reset()
