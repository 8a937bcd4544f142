"""TELEMETRY per persona — the default probes' cost on every GDPRBench mix.

``test_telemetry_overhead`` measures full tracing on the ``customer``
mix only, where the erase scan hides any per-op probe cost.  This file
measures what every system pays when nobody asks for telemetry: the
default ``RgpdOS`` telemetry (histograms, counters and gauges; no spans)
against ``Telemetry.disabled()``, on each of perfbench's four persona
workloads.

Method, as perfbench's ``--trace 1`` measures ``obs.telemetry_cost_ratio``:
two systems built from the same seed, both warmed, run the same op list
in alternating chunks.  Each pair of chunks (the same ops on both
systems, the side that goes first alternating) gives one ratio of
summed op latencies, default over disabled.  Pairs run until the default
side has ``SECONDS`` of timed ops and there are at least ``MIN_PAIRS``;
the reported figure is their median, which a host hiccup in a few
pairs does not move.  ``perfbench/workloads.py`` is imported read-only
for the populations, op lists and closed loop.

Unlike perfbench, the pairs run with the two loaded systems frozen out
of the garbage collector (``gc.freeze()`` after set-up).  A full
collection walks both populations and pauses for ~0.5 s on processor,
several times the length of a chunk; it lands on whichever side happens
to be running and says nothing about telemetry.  Objects the ops
allocate are still collected as usual.

Gate: processor, the purpose-read persona with the most probes per unit
of work, stays within ``MAX_RATIO``; all four ratios are recorded in
``BENCH_telemetry.json``.
"""

import gc
import statistics
import sys

import pytest

from bench_util import REPO_ROOT, merge_metric
from conftest import print_series

sys.path.append(str(REPO_ROOT / "perfbench"))
from workloads import WORKLOADS, ClosedLoop, check_erasures, set_up  # noqa: E402

SECONDS = 6.0
MIN_PAIRS = 7
SEED = 3
MAX_RATIO = 1.10
GATED = ("processor",)


def _timed_ns(loop):
    return sum(loop.result.latency_ns)


def _run_pairs(default, quiet):
    ratios = []
    while len(ratios) < MIN_PAIRS or _timed_ns(default) < SECONDS * 1e9:
        before = _timed_ns(default), _timed_ns(quiet)
        order = (default, quiet) if len(ratios) % 2 == 0 else (quiet, default)
        for loop in order:
            loop.step()
        ratios.append(
            (_timed_ns(default) - before[0]) / (_timed_ns(quiet) - before[1])
        )
    return ratios


def _pair_ratios(workload):
    """Default-over-disabled ratios, one per pair, and what the default
    system recorded."""
    default = ClosedLoop(workload, set_up(workload, SEED), SEED)
    quiet = ClosedLoop(workload, set_up(workload, SEED, telemetry=False), SEED)
    for loop in (default, quiet):
        loop.step()  # warm-up
    gc.collect()
    gc.freeze()
    try:
        ratios = _run_pairs(default, quiet)
    finally:
        gc.unfreeze()
    for loop in (default, quiet):
        check_erasures(loop.setup.adapter.inner.system, loop.setup.model,
                       loop.result.tally)
        assert loop.result.tally.failed == 0, loop.result.tally.reasons
    histograms = set(default.setup.adapter.inner.system.telemetry.registry.histograms)
    spans = len(default.setup.adapter.inner.system.telemetry.tracer)
    return ratios, default.result.ops, histograms, spans


def _spread(ratios, ops):
    """Quartiles and extremes of one persona's pair ratios."""
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {"pairs": len(ratios), "timed_ops": ops, "min": min(ratios),
            "q1": q1, "median": median, "q3": q3, "max": max(ratios)}


@pytest.fixture(scope="module")
def persona_ratios():
    results = {}
    for name, workload in WORKLOADS.items():
        results[name] = _pair_ratios(workload)
        gc.collect()
    rows = [("persona", "median", "min", "max", "pairs", "timed_ops")]
    for name, (ratios, ops, _, _) in results.items():
        rows.append((name, round(statistics.median(ratios), 3),
                     round(min(ratios), 3), round(max(ratios), 3),
                     len(ratios), ops))
    print_series(
        f"TELEMETRY default vs disabled, per persona (median over chunk "
        f"pairs, >= {SECONDS:g} s a side)", rows,
    )
    merge_metric(
        "telemetry", "persona_default_cost_ratio",
        config={"seed": SEED, "seconds": SECONDS, "min_pairs": MIN_PAIRS,
                "default": "RgpdOS default telemetry (no spans)",
                "baseline": "Telemetry.disabled()"},
        samples={name: _spread(ratios, ops)
                 for name, (ratios, ops, _, _) in results.items()},
        extra={"median_ratio": {
            name: round(statistics.median(ratios), 4)
            for name, (ratios, _, _, _) in results.items()
        }},
    )
    return results


def test_default_telemetry_records_histograms_not_spans(persona_ratios):
    """The measured default really is histograms-on, spans-off."""
    for name, (_, _, histograms, spans) in persona_ratios.items():
        assert histograms, f"{name}: default telemetry recorded no histogram"
        assert spans == 0, f"{name}: default telemetry recorded spans"


@pytest.mark.parametrize("persona", GATED)
def test_default_telemetry_cost_within_bound(persona_ratios, persona):
    ratios = persona_ratios[persona][0]
    median = statistics.median(ratios)
    assert median <= MAX_RATIO, (
        f"{persona}: default telemetry costs {median:.3f}x disabled "
        f"(limit {MAX_RATIO:.2f}x; pairs {[round(r, 3) for r in ratios]})"
    )
