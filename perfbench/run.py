"""GDPRBench persona benchmark for rgpdOS: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload customer --seed 7 --seconds 10 --trace 0

Workloads: ``customer``, ``controller``, ``processor``, ``regulator``
(see ``workloads.py`` for their populations, layouts and reasons).

``--trace 0`` measures the end-to-end metrics with no wrappers
installed: throughput, latency percentiles over all ops and per op
type, space amplification and peak resident memory of the run, then
set-up time as the median of several set-ups.  ``--trace 1`` makes two
comparisons, each on two systems built from the same seed that run the
same op list in alternating chunks: default telemetry against
``Telemetry.disabled()``, then untraced against traced (spans around
every layer's public methods, written as JSONL).  It reports the
per-layer table derived from the span file plus the two ratios.

Every run checks the program's outputs against a reference model the
benchmark replays itself (and, for erasures, the full-device residue
oracle) outside the timed window.  The human-readable report goes to
stdout, followed by one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run record with the git revision, host,
CPU count, Python version, seed and full configuration is written to
``perfbench/out/``.

Not measured here: the request engine (``workers > 0``), the replicated
cluster and the kernel machine's scheduling have no workload.  Their
recorded speedups come from overlapping simulated IO sleeps and are
about 1.0x CPU-bound; a claim of a gain there needs a workload first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import socket
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Timed ops after which the traced comparison stops (at a chunk
#: boundary): spans stay in memory until the run ends, at ten to
#: thirty spans an op.
TRACE_MAX_OPS = 10_000

#: End-to-end metrics every workload reports in its result line, with
#: their units.  The latency percentiles are printed and recorded but
#: left out here: on ``regulator`` (half audits at ~5 us, half exports
#: at ~130 us) and ``customer`` (half reads) the all-op median falls
#: between two op types and jumps between them from run to run, and the
#: p99 of ~0.1 ms ops moved by up to 0.29 of its median between runs on
#: a shared 2-core host.  With one client, ``ops_per_s`` is the inverse
#: of the mean op latency.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: A metric's reported value, unit and sample count (None: one value).
Reading = Tuple[float, str, Optional[int]]


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> Dict[str, object]:
    return {
        "git_revision": git_revision(ROOT),
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def space_amp(system, model) -> float:
    """PD-device plus journal bytes in use over live user-record bytes.

    The journal's extent is reserved on the PD device; only the journal
    blocks holding live records count, not the whole reservation.
    """
    from workloads import user_bytes

    used = 0
    for device, shard in zip(system.pd_devices, system.dbfs.shards):
        journal = shard.journal
        used += device.used_blocks - journal.reserved_blocks + journal.blocks_in_use
    block_size = system.pd_devices[0].block_size
    live = sum(user_bytes(r) for r in model.records.values())
    return used * block_size / live


def op_metrics(result) -> Dict[str, Reading]:
    """Latency percentiles of one run, over all ops and per op type."""
    from measure import percentile
    from workloads import OP_P50_METRICS

    ms = [ns / 1e6 for ns in result.latency_ns]
    out = {
        "op_p50_ms": (percentile(ms, 0.50), "ms", len(ms)),
        "op_p99_ms": (percentile(ms, 0.99), "ms", len(ms)),
    }
    for op, metric in OP_P50_METRICS.items():
        samples = [v for v, n in zip(ms, result.names) if n == op]
        if samples:
            out[metric] = (percentile(samples, 0.50), "ms", len(samples))
    erase = [ns / 1e6 for ns in result.erase_ns]
    if erase:
        out["erase_p50_ms"] = (percentile(erase, 0.50), "ms", len(erase))
        out["erase_p90_ms"] = (percentile(erase, 0.90), "ms", len(erase))
    return out


def run_end_to_end(workload, args):
    """The untraced run, then the extra set-ups behind ``setup_s``.

    The timed ops run on the first system this process builds, as in a
    user's process; peak memory is read before the extra set-ups.
    """
    from workloads import check_erasures, drive, set_up

    setup = set_up(workload, args.seed)
    result = drive(workload, setup, args.seed, args.seconds)
    system = setup.adapter.inner.system
    check_erasures(system, setup.model, result.tally)
    report: Dict[str, Reading] = {
        "ops_per_s": (result.ops / (result.wall_ns / 1e9), "1/s", result.ops),
        "space_amp": (space_amp(system, setup.model), "ratio", None),
        "peak_rss_mb": (peak_rss_mb(), "MB", None),
        "fail_ratio": (result.tally.fail_ratio, "ratio", result.tally.attempted),
    }
    report.update(op_metrics(result))

    setup_times = [setup.seconds]
    setup = system = None
    for _ in range(SETUP_REPEATS - 1):
        setup_times.append(set_up(workload, args.seed).seconds)
    report["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    detail = {
        "setup_s_samples": setup_times,
        "timed_ops": result.ops,
        "timed_wall_s": result.wall_ns / 1e9,
        "erase_samples": len(result.erase_ns),
        "fail_reasons": result.tally.reasons,
    }
    return report, [(result.tally.attempted, result.tally.failed)], detail


# ---------------------------------------------------------------------------
# Traced run: two interleaved pairs of systems on the same op list
# ---------------------------------------------------------------------------


@contextmanager
def tracing(recorder):
    """Layer wrappers installed for the duration of the block."""
    import layers

    patches = layers.install(recorder)
    try:
        yield
    finally:
        patches.undo()


def run_traced(workload, args):
    """Telemetry cost, then tracing overhead and the per-layer table.

    Each comparison builds two systems from the same seed, warms both
    and runs the same op list on them in alternating chunks.
    """
    import layers
    from spans import SpanRecorder, read_jsonl, self_times
    from workloads import ClosedLoop, check_erasures, interleave, set_up

    def pair(first, second, **options):
        for loop in (first, second):
            loop.step()  # warm-up
        snapshot = layers.cache_counts(second.setup.adapter.inner.system.cache_stats())
        interleave(first, second, args.seconds, **options)
        for loop in (first, second):
            check_erasures(loop.setup.adapter.inner.system, loop.setup.model,
                           loop.result.tally)
        return snapshot

    default = ClosedLoop(workload, set_up(workload, args.seed), args.seed)
    quiet = ClosedLoop(workload, set_up(workload, args.seed, telemetry=False),
                       args.seed)
    pair(default, quiet)
    telemetry_cost = sum(default.result.latency_ns) / sum(quiet.result.latency_ns)
    tallies = [default.result.tally, quiet.result.tally]
    default = quiet = None

    recorder = SpanRecorder()
    plain = ClosedLoop(workload, set_up(workload, args.seed), args.seed)
    with tracing(recorder):
        traced = ClosedLoop(workload, set_up(workload, args.seed), args.seed,
                            recorder=recorder)
    cache_before = pair(plain, traced, max_ops=TRACE_MAX_OPS,
                        around_second=lambda: tracing(recorder))
    system = traced.setup.adapter.inner.system
    cache_after = layers.cache_counts(system.cache_stats())
    tallies += [plain.result.tally, traced.result.tally]
    ops = traced.result.ops
    extra = {
        "bench.trace_overhead_ratio": (
            sum(traced.result.latency_ns) / sum(plain.result.latency_ns)
        ),
        "obs.telemetry_cost_ratio": telemetry_cost,
        "journal.records_end": sum(len(shard.journal) for shard in system.dbfs.shards),
        "user_bytes": traced.setup.model.user_bytes_submitted,
    }
    plain = traced = system = None

    spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.jsonl"
    recorder.write_jsonl(str(spans_path))
    span_count, counts = len(recorder.spans), dict(recorder.counts)
    recorder = None
    table = self_times(read_jsonl(str(spans_path)))
    metrics = layers.per_layer_metrics(
        table, ops, counts, cache_before, cache_after, extra
    )
    units = dict(layers.PER_LAYER)
    report = {m: (v, units[m], ops) for m, v in metrics.items()}
    detail = {
        "traced_ops": ops,
        "span_file": str(spans_path.relative_to(ROOT)),
        "spans": span_count,
        "side_counts": counts,
        "user_bytes_submitted": extra["user_bytes"],
        "self_time_table": {
            name: {
                "calls_per_op": row["calls"] / ops,
                "self_us_per_op": row["self_ns"] / 1000 / ops,
                "total_us_per_op": row["total_ns"] / 1000 / ops,
            }
            for name, row in sorted(
                table.items(), key=lambda item: -item[1]["self_ns"]
            )
        },
        "fail_reasons": [t.reasons for t in tallies],
    }
    return report, [(t.attempted, t.failed) for t in tallies], detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no rgpdOS sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, config

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(valid: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        from layers import PER_LAYER

        report, counts, detail = run_traced(workload, args)
        wanted = [name for name, _ in PER_LAYER]
    else:
        report, counts, detail = run_end_to_end(workload, args)
        wanted = [name for name, _ in END_TO_END]

    attempted = sum(a for a, _ in counts)
    failed = sum(f for _, f in counts)
    print(f"# {workload.name}: {workload.why}")
    for name, (value, unit, samples) in report.items():
        count = f"  (n={samples})" if samples is not None else ""
        print(f"{workload.name:<11} {name:<44} {value:>14.6g} {unit}{count}")
    print(f"{workload.name:<11} {'attempted':<44} {attempted:>14d} ops")
    print(f"{workload.name:<11} {'failed':<44} {failed:>14d} ops")

    record = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(args),
        "config": config(workload),
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in report.items()
        },
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
    }
    record_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1, default=str))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": report[name][0], "unit": report[name][1]}
            for name in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
