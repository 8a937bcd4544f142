"""Which functions form each layer, and the per-layer metrics.

Layer names follow the modules.  The traced run wraps, from the
benchmark's side, the public methods of each layer's class:

=================  ============================================
``ps``             ``ProcessingStore`` (core/processing_store.py)
``ded``            ``DataExecutionDomain`` (core/ded.py)
``rights``         ``SubjectRights`` (core/rights.py)
``builtins``       ``BuiltinFunctions`` (core/builtins.py)
``processing_log`` ``ProcessingLog`` (core/processing_log.py)
``shard``          ``ShardedDBFS`` (storage/shard.py)
``dbfs``           ``DatabaseFS`` (storage/dbfs.py)
``codec``          ``RecordCodec.encode``; ``decode`` and
                   ``decode_fields`` both count as ``codec.decode``
``journal``        ``Journal`` (storage/journal.py)
``block``          ``BlockDevice`` (storage/block.py)
=================  ============================================

Cache hit ratios are not spans: they come from the public
``RgpdOS.cache_stats()`` before and after the traced ops.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.core.builtins import BuiltinFunctions
from repro.core.ded import DataExecutionDomain
from repro.core.processing_log import ProcessingLog
from repro.core.processing_store import ProcessingStore
from repro.core.rights import SubjectRights
from repro.storage.block import BlockDevice
from repro.storage.codec import RecordCodec
from repro.storage.dbfs import DatabaseFS
from repro.storage.journal import Journal
from repro.storage.shard import ShardedDBFS

from spans import Patches, SpanRecorder, unattributed_share

#: Per-layer metrics, in the order they are reported, with their units.
#: ``shard`` is a whole layer: the self time of every ``ShardedDBFS``
#: method, which excludes the ``DatabaseFS`` calls they route to.
PER_LAYER: List[Tuple[str, str]] = [
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("ps.ps_invoke.self_us_per_op", "us"),
    ("ded.run.self_us_per_op", "us"),
    ("cache.decision.hit_ratio", "ratio"),
    ("rights.erase.self_us_per_op", "us"),
    ("builtins.delete.self_us_per_op", "us"),
    ("dbfs.delete.self_us_per_op", "us"),
    ("dbfs.residue_counts.calls_per_op", "count"),
    ("dbfs.residue_counts.self_us_per_op", "us"),
    ("dbfs.live_record_blocks.self_us_per_op", "us"),
    ("block.scan.calls_per_op", "count"),
    ("block.scan.self_us_per_op", "us"),
    ("block.scan.blocks_per_call", "count"),
    ("journal.records.calls_per_op", "count"),
    ("rights.grant_consent.self_us_per_op", "us"),
    ("rights.object_to.self_us_per_op", "us"),
    ("dbfs.put_membrane.self_us_per_op", "us"),
    ("journal.commit.calls_per_op", "count"),
    ("journal.commit.self_us_per_op", "us"),
    ("journal.blocks_in_use.self_us_per_op", "us"),
    ("journal.records_end", "count"),
    ("builtins.update.self_us_per_op", "us"),
    ("dbfs.update.self_us_per_op", "us"),
    ("dbfs.store.self_us_per_op", "us"),
    ("codec.encode.self_us_per_op", "us"),
    ("dbfs.fetch_records.self_us_per_op", "us"),
    ("dbfs.get_membrane.calls_per_op", "count"),
    ("dbfs.get_membrane.self_us_per_op", "us"),
    ("codec.decode.calls_per_op", "count"),
    ("codec.decode.self_us_per_op", "us"),
    ("cache.record.hit_ratio", "ratio"),
    ("cache.membrane.hit_ratio", "ratio"),
    ("block.read.calls_per_op", "count"),
    ("block.page_cache.hit_ratio", "ratio"),
    ("rights.right_of_access.self_us_per_op", "us"),
    ("dbfs.export_subject.self_us_per_op", "us"),
    ("shard.self_us_per_op", "us"),
    ("processing_log.for_subject.self_us_per_op", "us"),
    ("processing_log.record.self_us_per_op", "us"),
    ("block.write.calls_per_op", "count"),
    ("block.scrub.calls_per_op", "count"),
    ("block.bytes_written_per_user_byte", "ratio"),
    ("obs.telemetry_cost_ratio", "ratio"),
]

#: Span names that are whole layers (every method under the prefix).
LAYER_PREFIXES = ("shard",)

#: ``cache_stats()`` entries behind each hit-ratio metric.
_CACHES = {
    "cache.decision.hit_ratio": "decision_cache",
    "cache.record.hit_ratio": "record_cache",
    "cache.membrane.hit_ratio": "membrane_cache",
    "block.page_cache.hit_ratio": "page_cache",
}


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every layer's public methods; ``undo()`` the result to remove."""
    patches = Patches(recorder)
    patches.layer(ProcessingStore, "ps")
    patches.layer(DataExecutionDomain, "ded")
    patches.layer(SubjectRights, "rights")
    patches.layer(BuiltinFunctions, "builtins")
    patches.layer(ProcessingLog, "processing_log")
    patches.layer(ShardedDBFS, "shard")
    patches.method(ShardedDBFS, "stats", "shard.stats")
    patches.layer(DatabaseFS, "dbfs")
    patches.method(RecordCodec, "encode", "codec.encode")
    patches.method(RecordCodec, "decode", "codec.decode")
    patches.method(RecordCodec, "decode_fields", "codec.decode")
    patches.layer(Journal, "journal")
    patches.method(Journal, "blocks_in_use", "journal.blocks_in_use")
    patches.method(
        BlockDevice, "scan", "block.scan",
        count=lambda device, needle: ("block.scan.blocks", device.block_count),
    )
    patches.method(
        BlockDevice, "write", "block.write",
        count=lambda device, block_no, data: ("block.write.bytes", len(data)),
    )
    patches.layer(BlockDevice, "block", skip=("scan", "write"))
    return patches


def cache_counts(cache_stats: Mapping[str, object]) -> Dict[str, Tuple[int, int]]:
    """``(hits, misses)`` per hit-ratio metric, summed over shards.

    A sharded store reports its DBFS caches per shard; the decision
    cache belongs to the processing store and is reported once.
    """
    counts: Dict[str, Tuple[int, int]] = {}
    for metric, entry in _CACHES.items():
        if entry in cache_stats:
            reports = [cache_stats]
        else:
            reports = [r for r in cache_stats.get("per_shard", ()) if r]
        counts[metric] = (
            sum(r[entry]["hits"] for r in reports),
            sum(r[entry]["misses"] for r in reports),
        )
    return counts


def per_layer_metrics(
    table: Mapping[str, Mapping[str, int]],
    ops: int,
    counts: Mapping[str, int],
    cache_before: Mapping[str, Tuple[int, int]],
    cache_after: Mapping[str, Tuple[int, int]],
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a self-time ``table``.

    ``extra`` supplies the metrics that are not span rollups: the two
    run-to-run ratios, ``journal.records_end`` and the user bytes the
    traced ops submitted (``user_bytes``).
    """

    def row(name: str) -> Tuple[int, int]:
        if name in LAYER_PREFIXES:
            rows = [r for n, r in table.items() if n.startswith(name + ".")]
        else:
            rows = [table[name]] if name in table else []
        return (sum(r["calls"] for r in rows), sum(r["self_ns"] for r in rows))

    metrics: Dict[str, float] = {}
    for metric, _ in PER_LAYER:
        if metric in extra:
            metrics[metric] = float(extra[metric])
        elif metric == "bench.unattributed_share":
            metrics[metric] = unattributed_share(table)
        elif metric in _CACHES:
            hits = cache_after[metric][0] - cache_before[metric][0]
            misses = cache_after[metric][1] - cache_before[metric][1]
            metrics[metric] = hits / (hits + misses) if hits + misses else 0.0
        elif metric == "block.scan.blocks_per_call":
            calls = row("block.scan")[0]
            metrics[metric] = counts["block.scan.blocks"] / calls if calls else 0.0
        elif metric == "block.bytes_written_per_user_byte":
            user = extra["user_bytes"]
            metrics[metric] = counts["block.write.bytes"] / user if user else 0.0
        elif metric.endswith(".self_us_per_op"):
            name = metric[: -len(".self_us_per_op")]
            metrics[metric] = row(name)[1] / 1000.0 / ops
        elif metric.endswith(".calls_per_op"):
            name = metric[: -len(".calls_per_op")]
            metrics[metric] = row(name)[0] / ops
        else:
            raise KeyError(f"no rule computes {metric}")
    return metrics

