"""Replicated rgpdOS cluster: journal shipping, read replicas, failover.

:class:`ReplicatedCluster` wraps a leader store (the ``ShardedDBFS``
behind an :class:`~repro.core.system.RgpdOS`) with N follower nodes
connected by **journal shipping**: the shipped unit is the leader
journal's committed transaction — group-commit boundaries preserved —
carrying each op's *logical* payload rather than raw journal extents,
because the DBFS journal deliberately never holds PD payloads (§ 1 of
the paper opens with exactly that log-residue violation; shipping
device bytes would reintroduce it).  The capture point is one
subscription to the leader store's committed-change feed
(:mod:`repro.storage.feed`), which publishes only after the op's
journal transaction commits, so a record can never ship before it is
durable on the leader.

Per shard the stream is strictly ordered and batched
(``batch_records`` per message, pipelined across shards and
followers); a follower applies each batch inside one
``shard.batch()`` group commit.  Replication is **pull-free and
push-driven**: :meth:`pump` advances every (follower, shard) cursor in
parallel, :meth:`sync` drains to the watermark.

GDPR-native properties, by construction:

* **RTBF reaches every replica.**  Erasure flows leader-first like any
  write; the propagation watermark (:meth:`erasure_propagated`) proves
  the delete applied on every live follower, and
  :meth:`residue_report` runs the zero-residue scan per node.  The
  shipping plane is itself RTBF-aware: the moment an erase is
  captured, every not-yet-shipped payload for that uid in every
  retained log is **redacted** — a replica that never materialized the
  record only ever sees a tombstone.
* **Placement-time Chapter V.**  Every node is admitted through the
  :class:`~repro.cluster.placement.PlacementEngine`; an EU subject's
  PD cannot be assigned to a non-adequate region, and the check re-runs
  on failover (an adequacy decision that lapsed in between disqualifies
  the candidate).
* **Failover reuses the crash paths.**  :meth:`fail_leader` kills the
  leader mid-workload; :meth:`promote` picks the most-caught-up
  *adequate* follower (re-running its in-place remount as a promotion
  fsck); :meth:`demote` recovers the old leader's devices through the
  true-crash ``remount_from_device(s)`` path, re-checks placement,
  reconciles divergence, and rejoins it as a follower — at which point
  the zero-residue check must still hold on it.

Reads scale out: :meth:`right_of_access`, :meth:`query_uids` and
:meth:`resolve_records` round-robin across follower MVCC snapshots,
so read throughput grows with replica count while writes stay
leader-first.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from .. import errors
from ..core.active_data import AccessCredential
from ..core.membrane import Membrane
from ..storage.block import BlockDevice
from ..storage.dbfs import DatabaseFS
from ..storage.query import (DataQuery, DeleteRequest, Predicate,
                             StoreRequest, UpdateRequest)
from ..storage.shard import ShardedDBFS
from .link import LinkConfig, ReplicationLink
from .placement import NodeLocation, PlacementEngine

_SCHEMA_OPS = frozenset({"create_type", "evolve_type", "create_index"})
_DATA_OPS = frozenset({"store", "update", "delete", "membrane_update"})

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"
ROLE_DEAD = "dead"

_ROLE_GAUGE = {ROLE_LEADER: 2, ROLE_FOLLOWER: 1, ROLE_DEAD: 0}


@dataclass
class ShippedRecord:
    """One committed leader transaction's logical op, ready to ship."""

    seq: int
    op: str
    payload: Dict[str, object]

    @property
    def uid(self) -> Optional[str]:
        value = self.payload.get("uid")
        return value if isinstance(value, str) else None

    @property
    def redacted(self) -> bool:
        return bool(self.payload.get("redacted"))

    def size_estimate(self) -> int:
        return len(str(self.payload)) + 16

    def redact(self) -> None:
        """RTBF in the shipping plane: drop the payload, keep the slot."""
        self.payload = {
            "uid": self.payload.get("uid"),
            "subject_id": self.payload.get("subject_id"),
            "redacted": True,
        }


class _Stream:
    """One strictly-ordered shipping stream (per shard, plus schema)."""

    def __init__(self) -> None:
        self.base = 1               # seq of records[0]
        self.records: List[ShippedRecord] = []

    @property
    def head(self) -> int:
        return self.base + len(self.records) - 1

    def append(self, op: str, payload: Dict[str, object]) -> ShippedRecord:
        record = ShippedRecord(self.head + 1, op, payload)
        self.records.append(record)
        return record

    def tail_from(self, seq: int) -> List[ShippedRecord]:
        """Records with sequence > ``seq`` (the follower's cursor)."""
        if seq < self.base - 1:
            raise errors.ReplicationError(
                f"stream gap: cursor {seq} behind retained base {self.base}"
            )
        return self.records[seq - self.base + 1:]

    def trim(self, keep_after: int, max_retained: int) -> None:
        """Drop records every live follower applied, bounded by the
        retention window (rejoining nodes past the window reconcile)."""
        floor = max(keep_after, self.head - max_retained)
        drop = min(len(self.records), max(0, floor - self.base + 1))
        if drop:
            del self.records[:drop]
            self.base += drop


class ClusterNode:
    """One member: identity, location, its own store, link and cursors."""

    def __init__(
        self,
        node_id: str,
        location: NodeLocation,
        store,
        role: str = ROLE_FOLLOWER,
        link: Optional[ReplicationLink] = None,
    ) -> None:
        self.node_id = node_id
        self.location = location
        self.store = store
        self.role = role
        self.link = link
        self.alive = True
        shard_count = len(store.shards)
        #: Per-shard cursor: highest stream seq applied on this node.
        self.applied: List[int] = [0] * shard_count
        self.applied_schema = 0
        #: Retained streams.  On the leader these are the shipping
        #: logs; on a follower, the applied history that lets it serve
        #: as a catch-up source if promoted.
        self.streams: List[_Stream] = [_Stream() for _ in range(shard_count)]
        self.schema_stream = _Stream()
        #: uids whose store shipped redacted (erased before this node
        #: ever saw the payload) — later ops for them are skipped.
        self.skipped: Set[str] = set()
        self.needs_reconcile = False

    @property
    def region(self) -> str:
        return self.location.region

    def retained(self) -> List[_Stream]:
        return [self.schema_stream] + self.streams

    def __repr__(self) -> str:
        return (
            f"ClusterNode({self.node_id!r}, {self.region!r}, {self.role}, "
            f"applied={self.applied})"
        )


class ReplicatedCluster:
    """Leader + N followers over one RgpdOS instance's store."""

    def __init__(
        self,
        system,
        regions: Sequence[str] = ("eu",),
        link_config: Optional[LinkConfig] = None,
        placement: Optional[PlacementEngine] = None,
        batch_records: int = 32,
        history_records: int = 4096,
        default_origin: str = "eu",
        workers: Optional[int] = None,
    ) -> None:
        """``regions[0]`` locates the leader; each further entry adds a
        follower.  An entry may carry an Art. 46 mechanism as
        ``"region:safeguard"`` (e.g. ``"us:scc"``)."""
        if not regions:
            raise errors.ClusterError("a cluster needs at least the leader region")
        self.system = system
        self.telemetry = system.telemetry
        self.clock = system.clock
        self.batch_records = max(1, batch_records)
        self.history_records = max(batch_records, history_records)
        self.link_config = link_config if link_config is not None else LinkConfig()
        self.placement = (
            placement
            if placement is not None
            else PlacementEngine(
                now=system.clock.now, default_origin=default_origin
            )
        )
        self._ded = AccessCredential(holder="cluster-replicator", is_ded=True)
        self._lock = threading.RLock()

        leader_location = self._parse_region("node-0", regions[0])
        self.placement.admit_node(leader_location)
        self._leader = ClusterNode(
            "node-0", leader_location, system.dbfs, role=ROLE_LEADER
        )
        self._followers: List[ClusterNode] = []
        self._dead: List[ClusterNode] = []
        self._node_seq = itertools.count(1)
        self._reader_rr = 0
        pool_size = workers if workers is not None else max(
            2, len(self._leader.store.shards)
        )
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repl"
        )
        self._attach_capture(self._leader)
        self._register_gauges()
        for spec in regions[1:]:
            self.add_replica(spec)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_region(node_id: str, spec: str) -> NodeLocation:
        region, _, safeguard = spec.partition(":")
        if not region:
            raise errors.ClusterError(f"empty region in spec {spec!r}")
        return NodeLocation(node_id, region, safeguard or None)

    @property
    def leader(self) -> ClusterNode:
        return self._leader

    @property
    def leader_store(self):
        """Where writes go (changes across a failover)."""
        return self._leader.store

    @property
    def followers(self) -> List[ClusterNode]:
        return list(self._followers)

    @property
    def nodes(self) -> List[ClusterNode]:
        return [self._leader] + self._followers + self._dead

    @property
    def shard_count(self) -> int:
        return len(self._leader.store.shards)

    def node(self, node_id: str) -> ClusterNode:
        for candidate in self.nodes:
            if candidate.node_id == node_id:
                return candidate
        raise errors.ClusterError(f"no node {node_id!r}")

    def add_replica(self, region_spec: str) -> ClusterNode:
        """Build, admit (placement-checked) and attach one follower.

        The new node starts empty and reconciles from the leader's
        current state, then follows the stream from the leader's head.
        """
        node_id = f"node-{next(self._node_seq)}"
        location = self._parse_region(node_id, region_spec)
        # Placement time IS enforcement time: admission raises before
        # any byte lands in a non-adequate region.
        self.placement.admit_node(location)
        store = self._build_follower_store()
        node = ClusterNode(
            node_id,
            location,
            store,
            role=ROLE_FOLLOWER,
            link=ReplicationLink(self.link_config),
        )
        with self._lock:
            self._reconcile(node)
            self._followers.append(node)
        return node

    def _build_follower_store(self) -> ShardedDBFS:
        leader_shards = self._leader.store.shards
        template = leader_shards[0]
        devices = [
            BlockDevice(
                block_count=shard.device.block_count,
                page_cache_blocks=self.system.cache_config.page_cache_blocks,
                telemetry=self.telemetry,
                io_delay_scale=getattr(shard.device, "io_delay_scale", 0.0),
            )
            for shard in leader_shards
        ]
        return ShardedDBFS(
            devices=devices,
            operator_key=self.system.operator_key,
            journal_blocks=len(template.journal.extent),
            cache_config=self.system.cache_config,
            journal_config=getattr(template.journal, "config", None),
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------
    # Capture (the journal-shipping tap)
    # ------------------------------------------------------------------

    def _attach_capture(self, node: ClusterNode) -> None:
        """Subscribe the tap to ``node``'s committed-change feed."""
        node.store.feed.subscribe(self._capture)

    def _detach_capture(self) -> None:
        self._leader.store.feed.unsubscribe(self._capture)

    def _capture(self, shard_index: int, op: str, payload: Dict[str, object]) -> None:
        leader = self._leader
        # The TTL deadline is derivable from membrane_json; followers
        # re-derive it, so it never ships.
        shipped = {k: v for k, v in payload.items() if k != "deadline"}
        with self._lock:
            if op in _SCHEMA_OPS:
                # Fleet-level schema ops fan out to every shard; one
                # copy (the primary's) is the canonical stream entry.
                if shard_index == 0:
                    leader.schema_stream.append(op, shipped)
                return
            subject_id = payload.get("subject_id")
            if isinstance(subject_id, str):
                self.placement.note_subject(subject_id)
            leader.streams[shard_index].append(op, shipped)
            if op == "delete":
                uid = payload.get("uid")
                if isinstance(uid, str):
                    self._redact_everywhere(uid)
        registry = self.telemetry.registry
        registry.counter("rgpdos.replication.captured_records").inc()

    def _redact_everywhere(self, uid: str) -> None:
        """Scrub a just-erased uid's payloads from every retained
        stream (leader logs and follower histories) — the replication
        buffers are PD holders too, and Art. 17 applies to them."""
        for node in [self._leader] + self._followers + self._dead:
            for stream in node.retained():
                for record in stream.records:
                    if (
                        record.uid == uid
                        and record.op != "delete"
                        and not record.redacted
                    ):
                        record.redact()

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def pump(self) -> Dict[str, int]:
        """One pipelined shipping round: every live (follower, shard)
        stream advances in parallel; partitioned links stall their
        follower without blocking the rest.  Returns counts."""
        with self._lock:
            followers = [f for f in self._followers if f.alive]
        shipped = {"records": 0, "batches": 0, "stalled": 0}
        tasks = []
        for follower in followers:
            tasks.append(self._pool.submit(self._ship_schema, follower))
        for future in tasks:
            result = future.result()
            shipped["records"] += result[0]
            shipped["batches"] += result[1]
        tasks = []
        for follower in followers:
            for index in range(self.shard_count):
                tasks.append(
                    self._pool.submit(self._ship_shard, follower, index)
                )
        for future in tasks:
            records, batches, stalled = future.result()
            shipped["records"] += records
            shipped["batches"] += batches
            shipped["stalled"] += stalled
        self._trim_streams()
        registry = self.telemetry.registry
        registry.counter("rgpdos.replication.records_shipped").inc(
            shipped["records"]
        )
        registry.counter("rgpdos.replication.batches_shipped").inc(
            shipped["batches"]
        )
        return shipped

    def sync(self, max_rounds: int = 1000) -> None:
        """Pump until every live, reachable follower is at the leader's
        head (the watermark).  Partitioned followers are excluded —
        they catch up after :meth:`ReplicationLink.heal`."""
        for _ in range(max_rounds):
            self.pump()
            if not self._behind_followers():
                return
        raise errors.ReplicationError(
            f"sync did not converge in {max_rounds} rounds "
            f"(lag={self.lag()!r})"
        )

    def _behind_followers(self) -> List[ClusterNode]:
        leader = self._leader
        behind = []
        for follower in self._followers:
            if not follower.alive:
                continue
            if follower.link is not None and follower.link.partitioned:
                continue
            if follower.needs_reconcile:
                behind.append(follower)
                continue
            if follower.applied_schema < leader.schema_stream.head:
                behind.append(follower)
                continue
            for index in range(self.shard_count):
                if follower.applied[index] < leader.streams[index].head:
                    behind.append(follower)
                    break
        return behind

    def _ship_schema(self, follower: ClusterNode) -> Tuple[int, int]:
        with self._lock:
            pending = list(
                self._leader.schema_stream.tail_from(follower.applied_schema)
            )
        records = batches = 0
        for record in pending:
            if not self._send(follower, 1, record.size_estimate()):
                break
            self._apply_schema(follower, record)
            with self._lock:
                follower.applied_schema = record.seq
                follower.schema_stream.append(record.op, record.payload)
            records += 1
            batches += 1
        return records, batches

    def _ship_shard(
        self, follower: ClusterNode, index: int
    ) -> Tuple[int, int, int]:
        if follower.needs_reconcile:
            return 0, 0, 1
        with self._lock:
            try:
                pending = list(
                    self._leader.streams[index].tail_from(
                        follower.applied[index]
                    )
                )
            except errors.ReplicationError:
                follower.needs_reconcile = True
                return 0, 0, 1
        records = batches = 0
        position = 0
        while position < len(pending):
            batch = pending[position:position + self.batch_records]
            payload_bytes = sum(r.size_estimate() for r in batch)
            if not self._send(follower, len(batch), payload_bytes):
                return records, batches, 1
            self._apply_batch(follower, index, batch)
            with self._lock:
                follower.applied[index] = batch[-1].seq
                for record in batch:
                    follower.streams[index].append(record.op, record.payload)
            records += len(batch)
            batches += 1
            position += len(batch)
        return records, batches, 0

    def _send(self, follower: ClusterNode, count: int, size: int) -> bool:
        """One link message, with a single bounded retry for transient
        drops (mirroring the NVMe driver's policy); partitions stall."""
        link = follower.link
        if link is None:
            return True
        for attempt in (1, 2):
            try:
                link.send(count, size)
                return True
            except errors.TransientIOError:
                if attempt == 2:
                    return False
                continue
            except errors.LinkPartitionedError:
                return False
        return False

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------

    def _apply_schema(self, node: ClusterNode, record: ShippedRecord) -> None:
        store = node.store
        payload = record.payload
        if record.op == "create_type":
            pd_type = payload["pd_type"]
            if pd_type.name not in store.list_types():
                store.create_type(pd_type, self._ded)
        elif record.op == "evolve_type":
            store.evolve_type(payload["pd_type"], self._ded)
        elif record.op == "create_index":
            type_name = payload["type_name"]
            field_name = payload["field_name"]
            if not store.has_index(type_name, field_name):
                store.create_index(type_name, field_name, self._ded)

    def _apply_batch(
        self,
        node: ClusterNode,
        shard_index: int,
        batch: Sequence[ShippedRecord],
    ) -> None:
        """Apply one shipped batch under one follower group commit —
        the group-commit boundary travels with the batch."""
        shard = node.store.shards[shard_index]
        with shard.batch():
            for record in batch:
                self._apply_record(node, shard, shard_index, record)

    def _apply_record(
        self,
        node: ClusterNode,
        shard: DatabaseFS,
        shard_index: int,
        record: ShippedRecord,
    ) -> None:
        payload = record.payload
        uid = record.uid
        if record.op == "store":
            if record.redacted:
                # Erased before this node ever saw the payload: the
                # record never materializes here — RTBF reached a
                # replica that never even held the PD.
                if uid:
                    node.skipped.add(uid)
                return
            shard.store(
                StoreRequest(
                    pd_type=payload["pd_type"],
                    record=dict(payload["record"]),
                    membrane_json=payload["membrane_json"],
                    uid=uid,
                ),
                self._ded,
            )
            if uid and isinstance(node.store, ShardedDBFS):
                with node.store._uid_lock:
                    node.store._uid_shard[uid] = shard_index
            return
        if uid in node.skipped:
            if record.op == "delete":
                node.skipped.discard(uid)
            return
        if record.redacted:
            # A redacted update/membrane change is always followed by
            # the delete that caused the redaction; skipping it leaves
            # at most a stale value for the tombstone to scrub.
            return
        if record.op == "update":
            shard.update(
                UpdateRequest(uid=uid, changes=dict(payload["changes"])),
                self._ded,
            )
        elif record.op == "membrane_update":
            shard.put_membrane(
                uid,
                Membrane.from_json(payload["membrane_json"]),
                self._ded,
            )
        elif record.op == "delete":
            membrane = shard.get_membrane(uid, self._ded)
            if not membrane.erased:
                shard.delete(
                    DeleteRequest(uid=uid, mode=payload["mode"]), self._ded
                )

    def _trim_streams(self) -> None:
        with self._lock:
            live = [f for f in self._followers if f.alive]
            if live:
                schema_floor = min(f.applied_schema for f in live)
                floors = [
                    min(f.applied[i] for f in live)
                    for i in range(self.shard_count)
                ]
            else:
                schema_floor = self._leader.schema_stream.head
                floors = [s.head for s in self._leader.streams]
            self._leader.schema_stream.trim(schema_floor, self.history_records)
            for index, stream in enumerate(self._leader.streams):
                stream.trim(floors[index], self.history_records)
            for follower in self._followers:
                for stream in follower.retained():
                    stream.trim(stream.head, self.history_records)

    # ------------------------------------------------------------------
    # Watermark, lag, residue
    # ------------------------------------------------------------------

    def lag(self) -> Dict[str, int]:
        """Per-node replication lag in records (leader head - applied)."""
        with self._lock:
            leader = self._leader
            report = {}
            for follower in self._followers:
                report[follower.node_id] = (
                    leader.schema_stream.head - follower.applied_schema
                ) + sum(
                    leader.streams[i].head - follower.applied[i]
                    for i in range(self.shard_count)
                )
            return report

    def watermark(self) -> List[int]:
        """Per-shard min applied seq across live followers — every
        record at or below it provably reached every replica."""
        with self._lock:
            live = [f for f in self._followers if f.alive]
            if not live:
                return [s.head for s in self._leader.streams]
            return [
                min(f.applied[i] for f in live)
                for i in range(self.shard_count)
            ]

    def erasure_propagated(self, uid: str) -> bool:
        """Has the erase op for ``uid`` reached every live follower?

        True only when no live follower still has the uid un-erased —
        the watermark proof behind "RTBF reaches every replica".
        """
        for follower in self._followers:
            if not follower.alive:
                continue
            if uid in follower.skipped:
                return False
            try:
                membrane = follower.store.get_membrane(uid, self._ded)
            except errors.RgpdOSError:
                continue
            if not membrane.erased:
                return False
        return True

    def residue_report(
        self, needles: Sequence[bytes], subject_id: Optional[str] = None
    ) -> Dict[str, Dict[str, int]]:
        """The per-node zero-residue check (device + journal scans),
        plus the shipping plane: retained stream payloads count as
        residue too."""
        report: Dict[str, Dict[str, int]] = {}
        for node in self.nodes:
            counts = dict(
                node.store.residue_counts(needles, subject_id=subject_id)
            )
            counts["stream_records"] = self._stream_residue(node, needles)
            report[node.node_id] = counts
        return report

    def _stream_residue(
        self, node: ClusterNode, needles: Sequence[bytes]
    ) -> int:
        hits = 0
        with self._lock:
            for stream in node.retained():
                for record in stream.records:
                    blob = str(record.payload).encode()
                    if any(needle in blob for needle in needles):
                        hits += 1
        return hits

    # ------------------------------------------------------------------
    # Replica reads (MVCC snapshots, round-robin)
    # ------------------------------------------------------------------

    def read_node(self) -> ClusterNode:
        """Round-robin over live followers; the leader only serves
        reads when it is the whole cluster."""
        with self._lock:
            live = [f for f in self._followers if f.alive]
            if not live:
                return self._leader
            node = live[self._reader_rr % len(live)]
            self._reader_rr += 1
            return node

    def snapshot_read(self, fn: Callable, node: Optional[ClusterNode] = None):
        """Run ``fn(store, credential, snapshot)`` on one replica's
        MVCC snapshot."""
        chosen = node if node is not None else self.read_node()
        snapshot = chosen.store.begin_snapshot()
        try:
            return fn(chosen.store, self._ded, snapshot)
        finally:
            snapshot.release()

    def right_of_access(self, subject_id: str) -> Dict[str, object]:
        """Art. 15 export served from a replica snapshot."""
        return self.snapshot_read(
            lambda store, cred, snap: store.export_subject(
                subject_id, cred, snapshot=snap
            )
        )

    def query_uids(self, type_name: str, predicate: Predicate) -> List[str]:
        """Type query (select) served from a replica snapshot."""
        return self.snapshot_read(
            lambda store, cred, snap: store.select_uids(
                type_name, predicate, cred, snapshot=snap
            )
        )

    def resolve_records(self, uids: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """Audit-evidence resolution: load the records an evidence
        entry references, from a replica snapshot."""
        return self.snapshot_read(
            lambda store, cred, snap: store.fetch_records(
                DataQuery(uids=tuple(uids)), cred, snapshot=snap
            )
        )

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def fail_leader(self) -> ClusterNode:
        """Kill the leader mid-workload (crash simulation): capture
        stops, the node goes dead, its devices keep their bytes for
        the later :meth:`demote` recovery."""
        with self._lock:
            old = self._leader
            self._detach_capture()
            old.alive = False
            old.role = ROLE_DEAD
        return old

    def promote(self) -> ClusterNode:
        """Promote the most-caught-up **adequate** follower.

        Candidates are live, reachable followers; the placement engine
        re-checks each one at the *current* instant (Chapter V applies
        to failover too — a more-caught-up follower in a region whose
        adequacy lapsed loses to a less-caught-up adequate one).  The
        winner re-runs the in-place remount path as a promotion fsck,
        then takes over capture; its retained history becomes the new
        shipping log so surviving followers catch up by delta.
        """
        with self._lock:
            if self._leader.alive:
                raise errors.ClusterError(
                    "leader is alive; fail_leader() first (no split brain)"
                )
            candidates = [
                f for f in self._followers
                if f.alive and (f.link is None or not f.link.partitioned)
            ]
            if not candidates:
                raise errors.ClusterError("no live follower to promote")
            adequate = [
                f for f in candidates
                if self.placement.admissible(f.location)
            ]
            if not adequate:
                raise errors.PlacementViolationError(
                    "no live follower sits in a permitted jurisdiction "
                    "for every origin held"
                )
            new_leader = max(
                adequate,
                key=lambda f: (
                    f.applied_schema + sum(f.applied), f.node_id
                ),
            )
            # Promotion fsck: the same in-place remount crash recovery
            # runs after a power cut — journals recover, trees and
            # volatile indexes rebuild from durable state.
            new_leader.store.remount()
            old = self._leader
            self._followers.remove(new_leader)
            self._dead.append(old)
            new_leader.role = ROLE_LEADER
            new_leader.link = None
            new_leader.needs_reconcile = False
            self._leader = new_leader
            self._attach_capture(new_leader)
            # Any survivor ahead of the new leader on some shard holds
            # committed-but-unreplicated divergence: reconcile it.
            for follower in self._followers:
                if follower.applied_schema > new_leader.applied_schema or any(
                    follower.applied[i] > new_leader.applied[i]
                    for i in range(self.shard_count)
                ):
                    follower.needs_reconcile = True
        for follower in self._followers:
            if follower.needs_reconcile:
                self._reconcile(follower)
        return new_leader

    def demote(self) -> ClusterNode:
        """Recover the dead ex-leader through the true-crash remount
        path and rejoin it as a follower.

        Placement is re-checked at rejoin (Chapter V again), committed
        -but-never-shipped divergence is reconciled away against the
        new leader, and the caller can then run the zero-residue check
        on the recovered node — the demoted leader must hold no trace
        of PD erased before or during the failover.
        """
        with self._lock:
            if not self._dead:
                raise errors.ClusterError("no demoted leader to rejoin")
            old = self._dead.pop()
        recovered = self._true_remount(old.store)
        old.store = recovered
        old.applied = [0] * self.shard_count
        old.applied_schema = 0
        old.streams = [_Stream() for _ in range(self.shard_count)]
        old.schema_stream = _Stream()
        old.skipped = set()
        # Re-check: the jurisdiction that was fine at first placement
        # may not be any more (lapsed adequacy) — failover is a
        # placement event.
        self.placement.check_node(old.location)
        self._reconcile(old)
        with self._lock:
            old.role = ROLE_FOLLOWER
            old.alive = True
            if old.link is None:
                old.link = ReplicationLink(self.link_config)
            self._followers.append(old)
        return old

    def _true_remount(self, store):
        """CrashSim path: rebuild the store from device bytes alone."""
        if isinstance(store, ShardedDBFS):
            shards = store.shards
            return ShardedDBFS.remount_from_devices(
                [shard.device for shard in shards],
                [shard.inodes for shard in shards],
                operator_key=self.system.operator_key,
                cache_config=self.system.cache_config,
                journal_config=getattr(shards[0].journal, "config", None),
                telemetry=self.telemetry,
                feed=store.feed,
            )
        return DatabaseFS.remount_from_device(
            store.device,
            store.inodes,
            operator_key=self.system.operator_key,
            cache_config=self.system.cache_config,
            journal_config=getattr(store.journal, "config", None),
            telemetry=self.telemetry,
            feed=store.feed,
        )

    # ------------------------------------------------------------------
    # Reconciliation (anti-entropy: reseed / divergence repair)
    # ------------------------------------------------------------------

    def _reconcile(self, node: ClusterNode) -> Dict[str, int]:
        """Make ``node`` an exact logical copy of the leader.

        Used to seed an empty replica, to repair a follower that fell
        past the retention window, and to fold back a demoted leader's
        divergent tail.  uids unknown to the leader are scrub-erased
        (they were never acknowledged cluster-wide); missing records
        are installed with the leader's uid; differing membranes and
        field values converge to the leader's.  Cursors jump to the
        leader's head — the stream takes over from there.
        """
        leader_store = self._leader.store
        stats = {"installed": 0, "erased": 0, "membranes": 0, "updated": 0}
        for pd_type_name in leader_store.list_types():
            pd_type = leader_store.get_type(pd_type_name)
            if pd_type_name not in node.store.list_types():
                node.store.create_type(pd_type, self._ded)
            elif node.store.get_type(pd_type_name) != pd_type:
                node.store.evolve_type(pd_type, self._ded)
        for type_name, field_name in leader_store.shards[0].indexed_fields():
            if not node.store.has_index(type_name, field_name):
                node.store.create_index(type_name, field_name, self._ded)
        for index, leader_shard in enumerate(leader_store.shards):
            node_shard = node.store.shards[index]
            leader_uids = set(leader_shard.all_uids())
            node_uids = set(node_shard.all_uids())
            for uid in sorted(node_uids - leader_uids):
                membrane = node_shard.get_membrane(uid, self._ded)
                if not membrane.erased:
                    node_shard.delete(
                        DeleteRequest(uid=uid, mode="erase"), self._ded
                    )
                    stats["erased"] += 1
            for uid in sorted(leader_uids):
                membrane = leader_shard.get_membrane(uid, self._ded)
                if membrane.erased:
                    if uid in node_uids:
                        node_membrane = node_shard.get_membrane(uid, self._ded)
                        if not node_membrane.erased:
                            node_shard.delete(
                                DeleteRequest(uid=uid, mode="erase"),
                                self._ded,
                            )
                            stats["erased"] += 1
                    continue
                record = leader_shard._load_record_raw(uid)
                membrane_json = membrane.to_json()
                if uid not in node_uids:
                    node_shard.store(
                        StoreRequest(
                            pd_type=membrane.pd_type,
                            record=dict(record),
                            membrane_json=membrane_json,
                            uid=uid,
                        ),
                        self._ded,
                    )
                    if isinstance(node.store, ShardedDBFS):
                        with node.store._uid_lock:
                            node.store._uid_shard[uid] = index
                    stats["installed"] += 1
                    continue
                node_membrane = node_shard.get_membrane(uid, self._ded)
                if node_membrane.erased:
                    # The node erased what the leader still holds — the
                    # leader is authoritative; the record reinstalls on
                    # the next full reseed only.  Count it for audits.
                    stats["updated"] += 1
                    continue
                node_record = node_shard._load_record_raw(uid)
                if node_record != record:
                    node_shard.update(
                        UpdateRequest(uid=uid, changes=dict(record)),
                        self._ded,
                    )
                    stats["updated"] += 1
                if node_membrane.to_json() != membrane_json:
                    node_shard.put_membrane(uid, membrane, self._ded)
                    stats["membranes"] += 1
        with self._lock:
            node.applied_schema = self._leader.schema_stream.head
            node.applied = [s.head for s in self._leader.streams]
            node.needs_reconcile = False
        return stats

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _register_gauges(self) -> None:
        registry = self.telemetry.registry

        def collect(reg) -> None:
            lag = self.lag()
            reg.gauge("rgpdos.replication.lag_records").set(
                sum(lag.values())
            )
            for node in self.nodes:
                reg.gauge(f"rgpdos.cluster.node.{node.node_id}.role").set(
                    _ROLE_GAUGE.get(node.role, 0)
                )
                reg.gauge(f"rgpdos.cluster.node.{node.node_id}.lag").set(
                    lag.get(node.node_id, 0)
                )
            reg.gauge("rgpdos.cluster.nodes").set(len(self.nodes))
            reg.gauge("rgpdos.cluster.followers").set(
                sum(1 for f in self._followers if f.alive)
            )
            reg.gauge("rgpdos.placement.violations").set(
                self.placement.violations
            )
            reg.gauge("rgpdos.placement.blocked").set(self.placement.blocked)

        registry.register_collector(collect)

    def stats(self) -> Dict[str, object]:
        """One JSON-safe snapshot of the cluster's replication state."""
        with self._lock:
            link_stats = {
                f.node_id: {
                    "messages": f.link.stats.messages,
                    "records": f.link.stats.records,
                    "bytes": f.link.stats.bytes_shipped,
                    "simulated_seconds": round(
                        f.link.stats.simulated_seconds, 6
                    ),
                    "partitioned": f.link.partitioned,
                }
                for f in self._followers
                if f.link is not None
            }
        return {
            "leader": self._leader.node_id,
            "nodes": [
                {
                    "node_id": n.node_id,
                    "region": n.region,
                    "safeguard": n.location.safeguard,
                    "role": n.role,
                    "alive": n.alive,
                    "applied": list(n.applied),
                }
                for n in self.nodes
            ],
            "lag": self.lag(),
            "watermark": self.watermark(),
            "links": link_stats,
            "placement": self.placement.audit(),
        }

    def close(self) -> None:
        self._detach_capture()
        self._pool.shutdown(wait=False)
