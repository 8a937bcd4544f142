"""Write-ahead journal.

Section 1 of the paper motivates rgpdOS with exactly this component:

    "the filesystem's logging mechanism can compromise the GDPR's
    right to be forgotten as data deleted by the DB engine can still
    be present in the filesystem's logs."

The ext4-like baseline filesystem journals every data write here, in
data-journaling mode (like ``ext4 data=journal``): the journal records
carry the *payload bytes*.  Deleting a file later does not rewrite
history — the payload remains replayable from the journal until the
log wraps.  The ILL-F experiment scans this journal after a delete to
demonstrate the violation, and shows that DBFS (which journals only
encrypted/erased state and scrubs on erasure) does not exhibit it.

The journal is itself stored on the block device, in a reserved extent,
so "the bytes are on disk" is literally true in the simulation.

**On-device format** (version 2, crash-recoverable).  Slot 0 of the
reserved extent holds a small binary *superblock*: the slot of the
oldest live record (the log head), the sequence number that record
must carry, and a next-sequence hint for recovering an empty log.
Slots 1..n-1 are a circular record area.  Each record is framed with a
4-byte magic, a compact JSON header (sequence, txn, type, and — when
non-trivial — target, payload length, payload CRC32) and the payload,
chunked across consecutive slots.  Recovery (:meth:`Journal.recover`)
needs *no in-memory state*: it starts at the superblock's head and
walks the sequence chain, validating magic, header, length and CRC of
every record.  A torn tail (a crash between the chunk writes of
:meth:`Journal._append`) truncates the log at the torn record —
counted in :class:`JournalStats`, never raised — and a checkpoint
marker found mid-log rolls the interrupted checkpoint forward.
:meth:`Journal.remount` rebuilds a journal over a surviving device
from the extent alone.

Durability ordering rules (each leaves the log scannable if the
machine dies between any two writes):

* reclaim: superblock head moves past the reclaimed records *before*
  their blocks are scrubbed, before the new record's chunks land;
* checkpoint: the CHECKPOINT marker and superblock are written first,
  the old log blocks scrubbed after (a crash in between leaves a
  marker-led log, not a marker-less scrubbed extent).

**Group commit** (the write-side fast path): :meth:`Journal.batch`
opens one transaction that absorbs every ``begin``/``commit`` pair
issued inside it, coalescing N op-metadata appends into a single
committed group with a single flush.  N independent ops cost
``3N`` records (BEGIN + op + COMMIT each) and N flushes; a batched
group costs ``N + 2`` records and one flush.  DBFS exposes this
through :meth:`repro.storage.dbfs.DatabaseFS.store_many`, which the
GDPRBench load phase uses.  A batch is all-or-nothing: if the body
raises, no COMMIT record is written and recovery treats the whole
group as never having happened.

**Auto-checkpoint** (:class:`JournalConfig`): without a checkpoint
policy the log only sheds records when the reserved extent wraps, so
``blocks_in_use`` grows to the cap and recovery replays the full
history every remount.  A threshold on live records or blocks flushes
and truncates the log after the enclosing commit, bounding both the
replay cost of :meth:`Journal.recover` and the window during which
op metadata (uids, never payloads) of erased PD lingers in the log.
Callers whose write-ahead protocol commits *before* applying (DBFS
erasure) wrap the commit+apply span in :meth:`hold_checkpoints` so
the intent record cannot be truncated away mid-apply.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Sequence

from .. import errors
from ..obs import NULL_TELEMETRY, Telemetry
from .block import BlockDevice

# Transaction record types.
TXN_BEGIN = "begin"
TXN_WRITE = "write"      # payload-carrying data write
TXN_DELETE = "delete"    # metadata-only deletion marker
TXN_COMMIT = "commit"
TXN_CHECKPOINT = "checkpoint"

_VALID_TYPES = frozenset({TXN_BEGIN, TXN_WRITE, TXN_DELETE, TXN_COMMIT, TXN_CHECKPOINT})

# On-device framing: every record's first chunk opens with this magic
# so the recovery scan can tell a record head from scrubbed space or a
# stale payload chunk.
_RECORD_MAGIC = b"JRN2"
# Superblock: magic, version, head slot, sequence the head record
# must carry, next-sequence hint for empty-log recovery, and a
# generation counter.  Two copies live on the extent — slot 0 and the
# last slot — because the superblock is an in-place overwrite and a
# power cut can tear it: the update protocol writes the backup copy
# completely before touching the primary, so at every instant at
# least one copy parses, and recovery takes the newest valid one
# (generation compared with serial arithmetic so the 16-bit counter
# may wrap).
_SB_FORMAT = "<2sBHIIH"
_SB_MAGIC = b"JS"
_SB_VERSION = 3


@dataclass(frozen=True)
class JournalRecord:
    """One journal entry.

    ``payload`` is the raw data for TXN_WRITE records — this is the
    field that retains "deleted" PD.  ``target`` names the object the
    record concerns (a path or an inode number rendered as a string).
    """

    sequence: int
    txn_id: int
    record_type: str
    target: str = ""
    payload: bytes = b""

    def to_bytes(self) -> bytes:
        # Compact header: trivial fields (empty target, empty payload)
        # are omitted so BEGIN/COMMIT records stay small even on
        # tiny-block devices.  The CRC lets recovery reject payloads
        # whose continuation chunks were lost or bit-flipped.
        fields = {"seq": self.sequence, "txn": self.txn_id, "type": self.record_type}
        if self.target:
            fields["target"] = self.target
        if self.payload:
            fields["len"] = len(self.payload)
            fields["crc"] = zlib.crc32(self.payload) & 0xFFFFFFFF
        header = json.dumps(fields, separators=(",", ":")).encode()
        return header + b"\n" + self.payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "JournalRecord":
        try:
            header_raw, payload = raw.split(b"\n", 1)
            header = json.loads(header_raw)
        except (ValueError, json.JSONDecodeError) as exc:
            raise errors.JournalError(f"corrupt journal record: {exc}") from exc
        if not isinstance(header, dict):
            raise errors.JournalError(f"corrupt journal header: {header!r}")
        if header.get("type") not in _VALID_TYPES:
            raise errors.JournalError(f"unknown record type {header.get('type')!r}")
        declared = header.get("len", 0)
        if declared != len(payload):
            raise errors.JournalError(
                f"journal payload length mismatch: header says {declared}, "
                f"got {len(payload)}"
            )
        crc = header.get("crc")
        if crc is not None and (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise errors.JournalError(
                f"journal payload CRC mismatch for seq {header.get('seq')}"
            )
        try:
            return cls(
                sequence=int(header["seq"]),
                txn_id=int(header["txn"]),
                record_type=header["type"],
                target=header.get("target", ""),
                payload=payload,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise errors.JournalError(f"corrupt journal header: {exc}") from exc


@dataclass
class _OpenTransaction:
    txn_id: int
    records: List[JournalRecord] = field(default_factory=list)


@dataclass
class _ScanResult:
    """What a from-device extent scan found."""

    records: List[JournalRecord]
    record_blocks: List[List[int]]
    cursor: int            # slot just past the last valid record
    torn_records: int      # torn/corrupt tail records truncated away
    next_seq_hint: int     # superblock hint, for recovering an empty log


@dataclass(frozen=True)
class JournalConfig:
    """Auto-checkpoint policy knobs.

    ``checkpoint_after_records`` / ``checkpoint_after_blocks`` bound
    the live log: once either threshold is reached at a commit
    boundary, the journal checkpoints (flushes and truncates) itself.
    ``None`` disables that trigger; the all-``None`` default preserves
    the historical never-checkpoint behaviour.
    """

    checkpoint_after_records: Optional[int] = None
    checkpoint_after_blocks: Optional[int] = None

    @property
    def enabled(self) -> bool:
        return (
            self.checkpoint_after_records is not None
            or self.checkpoint_after_blocks is not None
        )


@dataclass
class JournalStats:
    """Append/flush accounting — what group commit saves is visible here."""

    appends: int = 0        # records physically appended to the extent
    commits: int = 0        # transactions committed
    flushes: int = 0        # commit flushes actually issued
    group_commits: int = 0  # batches closed
    batched_ops: int = 0    # begin/commit pairs absorbed into a batch
    aborted_batches: int = 0      # batches closed without a COMMIT
    checkpoints: int = 0          # checkpoint truncations issued
    checkpointed_records: int = 0  # records discarded by checkpoints
    recovers: int = 0             # recovery passes run
    recovered_records: int = 0    # committed records re-read from disk
    torn_records: int = 0         # torn tail records truncated at recovery


class Journal:
    """Circular write-ahead log stored on a reserved device extent.

    One journal record occupies one or more whole blocks.  When the
    record area fills, the oldest records are reclaimed (that is the
    only way data ever leaves the journal — never because a file was
    deleted).  Slot 0 and the last slot of the extent hold the two
    superblock copies; the record area is ``reserved_blocks - 2``
    slots.
    """

    def __init__(
        self,
        device: BlockDevice,
        reserved_blocks: int = 1024,
        config: Optional[JournalConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if reserved_blocks < 4:
            raise errors.JournalError(
                f"journal needs at least 4 reserved blocks, got {reserved_blocks}"
            )
        if reserved_blocks > 0xFFFF:
            raise errors.JournalError(
                f"journal extent of {reserved_blocks} blocks exceeds the "
                f"superblock's addressable {0xFFFF} slots"
            )
        self.device = device
        self.config = config or JournalConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._extent = device.allocate_many(reserved_blocks)
        self._slot_of = {block: slot for slot, block in enumerate(self._extent)}
        self._extent_cursor = 1  # next free slot; slot 0 is the superblock
        # In-memory index of live records, the blocks backing each, and
        # the sum of those blocks' counts (so blocks_in_use is O(1)).
        self._records: Deque[JournalRecord] = deque()
        self._record_blocks: Deque[List[int]] = deque()
        self._blocks_used = 0
        self._next_sequence = 0
        self._next_txn = 1
        self._open: Optional[_OpenTransaction] = None
        self._batching = False
        self._checkpoint_holds = 0
        self.reserved_blocks = reserved_blocks
        self.stats = JournalStats()
        self._sb_generation = 0
        self._write_superblock(self._extent_cursor, self._next_sequence)

    @classmethod
    def remount(
        cls,
        device: BlockDevice,
        extent: Sequence[int],
        config: Optional[JournalConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> "Journal":
        """Rebuild a journal over a surviving device — device bytes only.

        This is the true-crash entrypoint: nothing from the pre-crash
        ``Journal`` object is consulted.  The superblock is read from
        ``extent[0]``, the record chain scanned and validated, torn
        tails truncated, and the sequence/txn counters and append
        cursor restored so post-recovery appends neither reuse
        sequence numbers nor clobber live records.
        """
        if len(extent) < 4:
            raise errors.JournalError(
                f"journal needs at least 4 reserved blocks, got {len(extent)}"
            )
        journal = cls.__new__(cls)
        journal.device = device
        journal.config = config or JournalConfig()
        journal.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        journal._extent = list(extent)
        journal._slot_of = {block: slot for slot, block in enumerate(journal._extent)}
        journal._extent_cursor = 1
        journal._records = deque()
        journal._record_blocks = deque()
        journal._blocks_used = 0
        journal._next_sequence = 0
        journal._next_txn = 1
        journal._open = None
        journal._batching = False
        journal._checkpoint_holds = 0
        journal.reserved_blocks = len(journal._extent)
        journal.stats = JournalStats()
        journal._sb_generation = 0
        journal.recover()
        return journal

    @property
    def extent(self) -> List[int]:
        """The device blocks reserved for the journal (slot 0 first)."""
        return list(self._extent)

    @property
    def in_batch(self) -> bool:
        """True while a group-commit batch is open (see :meth:`batch`)."""
        return self._batching

    # -- transaction API ----------------------------------------------------

    def begin(self) -> int:
        """Open a transaction and return its id.

        Inside a :meth:`batch`, ``begin`` joins the open group
        transaction instead of opening (or rejecting) a nested one.
        """
        if self._batching and self._open is not None:
            self.stats.batched_ops += 1
            return self._open.txn_id
        if self._open is not None:
            raise errors.JournalError(
                f"transaction {self._open.txn_id} is already open"
            )
        txn_id = self._next_txn
        self._next_txn += 1
        self._open = _OpenTransaction(txn_id)
        self._append(JournalRecord(self._take_seq(), txn_id, TXN_BEGIN))
        return txn_id

    def log_write(self, target: str, payload: bytes) -> None:
        """Record a data write (payload included) in the open txn."""
        txn = self._require_open()
        record = JournalRecord(self._take_seq(), txn.txn_id, TXN_WRITE, target, payload)
        txn.records.append(record)
        self._append(record)

    def log_delete(self, target: str) -> None:
        """Record a deletion marker (no payload) in the open txn."""
        txn = self._require_open()
        record = JournalRecord(self._take_seq(), txn.txn_id, TXN_DELETE, target)
        txn.records.append(record)
        self._append(record)

    def log_op(self, op: str, target: str) -> None:
        """Record a metadata-only operation intent as ``"<op>:<target>"``.

        Convenience over :meth:`log_delete` — DBFS intents (store,
        update, erase, …) are all ``op:uid`` markers with no payload,
        and recovery parses them back by splitting on the first colon.
        """
        self.log_delete(f"{op}:{target}")

    def commit(self) -> None:
        """Commit the open transaction (one flush).

        Inside a :meth:`batch`, the commit is deferred: the single
        group COMMIT record and its flush are issued when the batch
        closes.
        """
        if self._batching:
            self._require_open()
            return
        txn = self._require_open()
        with self.telemetry.op("journal.commit", txn=txn.txn_id):
            self._append(JournalRecord(self._take_seq(), txn.txn_id, TXN_COMMIT))
            self.stats.commits += 1
            self.stats.flushes += 1
        self._open = None
        self._maybe_checkpoint()

    def abort(self) -> None:
        """Drop the open transaction (its records remain physically logged)."""
        if self._batching:
            raise errors.JournalError("cannot abort inside a journal batch")
        self._require_open()
        self._open = None

    @contextmanager
    def batch(self) -> Iterator[int]:
        """Group commit: coalesce enclosed ops into one committed group.

        Usage::

            with journal.batch():
                for request in requests:
                    ...  # each op's begin/log/commit joins the group

        Everything logged inside the context shares one transaction;
        one COMMIT record and one flush close the group.  Batches do
        not nest, and a batch cannot open while a plain transaction is
        in flight.

        The group is all-or-nothing: if the body raises, the COMMIT
        record is never written, so :meth:`replay`/:meth:`recover` see
        none of the group's records — exactly what a crash in the
        middle of the batch would leave behind.
        """
        if self._batching:
            raise errors.JournalError("a journal batch is already open")
        if self._open is not None:
            raise errors.JournalError(
                "cannot open a batch while a transaction is in flight"
            )
        txn_id = self._next_txn
        self._next_txn += 1
        self._open = _OpenTransaction(txn_id)
        self._batching = True
        ops_before = self.stats.batched_ops
        with self.telemetry.op("journal.batch", txn=txn_id) as span:
            self._append(JournalRecord(self._take_seq(), txn_id, TXN_BEGIN))
            try:
                yield txn_id
            except BaseException:
                self._batching = False
                self._open = None
                self.stats.aborted_batches += 1
                span.set_attr("aborted", True)
                raise
            else:
                self._batching = False
                self._append(JournalRecord(self._take_seq(), txn_id, TXN_COMMIT))
                self.stats.commits += 1
                self.stats.flushes += 1
                self.stats.group_commits += 1
                span.set_attr("ops", self.stats.batched_ops - ops_before)
                self._open = None
                self._maybe_checkpoint()

    @contextmanager
    def hold_checkpoints(self) -> Iterator[None]:
        """Defer auto-checkpoints while a commit-before-apply op runs.

        DBFS erasure commits its intent record *before* the
        destructive scrubs so a crash mid-apply can be redone.  An
        auto-checkpoint firing at that commit would truncate the very
        intent the redo needs; holding checkpoints across the
        commit+apply span closes that window.  The deferred policy
        check runs when the outermost hold releases.
        """
        self._checkpoint_holds += 1
        try:
            yield
        finally:
            self._checkpoint_holds -= 1
            if self._checkpoint_holds == 0:
                self._maybe_checkpoint()

    # -- recovery / inspection ----------------------------------------------

    def replay(self) -> List[JournalRecord]:
        """Return committed records in order, as crash recovery would."""
        committed_txns = {
            record.txn_id
            for record in self._records
            if record.record_type == TXN_COMMIT
        }
        return [
            record
            for record in self._records
            if record.txn_id in committed_txns
            and record.record_type in (TXN_WRITE, TXN_DELETE)
        ]

    def recover(self) -> List[JournalRecord]:
        """Crash recovery proper: re-read the log from the device.

        Nothing in-memory is trusted: the scan starts at the on-device
        superblock, follows the sequence chain, validates every
        record's framing/length/CRC, truncates torn tails (counted in
        ``stats.torn_records``), rolls an interrupted checkpoint
        forward, and then *replaces* this journal's in-memory index,
        sequence/txn counters and append cursor with what the device
        actually holds.  Returns the committed WRITE/DELETE records in
        order.  Its cost is proportional to the log length — which is
        what the auto-checkpoint policy bounds, and what the SHARD
        benchmark's remount comparison measures.  Records of
        transactions lacking a COMMIT (a crash mid-batch) are dropped
        wholesale: group commits are all-or-nothing.
        """
        with self.telemetry.op("journal.recover") as span:
            scan = self._scan_extent()
            self._records = deque(scan.records)
            self._record_blocks = deque(scan.record_blocks)
            self._blocks_used = sum(len(b) for b in scan.record_blocks)
            self._extent_cursor = scan.cursor
            if scan.records:
                self._next_sequence = max(
                    self._next_sequence, scan.records[-1].sequence + 1
                )
                self._next_txn = max(
                    self._next_txn,
                    max(record.txn_id for record in scan.records) + 1,
                )
            else:
                self._next_sequence = max(self._next_sequence, scan.next_seq_hint)
            self._open = None
            self._batching = False
            committed_txns = {
                record.txn_id
                for record in self._records
                if record.record_type == TXN_COMMIT
            }
            recovered = [
                record
                for record in self._records
                if record.txn_id in committed_txns
                and record.record_type in (TXN_WRITE, TXN_DELETE)
            ]
            self.stats.recovers += 1
            self.stats.recovered_records += len(recovered)
            self.stats.torn_records += scan.torn_records
            span.set_attr("records", len(recovered))
            span.set_attr("torn", scan.torn_records)
        return recovered

    def scan_payloads(self, needle: bytes) -> List[JournalRecord]:
        """Forensic scan: records whose payload still contains ``needle``.

        This is the observation at the heart of the ILL-F experiment.
        """
        if not needle:
            raise errors.JournalError("cannot scan for an empty needle")
        return [record for record in self._records if needle in record.payload]

    def records(self) -> Iterator[JournalRecord]:
        # A snapshot: iterating the live deque while a writer appends
        # or reclaims would raise.
        return iter(list(self._records))

    def __len__(self) -> int:
        return len(self._records)

    @property
    def blocks_in_use(self) -> int:
        return self._blocks_used

    def checkpoint(self) -> int:
        """Truncate the log; returns the number of records discarded.
        Real filesystems do this on their own schedule — crucially,
        *not* when a user deletes PD.

        Crash-atomic ordering: the CHECKPOINT marker (and the
        superblock pointing at it) is written *before* the old log
        blocks are scrubbed.  A crash at any point leaves either the
        old log or a marker-led one — never a scrubbed, marker-less
        extent indistinguishable from corruption.
        """
        with self.telemetry.op("journal.checkpoint") as span:
            discarded = len(self._records)
            old_blocks = self._record_blocks
            self._records = deque()
            self._record_blocks = deque()
            self._blocks_used = 0
            # _append sees an empty log, so it writes the superblock
            # (head = marker) before the marker's own chunks land.
            self._append(JournalRecord(self._take_seq(), 0, TXN_CHECKPOINT))
            marker_blocks = set(self._record_blocks[0])
            for blocks in old_blocks:
                for block_no in blocks:
                    # A full extent can make the marker reuse an old
                    # record's slot; never scrub the marker itself.
                    if block_no not in marker_blocks:
                        self.device.scrub(block_no)
            self.stats.checkpoints += 1
            self.stats.checkpointed_records += discarded
            span.set_attr("discarded", discarded)
        return discarded

    def compact(self) -> Dict[str, int]:
        """Force a checkpoint and report what the truncation reclaimed.

        The auto-checkpoint policy bounds the log on its own schedule;
        ``compact`` is the *on-demand* variant the retention path uses
        after an erasure wave, so op history naming freshly-erased uids
        does not linger until the policy happens to fire.  Returns
        ``{"records_discarded": n, "blocks_reclaimed": m}``.
        """
        blocks_before = self.blocks_in_use
        discarded = self.checkpoint()
        return {
            "records_discarded": discarded,
            "blocks_reclaimed": max(0, blocks_before - self.blocks_in_use),
        }

    # -- internals ----------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        """Apply the auto-checkpoint policy at a commit boundary."""
        if self._open is not None or self._checkpoint_holds or not self.config.enabled:
            return
        cap_records = self.config.checkpoint_after_records
        cap_blocks = self.config.checkpoint_after_blocks
        if (cap_records is not None and len(self._records) >= cap_records) or (
            cap_blocks is not None and self._blocks_used >= cap_blocks
        ):
            self.checkpoint()

    def _require_open(self) -> _OpenTransaction:
        if self._open is None:
            raise errors.JournalError("no open transaction")
        return self._open

    def _take_seq(self) -> int:
        seq = self._next_sequence
        self._next_sequence += 1
        return seq

    def _advance(self, slot: int) -> int:
        """Next record slot after ``slot``, wrapping within the record
        area (slot 0 and the last slot hold the superblock copies)."""
        slot += 1
        return 1 if slot >= len(self._extent) - 1 else slot

    def _write_superblock(self, head_slot: int, base_sequence: int) -> None:
        self._sb_generation = (self._sb_generation + 1) & 0xFFFF
        raw = struct.pack(
            _SB_FORMAT,
            _SB_MAGIC,
            _SB_VERSION,
            head_slot,
            base_sequence & 0xFFFFFFFF,
            self._next_sequence & 0xFFFFFFFF,
            self._sb_generation,
        )
        # Backup first, primary second: a torn write destroys at most
        # the copy being written, and the other is complete — either
        # the previous state (torn backup) or the new one (torn
        # primary).  Recovery never faces two torn copies.
        self.device.write(self._extent[-1], raw)
        self.device.write(self._extent[0], raw)

    def _parse_superblock(self, raw: bytes) -> Optional[tuple]:
        """Decode one superblock copy; None if torn or invalid."""
        if len(raw) != struct.calcsize(_SB_FORMAT):
            return None
        magic, version, head, base, next_seq, generation = struct.unpack(
            _SB_FORMAT, raw
        )
        if magic != _SB_MAGIC or version != _SB_VERSION:
            return None
        if not 1 <= head < len(self._extent) - 1:
            return None
        return head, base, next_seq, generation

    def _read_superblock(self) -> tuple:
        primary = self._parse_superblock(self.device.read(self._extent[0]))
        backup = self._parse_superblock(self.device.read(self._extent[-1]))
        if primary is None and backup is None:
            raise errors.JournalError(
                "corrupt journal superblock: neither copy parses"
            )
        if primary is None:
            chosen = backup
        elif backup is None:
            chosen = primary
        else:
            # Serial-arithmetic comparison of the wrapping generation.
            newer = (primary[3] - backup[3]) & 0xFFFF < 0x8000
            chosen = primary if newer else backup
        self._sb_generation = chosen[3]
        return chosen[0], chosen[1], chosen[2]

    def _chunk(self, raw: bytes) -> List[bytes]:
        """Frame a record's bytes for the extent: magic + chunking."""
        size = self.device.block_size
        first_capacity = size - len(_RECORD_MAGIC)
        chunks = [_RECORD_MAGIC + raw[:first_capacity]]
        for offset in range(first_capacity, len(raw), size):
            chunks.append(raw[offset : offset + size])
        return chunks

    def _chunk_count(self, raw_length: int) -> int:
        size = self.device.block_size
        first_capacity = size - len(_RECORD_MAGIC)
        if raw_length <= first_capacity:
            return 1
        remainder = raw_length - first_capacity
        return 1 + (remainder + size - 1) // size

    def _scan_extent(self) -> _ScanResult:
        """Walk the on-device record chain from the superblock head.

        Stops cleanly at scrubbed space or a stale (wrong-sequence)
        block; stops with truncation at a torn record (valid head
        framing, invalid body), scrubbing the torn blocks so no
        partial payload lingers in the extent.
        """
        head, base_sequence, next_seq_hint = self._read_superblock()
        usable = len(self._extent) - 2
        records: List[JournalRecord] = []
        record_blocks: List[List[int]] = []
        torn = 0
        position = head
        expected = base_sequence
        used = 0
        while used < usable:
            first = self.device.read(self._extent[position])
            if not first.startswith(_RECORD_MAGIC):
                break  # scrubbed or stale space: clean end of log
            body = first[len(_RECORD_MAGIC) :]
            slots = [position]
            # The JSON header may span blocks on tiny-block devices.
            header_torn = False
            while b"\n" not in body:
                if len(slots) >= usable - used:
                    header_torn = True
                    break
                slots.append(self._advance(slots[-1]))
                body += self.device.read(self._extent[slots[-1]])
            if header_torn:
                torn += 1
                self._scrub_slots(slots)
                break
            header_raw = body.split(b"\n", 1)[0]
            try:
                header = json.loads(header_raw)
                sequence = int(header["seq"])
                payload_length = int(header.get("len", 0))
                valid_type = header.get("type") in _VALID_TYPES
            except (ValueError, TypeError, KeyError):
                torn += 1
                self._scrub_slots(slots)
                break
            if not valid_type or payload_length < 0:
                torn += 1
                self._scrub_slots(slots)
                break
            if sequence != expected:
                break  # stale record from a reclaimed region: end of log
            raw_length = len(header_raw) + 1 + payload_length
            total_chunks = self._chunk_count(raw_length)
            if total_chunks > usable - used:
                # The record claims more chunks than the free region
                # holds — its tail writes never landed.
                torn += 1
                self._scrub_slots(slots)
                break
            while len(slots) < total_chunks:
                slots.append(self._advance(slots[-1]))
                body += self.device.read(self._extent[slots[-1]])
            try:
                record = JournalRecord.from_bytes(body[:raw_length])
            except errors.JournalError:
                torn += 1
                self._scrub_slots(slots)
                break
            slots = slots[:total_chunks]
            records.append(record)
            record_blocks.append([self._extent[slot] for slot in slots])
            expected = sequence + 1
            used += total_chunks
            position = self._advance(slots[-1])
        # Roll an interrupted checkpoint forward: everything before the
        # last CHECKPOINT marker was already flushed — superblock first,
        # then scrub, same ordering rule as a live checkpoint.
        marker_index = None
        for index, record in enumerate(records):
            if record.record_type == TXN_CHECKPOINT:
                marker_index = index
        if marker_index:
            stale_blocks = record_blocks[:marker_index]
            records = records[marker_index:]
            record_blocks = record_blocks[marker_index:]
            self._write_superblock(
                self._slot_of[record_blocks[0][0]], records[0].sequence
            )
            keep = {block for blocks in record_blocks for block in blocks}
            for blocks in stale_blocks:
                for block_no in blocks:
                    if block_no not in keep:
                        self.device.scrub(block_no)
        return _ScanResult(
            records=records,
            record_blocks=record_blocks,
            cursor=position,
            torn_records=torn,
            next_seq_hint=next_seq_hint,
        )

    def _scrub_slots(self, slots: List[int]) -> None:
        for slot in slots:
            self.device.scrub(self._extent[slot])

    def _append(self, record: JournalRecord) -> None:
        raw = record.to_bytes()
        chunks = self._chunk(raw)
        usable = self.reserved_blocks - 2
        if len(chunks) > usable:
            raise errors.JournalError(
                f"record of {len(raw)} bytes exceeds journal capacity"
            )
        was_empty = not self._records
        # Reclaim oldest records until the chunks fit in the record area.
        reclaimed: List[List[int]] = []
        while self._blocks_used + len(chunks) > usable and self._records:
            oldest = self._record_blocks.popleft()
            self._records.popleft()
            self._blocks_used -= len(oldest)
            reclaimed.append(oldest)
        slots: List[int] = []
        cursor = self._extent_cursor
        for _ in chunks:
            slots.append(cursor)
            cursor = self._advance(cursor)
        # Durability ordering: move the superblock head past reclaimed
        # records (or onto this record, if the log was empty) before
        # any block is scrubbed or written.
        if reclaimed or was_empty:
            if self._records:
                head_slot = self._slot_of[self._record_blocks[0][0]]
                base_sequence = self._records[0].sequence
            else:
                head_slot, base_sequence = slots[0], record.sequence
            self._write_superblock(head_slot, base_sequence)
        new_slots = set(slots)
        for blocks in reclaimed:
            for block_no in blocks:
                if self._slot_of[block_no] not in new_slots:
                    self.device.scrub(block_no)
        for slot, chunk in zip(slots, chunks):
            self.device.write(self._extent[slot], chunk)
        self._extent_cursor = cursor
        self._records.append(record)
        self._record_blocks.append([self._extent[slot] for slot in slots])
        self._blocks_used += len(slots)
        self.stats.appends += 1
