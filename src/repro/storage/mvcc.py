"""MVCC snapshot state for DBFS reads that never block writers.

The request engine (PR 6) runs right-of-access exports and type-level
scans concurrently with stores, consent mutations and erasures.  A
reader that iterated live structures under a writer would see torn
state: a record linked into the table before its membrane cache entry
lands, or a consent map mid-mutation.  Classic MVCC fixes this with
begin/end versions stamped from a global commit counter; this module
is the deliberately small variant DBFS needs:

* **One commit counter per DatabaseFS (per shard).**  Every mutation
  (store, update, delete, membrane change) bumps it under the MVCC
  lock; a snapshot is just the counter value at begin time.
* **Record visibility.**  A record is visible to snapshot ``S`` iff
  its begin version is ``<= S``.  Begin versions are only *recorded*
  while at least one snapshot is active — a store that no snapshot
  can possibly miss needs no bookkeeping, which keeps the serial path
  allocation-free.
* **Membrane version chains.**  A consent mutation while a snapshot
  is active appends ``(commit_version, membrane)`` to the uid's chain
  (lazily seeded with the pre-mutation state), so the snapshot reads
  the consent state *as of* its begin version.  Published membranes
  are read-only values (writers mutate a copy), so chain entries are
  safe to hand across threads and this module never looks inside one.
  Revocation and RTBF go through the same path: they commit a new
  chain entry, which makes them immediately visible to the *next*
  snapshot — the GDPR-critical direction.
* **Erasure is stricter than MVCC.**  A scrubbed record's payload is
  physically gone; an old snapshot does NOT retain read access to
  erased PD (readers skip it).  Snapshot isolation here protects
  consistency of what may be read, never prolongs the life of what
  must not be.
* **Pruning.**  When the last active snapshot releases, every chain
  and begin version is dropped — steady-state memory is zero when no
  snapshot is open, and bounded by mutations-during-snapshots
  otherwise.

Payload reads are read-committed (an in-place ``update`` is visible
to concurrent snapshots); the enforcement-relevant state — which
records exist and what their membranes permit — is what snapshots
pin.  The equivalence and isolation stress tests exercise exactly
this contract.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple


class MVCCState:
    """Commit counter, visibility map and membrane chains for one store."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._version = 0
        #: active snapshot version -> refcount (several snapshots may
        #: begin at the same version).
        self._active: Dict[int, int] = {}
        #: uid -> commit version of its store (recorded only while a
        #: snapshot is active; absent means "visible to everyone").
        self._begin: Dict[str, int] = {}
        #: uid -> [(from_version, membrane), ...] ascending.
        self._chains: Dict[str, List[Tuple[int, object]]] = {}
        #: uid -> pre-mutation state of an in-flight membrane publish
        #: (prepare_membrane() called, stamp_membrane() not yet).  A
        #: snapshot beginning inside that window seeds the chain from
        #: here so it never reads the half-published new state.
        self._pending: Dict[str, object] = {}
        #: uids of in-flight stores (prepare_store() called,
        #: stamp_store() not yet): already linked into the indexes but
        #: not committed, so invisible to every snapshot.
        self._pending_stores: Set[str] = set()
        self.snapshots_taken = 0
        self.chain_entries_recorded = 0

    # -- commits ---------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    @property
    def snapshots_active(self) -> bool:
        return bool(self._active)

    def commit(self) -> int:
        """Bump the commit counter for a mutation needing no stamping."""
        with self._lock:
            self._version += 1
            return self._version

    def prepare_store(self, uid: str) -> None:
        """Pre-register a store before the uid is linked anywhere.

        Between linking the uid into the indexes and :meth:`stamp_store`
        the record has no begin version, which :meth:`visible` would
        read as "visible to everyone"; the pending mark hides it from
        every snapshot until the commit is stamped or withdrawn.
        """
        with self._lock:
            self._pending_stores.add(uid)

    def stamp_store(self, uid: str) -> int:
        """Commit a store; records the begin version if anyone may care."""
        with self._lock:
            self._version += 1
            self._pending_stores.discard(uid)
            if self._active:
                self._begin[uid] = self._version
            return self._version

    def prepare_membrane(self, uid: str, old: object) -> None:
        """Pre-register a membrane publish before it becomes visible.

        The writer calls this *before* rewriting the inode and the
        live cache with the new membrane.  It seeds the uid's chain
        with the pre-mutation state while any snapshot is active, and
        parks ``old`` in the pending map so a snapshot that *begins*
        during the publish window (new state live, commit not stamped)
        is seeded by :meth:`begin_snapshot` — without this, such a
        reader would find no chain entry and fall through to the
        half-published live state.  The matching :meth:`stamp_membrane`
        clears the pending entry.
        """
        with self._lock:
            self._pending[uid] = old
            if self._active and uid not in self._chains:
                self._chains[uid] = [(self._begin.get(uid, 0), old)]

    def stamp_membrane(self, uid: str, old: object, new: object) -> int:
        """Commit a membrane mutation, chaining the old state if needed.

        ``old`` is the pre-mutation membrane; it seeds the chain the
        first time a uid's membrane changes under an active snapshot,
        so that snapshot keeps reading the state it began with.
        """
        with self._lock:
            self._version += 1
            self._pending.pop(uid, None)
            if self._active or uid in self._chains:
                chain = self._chains.get(uid)
                if chain is None:
                    chain = self._chains[uid] = [(self._begin.get(uid, 0), old)]
                chain.append((self._version, new))
                self.chain_entries_recorded += 1
            return self._version

    def withdraw(self, uid: str) -> None:
        """Drop the pre-registration of a store or membrane publish
        that aborted before it was stamped."""
        with self._lock:
            self._pending_stores.discard(uid)
            self._pending.pop(uid, None)

    # -- snapshots -------------------------------------------------------

    def begin_snapshot(self) -> int:
        with self._lock:
            self.snapshots_taken += 1
            version = self._version
            self._active[version] = self._active.get(version, 0) + 1
            # Membrane publishes may be in flight (prepare_membrane
            # ran, stamp_membrane has not): seed their chains so this
            # snapshot reads the pre-publish consent state instead of
            # the already-live new state.
            for uid, old in self._pending.items():
                if uid not in self._chains:
                    self._chains[uid] = [(self._begin.get(uid, 0), old)]
            return version

    def release_snapshot(self, version: int) -> None:
        with self._lock:
            count = self._active.get(version, 0)
            if count <= 1:
                self._active.pop(version, None)
            else:
                self._active[version] = count - 1
            if not self._active:
                # Nobody can ask for historical state any more: every
                # future snapshot begins at >= the current version and
                # therefore reads live structures directly.
                self._chains.clear()
                self._begin.clear()

    # -- reads -----------------------------------------------------------

    def visible(self, uid: str, snapshot_version: int) -> bool:
        """Was ``uid`` stored at or before ``snapshot_version``?

        Taken under the MVCC lock: writers mutate ``_begin`` under it,
        and relying on GIL dict atomicity would break on free-threaded
        builds.  The critical section is a single dict probe.
        """
        with self._lock:
            if uid in self._pending_stores:
                return False
            begin = self._begin.get(uid)
        return begin is None or begin <= snapshot_version

    def visible_many(self, uids: Sequence[str],
                     snapshot_version: int) -> List[str]:
        """Filter ``uids`` to those visible at ``snapshot_version``.

        The batched read path checks visibility a chunk at a time;
        doing it here amortizes the lock acquisition over the whole
        chunk instead of taking it once per row like :meth:`visible`.
        """
        with self._lock:
            begin = self._begin
            pending = self._pending_stores
            return [
                uid for uid in uids
                if uid not in pending
                and ((b := begin.get(uid)) is None or b <= snapshot_version)
            ]

    def membrane_as_of(self, uid: str,
                       snapshot_version: int) -> Optional[object]:
        """The membrane as of the snapshot, or None meaning "use live".

        Walks the uid's chain backwards for the last entry whose
        from_version is ``<= snapshot_version``; no chain means the
        membrane has not changed since before every active snapshot.
        The walk runs under the MVCC lock — stamp_membrane replaces
        and appends chains under it, and a reader iterating a chain
        mid-construction without the lock is only safe by the GIL.
        Chains are short (mutations during active snapshots), so the
        critical section stays tiny.
        """
        with self._lock:
            chain = self._chains.get(uid)
            if not chain:
                return None
            for from_version, membrane in reversed(chain):
                if from_version <= snapshot_version:
                    return membrane
            # Chain exists but every entry postdates the snapshot — the
            # record itself was stored after the snapshot began; callers
            # filter those out via visible() before asking for membranes.
            return chain[0][1]

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "commit_version": self._version,
                "active_snapshots": sum(self._active.values()),
                "snapshots_taken": self.snapshots_taken,
                "tracked_begin_versions": len(self._begin),
                "membrane_chains": len(self._chains),
                "chain_entries_recorded": self.chain_entries_recorded,
            }


class Snapshot:
    """A released-once handle on one store's consistent read point.

    Also answers ``for_shard(i)`` with itself so code written against
    fleet snapshots runs unchanged on a single DBFS (mirroring the
    ``DatabaseFS.shards`` one-shard shim).
    """

    __slots__ = ("version", "_state", "_released")

    def __init__(self, state: MVCCState, version: int):
        self.version = version
        self._state = state
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def for_shard(self, index: int) -> "Snapshot":
        return self

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._state.release_snapshot(self.version)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else "active"
        return f"Snapshot(v{self.version}, {state})"


class FleetSnapshot:
    """Per-shard snapshots taken together for scatter-gather reads.

    Each shard has its own commit counter, so a fleet snapshot is a
    vector of per-shard versions; ``for_shard(i)`` hands each fanned-
    out sub-read its shard's component.  A degraded shard's slot is
    ``None`` — reads never reach it anyway.
    """

    __slots__ = ("_snapshots", "_released")

    def __init__(self, snapshots: Sequence[Optional[Snapshot]]):
        self._snapshots = list(snapshots)
        self._released = False

    @property
    def versions(self) -> Tuple[Optional[int], ...]:
        return tuple(
            s.version if s is not None else None for s in self._snapshots
        )

    @property
    def released(self) -> bool:
        return self._released

    def for_shard(self, index: int) -> Optional[Snapshot]:
        return self._snapshots[index]

    def release(self) -> None:
        if not self._released:
            self._released = True
            for snapshot in self._snapshots:
                if snapshot is not None:
                    snapshot.release()

    def __enter__(self) -> "FleetSnapshot":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FleetSnapshot(versions={self.versions})"
