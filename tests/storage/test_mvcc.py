"""Unit tests for MVCC snapshot isolation in DBFS and the fleet.

The contract under test (src/repro/storage/mvcc.py):

* a snapshot pins record *existence* (stores committed after the
  snapshot began are invisible) and membrane *consent state* (a
  revocation committed after the begin does not flip decisions made
  against that snapshot — the next snapshot sees it);
* erasure is STRICTER than MVCC: a payload scrubbed mid-snapshot is
  gone for everyone, snapshot or not (RTBF never waits for readers);
* version tracking is pay-as-you-go: with no snapshot active, commits
  are not recorded, and releasing the last snapshot prunes all chains.
"""

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.builtins import BuiltinFunctions
from repro.core.clock import Clock
from repro.core.crypto import Authority
from repro.core.datatypes import FieldDef, PDType
from repro.core.membrane import membrane_for_type
from repro.core.processing_log import ProcessingLog
from repro.storage.dbfs import DatabaseFS
from repro.storage.mvcc import FleetSnapshot, MVCCState
from repro.storage.query import (
    DeleteRequest,
    MembraneQuery,
    Predicate,
    StoreRequest,
)
from repro.storage.shard import ShardedDBFS

DED = AccessCredential(holder="mvcc-ded", is_ded=True)


def make_type():
    return PDType(
        name="user",
        fields=(FieldDef("name", "string"), FieldDef("year", "int")),
        default_consent={"stats": "all"},
        collection={"web_form": "form.html"},
    )


@pytest.fixture
def dbfs():
    authority = Authority(bits=512, seed=31)
    fs = DatabaseFS(operator_key=authority.issue_operator_key("mvcc-op"))
    fs.create_type(make_type(), DED)
    return fs


def store(fs, subject, name="Ada", year=1815):
    membrane = membrane_for_type(make_type(), subject, created_at=0.0)
    return fs.store(
        StoreRequest(
            pd_type="user",
            record={"name": name, "year": year},
            membrane_json=membrane.to_json(),
        ),
        DED,
    )


class TestMVCCState:
    def test_no_tracking_without_active_snapshot(self):
        state = MVCCState()
        state.commit()
        state.stamp_store("pd:x:1")
        report = state.as_dict()
        assert report["tracked_begin_versions"] == 0
        assert report["membrane_chains"] == 0

    def test_store_after_begin_is_invisible(self):
        state = MVCCState()
        version = state.begin_snapshot()
        state.stamp_store("pd:x:1")
        state.commit()
        assert not state.visible("pd:x:1", version)
        later = state.begin_snapshot()
        assert state.visible("pd:x:1", later)
        state.release_snapshot(version)
        state.release_snapshot(later)

    def test_untracked_uid_is_visible(self):
        # A uid with no begin record predates every snapshot.
        state = MVCCState()
        version = state.begin_snapshot()
        assert state.visible("pd:old:1", version)
        state.release_snapshot(version)

    def test_membrane_chain_serves_pre_mutation_json(self):
        state = MVCCState()
        version = state.begin_snapshot()
        state.stamp_membrane("pd:x:1", '{"v": "old"}', '{"v": "new"}')
        state.commit()
        assert state.membrane_as_of("pd:x:1", version) == '{"v": "old"}'
        later = state.begin_snapshot()
        # The mutation predates this snapshot: the chain tip it reads
        # is byte-identical to the live state.
        assert state.membrane_as_of("pd:x:1", later) == '{"v": "new"}'
        state.release_snapshot(version)
        state.release_snapshot(later)
        # Last release pruned the chain: live is the only state left.
        assert state.membrane_as_of("pd:x:1", later) is None

    def test_pending_publish_covers_active_snapshot(self):
        # put_membrane publishes the new JSON to the inode/caches
        # before stamp_membrane commits; an already-active snapshot
        # must resolve the old state through the chain in that window.
        state = MVCCState()
        version = state.begin_snapshot()
        state.prepare_membrane("pd:x:1", '{"v": "old"}')
        assert state.membrane_as_of("pd:x:1", version) == '{"v": "old"}'
        state.stamp_membrane("pd:x:1", '{"v": "old"}', '{"v": "new"}')
        assert state.membrane_as_of("pd:x:1", version) == '{"v": "old"}'
        state.release_snapshot(version)

    def test_pending_publish_seeds_snapshot_begun_mid_window(self):
        # A snapshot that BEGINS between prepare and stamp predates
        # the commit version, so it too must read the old state even
        # though the live structures already hold the new JSON.
        state = MVCCState()
        state.prepare_membrane("pd:x:1", '{"v": "old"}')
        version = state.begin_snapshot()
        assert state.membrane_as_of("pd:x:1", version) == '{"v": "old"}'
        state.stamp_membrane("pd:x:1", '{"v": "old"}', '{"v": "new"}')
        assert state.membrane_as_of("pd:x:1", version) == '{"v": "old"}'
        later = state.begin_snapshot()
        assert state.membrane_as_of("pd:x:1", later) == '{"v": "new"}'
        state.release_snapshot(version)
        state.release_snapshot(later)

    def test_pending_publish_leaves_serial_path_unburdened(self):
        # No snapshot anywhere near the publish: stamp clears the
        # pending marker and no chain is ever materialized.
        state = MVCCState()
        state.prepare_membrane("pd:x:1", '{"v": "old"}')
        state.stamp_membrane("pd:x:1", '{"v": "old"}', '{"v": "new"}')
        assert state.as_dict()["membrane_chains"] == 0

    def test_pending_store_invisible_until_stamped(self):
        # store() links the uid into the indexes before its commit is
        # stamped; in that window no snapshot may see it.
        state = MVCCState()
        version = state.begin_snapshot()
        state.prepare_store("pd:x:1")
        assert not state.visible("pd:x:1", version)
        assert state.visible_many(["pd:x:1", "pd:old:1"], version) == [
            "pd:old:1"
        ]
        state.stamp_store("pd:x:1")
        assert not state.visible("pd:x:1", version)
        later = state.begin_snapshot()
        assert state.visible("pd:x:1", later)
        state.release_snapshot(version)
        state.release_snapshot(later)

    def test_withdraw_drops_pending_registrations(self):
        state = MVCCState()
        version = state.begin_snapshot()
        state.prepare_store("pd:x:1")
        state.prepare_membrane("pd:y:1", '{"v": "old"}')
        state.withdraw("pd:x:1")
        state.withdraw("pd:y:1")
        assert state.visible("pd:x:1", version)
        assert state._pending_stores == set()
        assert state._pending == {}
        state.release_snapshot(version)

    def test_release_of_last_snapshot_prunes_everything(self):
        state = MVCCState()
        version = state.begin_snapshot()
        state.stamp_store("pd:x:1")
        state.stamp_membrane("pd:y:1", "{}", '{"e": 1}')
        state.commit()
        state.release_snapshot(version)
        report = state.as_dict()
        assert report["active_snapshots"] == 0
        assert report["tracked_begin_versions"] == 0
        assert report["membrane_chains"] == 0


class TestDBFSSnapshots:
    def test_snapshot_hides_later_stores(self, dbfs):
        store(dbfs, "alice")
        with dbfs.begin_snapshot() as snapshot:
            ref_bob = store(dbfs, "bob")
            pairs = dbfs.query_membranes(
                MembraneQuery("user"), DED, snapshot=snapshot
            )
            assert [m.subject_id for _, m in pairs] == ["alice"]
            # The live view (no snapshot) sees bob immediately.
            live = dbfs.query_membranes(MembraneQuery("user"), DED)
            assert {m.subject_id for _, m in live} == {"alice", "bob"}
        with dbfs.begin_snapshot() as fresh:
            pairs = dbfs.query_membranes(
                MembraneQuery("user"), DED, snapshot=fresh
            )
            assert {m.subject_id for _, m in pairs} == {"alice", "bob"}
        assert ref_bob.uid in dbfs.uids_of_subject("bob")

    def test_snapshot_pins_consent_across_revocation(self, dbfs):
        ref = store(dbfs, "alice")
        with dbfs.begin_snapshot() as snapshot:
            membrane = dbfs.get_membrane(ref.uid, DED).copy()
            membrane.revoke("stats", at=1.0, by="alice")
            dbfs.put_membrane(ref.uid, membrane, DED)
            # This snapshot still reads the pre-revocation consent...
            as_of = dbfs.get_membrane(ref.uid, DED, snapshot=snapshot)
            assert as_of.permits("stats") == "all"
            # ...while the live membrane already refuses.
            assert dbfs.get_membrane(ref.uid, DED).permits("stats") is None
        # The NEXT snapshot sees the revocation — nothing lingers.
        with dbfs.begin_snapshot() as fresh:
            after = dbfs.get_membrane(ref.uid, DED, snapshot=fresh)
            assert after.permits("stats") is None

    def test_erasure_beats_snapshot(self, dbfs):
        """RTBF does not wait for readers: scrubbed is scrubbed."""
        ref = store(dbfs, "alice")
        with dbfs.begin_snapshot() as snapshot:
            dbfs.delete(DeleteRequest(ref.uid, mode="erase"), DED)
            export = dbfs.export_subject("alice", DED, snapshot=snapshot)
            entries = {e["uid"]: e for e in export["records"]}
            assert entries[ref.uid]["data"] is None
            assert entries[ref.uid]["erased"] is True

    def test_select_filters_by_snapshot(self, dbfs):
        store(dbfs, "alice", year=1900)
        with dbfs.begin_snapshot() as snapshot:
            store(dbfs, "bob", year=1950)
            uids = dbfs.select_uids_where(
                "user", [Predicate("year", "gt", 1800)], DED,
                snapshot=snapshot,
            )
            assert len(uids) == 1
        uids = dbfs.select_uids_where(
            "user", [Predicate("year", "gt", 1800)], DED
        )
        assert len(uids) == 2

    def test_snapshot_release_is_idempotent(self, dbfs):
        snapshot = dbfs.begin_snapshot()
        snapshot.release()
        snapshot.release()
        assert snapshot.released
        assert dbfs.mvcc_stats()["active_snapshots"] == 0

    def test_for_shard_on_single_dbfs_snapshot(self, dbfs):
        with dbfs.begin_snapshot() as snapshot:
            # The single-DBFS shim: any shard index maps to itself, so
            # fleet-shaped code paths work unchanged on one store.
            assert snapshot.for_shard(0) is snapshot
            assert snapshot.for_shard(3) is snapshot

    def test_mvcc_stats_counts_snapshots(self, dbfs):
        with dbfs.begin_snapshot():
            with dbfs.begin_snapshot():
                stats = dbfs.mvcc_stats()
                assert stats["active_snapshots"] == 2
        stats = dbfs.mvcc_stats()
        assert stats["active_snapshots"] == 0
        assert stats["snapshots_taken"] >= 2


class TestCommitWindows:
    """A store or membrane publish is either committed and stamped,
    or leaves nothing a reader can observe."""

    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_store_inside_commit_window_is_invisible(
        self, shard_count, monkeypatch
    ):
        authority = Authority(bits=512, seed=41)
        key = authority.issue_operator_key("window-op")
        fs = (
            DatabaseFS(operator_key=key) if shard_count == 1
            else ShardedDBFS(shard_count=shard_count, operator_key=key)
        )
        fs.create_type(make_type(), DED)
        store(fs, "before")

        def rows(snapshot):
            uids = fs.select_uids(
                "user", Predicate("year", "eq", 1815), DED, snapshot=snapshot
            )
            pairs = fs.query_membranes(
                MembraneQuery("user"), DED, snapshot=snapshot
            )
            return len(uids), len(pairs)

        with fs.begin_snapshot() as snapshot:
            in_window = []
            for shard in fs.shards:
                def hooked(*args, _commit=shard.journal.commit, **kwargs):
                    # The new uid is already linked into the indexes.
                    in_window.append(rows(snapshot))
                    return _commit(*args, **kwargs)

                monkeypatch.setattr(shard.journal, "commit", hooked)
            store(fs, "during")
            assert in_window == [(1, 1)]
            assert rows(snapshot) == (1, 1)
        assert rows(None) == (2, 2)

    def test_aborted_store_withdraws_its_registration(
        self, dbfs, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise errors.TransientIOError("injected")

        monkeypatch.setattr(dbfs.inodes, "write_payload", failing)
        with pytest.raises(errors.TransientIOError):
            store(dbfs, "alice")
        assert dbfs.mvcc._pending_stores == set()

    def test_failed_put_membrane_leaves_no_unpersisted_consent(
        self, dbfs, monkeypatch
    ):
        ref = store(dbfs, "alice")
        # Callers mutate a copy, then persist it.
        membrane = dbfs.get_membrane(ref.uid, DED).copy()
        membrane.grant("marketing", "all", at=1.0)

        def failing(*args, **kwargs):
            raise errors.TransientIOError("injected")

        monkeypatch.setattr(dbfs.inodes, "rewrite_scrubbed", failing)
        with pytest.raises(errors.TransientIOError):
            dbfs.put_membrane(ref.uid, membrane, DED)
        assert dbfs.get_membrane(ref.uid, DED).permits("marketing") is None
        assert ref.uid not in dbfs.mvcc._pending
        with dbfs.begin_snapshot() as snapshot:
            live = dbfs.get_membrane(ref.uid, DED, snapshot=snapshot)
            assert live.permits("marketing") is None

    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_consent_change_unseen_before_its_publish(self, shard_count):
        authority = Authority(bits=512, seed=43)
        key = authority.issue_operator_key("publish-op")
        fs = (
            DatabaseFS(operator_key=key) if shard_count == 1
            else ShardedDBFS(shard_count=shard_count, operator_key=key)
        )
        fs.create_type(make_type(), DED)
        ref = store(fs, "alice")
        fs.get_membrane(ref.uid, DED)  # warm the membrane cache
        builtins = BuiltinFunctions(fs, Clock(), ProcessingLog())
        seen = []
        with fs.begin_snapshot() as snapshot:
            def grant(membrane):
                membrane.grant("marketing", "all", at=1.0, by="alice")
                for read in (snapshot, None):
                    seen.append(
                        fs.get_membrane(ref.uid, DED, snapshot=read)
                        .permits("marketing")
                    )

            assert builtins.apply_membrane_change(ref.uid, grant) == [ref.uid]
            assert fs.get_membrane(
                ref.uid, DED, snapshot=snapshot
            ).permits("marketing") is None
        assert seen == [None, None]
        assert fs.get_membrane(ref.uid, DED).permits("marketing") == "all"

    def test_put_membrane_rejects_the_published_object(self, dbfs):
        ref = store(dbfs, "alice")
        published = dbfs.get_membrane(ref.uid, DED)
        published.grant("marketing", "all", at=1.0)
        with pytest.raises(errors.DBFSError):
            dbfs.put_membrane(ref.uid, published, DED)
        # The rejected change is dropped: readers see the device state.
        assert dbfs.get_membrane(ref.uid, DED).permits("marketing") is None
        # A copy of the published membrane is the supported way in.
        membrane = dbfs.get_membrane(ref.uid, DED).copy()
        membrane.revoke("stats", at=2.0)
        dbfs.put_membrane(ref.uid, membrane, DED)
        assert dbfs.get_membrane(ref.uid, DED) is membrane


class TestFleetSnapshots:
    @pytest.fixture
    def fleet(self):
        authority = Authority(bits=512, seed=37)
        fs = ShardedDBFS(
            shard_count=3,
            operator_key=authority.issue_operator_key("fleet-op"),
        )
        fs.create_type(make_type(), DED)
        return fs

    def test_fleet_snapshot_spans_all_shards(self, fleet):
        for i in range(6):
            store(fleet, f"subject-{i}")
        snapshot = fleet.begin_snapshot()
        try:
            assert len(snapshot.versions) == 3
            assert all(v is not None for v in snapshot.versions)
            store(fleet, "late-arrival")
            pairs = fleet.query_membranes(
                MembraneQuery("user"), DED, snapshot=snapshot
            )
            assert len(pairs) == 6
        finally:
            snapshot.release()
        pairs = fleet.query_membranes(MembraneQuery("user"), DED)
        assert len(pairs) == 7

    def test_fleet_snapshot_release_is_idempotent(self, fleet):
        snapshot = fleet.begin_snapshot()
        snapshot.release()
        snapshot.release()
        assert snapshot.released
        assert fleet.mvcc_stats()["active_snapshots"] == 0

    def test_fleet_mvcc_stats_aggregates_shards(self, fleet):
        with fleet.begin_snapshot():
            stats = fleet.mvcc_stats()
        assert len(stats["per_shard"]) == 3
        assert stats["snapshots_taken"] >= 3

    def test_degraded_shard_yields_none_slot(self):
        snapshot = FleetSnapshot([None, None])
        assert snapshot.versions == (None, None)
        assert snapshot.for_shard(1) is None
        snapshot.release()  # must not raise on all-None
        assert snapshot.released
