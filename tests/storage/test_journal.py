"""Unit tests for the write-ahead journal."""

import pytest

from repro import errors
from repro.storage.block import BlockDevice
from repro.storage.journal import (
    TXN_DELETE,
    TXN_WRITE,
    Journal,
    JournalRecord,
)


@pytest.fixture
def journal():
    return Journal(BlockDevice(block_count=512, block_size=64), reserved_blocks=64)


class TestTransactions:
    def test_begin_commit_cycle(self, journal):
        txn = journal.begin()
        journal.log_write("/a", b"data")
        journal.commit()
        assert txn == 1
        replayed = journal.replay()
        assert len(replayed) == 1
        assert replayed[0].record_type == TXN_WRITE

    def test_nested_begin_rejected(self, journal):
        journal.begin()
        with pytest.raises(errors.JournalError):
            journal.begin()

    def test_log_without_open_txn_rejected(self, journal):
        with pytest.raises(errors.JournalError):
            journal.log_write("/a", b"data")
        with pytest.raises(errors.JournalError):
            journal.log_delete("/a")
        with pytest.raises(errors.JournalError):
            journal.commit()

    def test_uncommitted_records_not_replayed(self, journal):
        journal.begin()
        journal.log_write("/a", b"lost")
        journal.abort()
        assert journal.replay() == []

    def test_replay_preserves_order(self, journal):
        for index in range(5):
            journal.begin()
            journal.log_write(f"/f{index}", str(index).encode())
            journal.commit()
        replayed = journal.replay()
        assert [record.target for record in replayed] == [
            "/f0", "/f1", "/f2", "/f3", "/f4"
        ]

    def test_delete_records_have_no_payload(self, journal):
        journal.begin()
        journal.log_delete("/gone")
        journal.commit()
        (record,) = journal.replay()
        assert record.record_type == TXN_DELETE
        assert record.payload == b""

    def test_txn_ids_increase(self, journal):
        first = journal.begin()
        journal.commit()
        second = journal.begin()
        journal.commit()
        assert second == first + 1


class TestGroupCommit:
    """journal.batch(): N ops, one BEGIN/COMMIT pair, one flush."""

    def test_batch_coalesces_records(self, journal):
        with journal.batch():
            for index in range(5):
                journal.begin()
                journal.log_delete(f"op:{index}")
                journal.commit()
        # N + 2 records instead of 3N.
        assert len(journal) == 7
        assert journal.stats.flushes == 1
        assert journal.stats.commits == 1
        assert journal.stats.group_commits == 1

    def test_unbatched_ops_cost_three_records_each(self, journal):
        for index in range(5):
            journal.begin()
            journal.log_delete(f"op:{index}")
            journal.commit()
        assert len(journal) == 15
        assert journal.stats.flushes == 5

    def test_batched_ops_share_one_txn_id(self, journal):
        with journal.batch() as group_txn:
            first = journal.begin()
            journal.log_delete("a")
            journal.commit()
            second = journal.begin()
            journal.log_delete("b")
            journal.commit()
        assert first == second == group_txn
        assert journal.stats.batched_ops == 2

    def test_batched_records_replay_as_committed(self, journal):
        with journal.batch():
            journal.begin()
            journal.log_delete("x")
            journal.commit()
            journal.begin()
            journal.log_delete("y")
            journal.commit()
        replayed = journal.replay()
        assert [record.target for record in replayed] == ["x", "y"]

    def test_nested_batch_rejected(self, journal):
        with journal.batch():
            with pytest.raises(errors.JournalError):
                with journal.batch():
                    pass

    def test_batch_over_open_txn_rejected(self, journal):
        journal.begin()
        with pytest.raises(errors.JournalError):
            with journal.batch():
                pass

    def test_abort_inside_batch_rejected(self, journal):
        with journal.batch():
            journal.begin()
            with pytest.raises(errors.JournalError):
                journal.abort()
            journal.commit()

    def test_plain_transactions_work_after_batch(self, journal):
        with journal.batch():
            journal.begin()
            journal.log_delete("grouped")
            journal.commit()
        txn = journal.begin()
        journal.log_delete("solo")
        journal.commit()
        assert txn > 0
        assert [r.target for r in journal.replay()] == ["grouped", "solo"]

    def test_appends_counted(self, journal):
        with journal.batch():
            journal.begin()
            journal.log_delete("only")
            journal.commit()
        assert journal.stats.appends == 3  # BEGIN + op + COMMIT


class TestRTBFViolation:
    """The § 1 observation: deleted data lives on in the journal."""

    def test_payload_survives_file_delete(self, journal):
        journal.begin()
        journal.log_write("/pd/alice", b"ALICE-SECRET-DATA")
        journal.commit()
        journal.begin()
        journal.log_delete("/pd/alice")
        journal.commit()
        surviving = journal.scan_payloads(b"ALICE-SECRET")
        assert len(surviving) == 1
        assert surviving[0].target == "/pd/alice"

    def test_scan_rejects_empty_needle(self, journal):
        with pytest.raises(errors.JournalError):
            journal.scan_payloads(b"")

    def test_checkpoint_is_the_only_eviction(self, journal):
        journal.begin()
        journal.log_write("/pd/bob", b"BOB-SECRET")
        journal.commit()
        assert journal.scan_payloads(b"BOB-SECRET")
        discarded = journal.checkpoint()
        assert discarded >= 1
        assert journal.scan_payloads(b"BOB-SECRET") == []

    def test_checkpoint_scrubs_device_blocks(self, journal):
        journal.begin()
        journal.log_write("/pd/eve", b"EVE-SECRET")
        journal.commit()
        assert journal.device.scan(b"EVE-SECRET")
        journal.checkpoint()
        assert journal.device.scan(b"EVE-SECRET") == []


class TestWrapAround:
    def test_old_records_evicted_when_extent_fills(self):
        device = BlockDevice(block_count=128, block_size=64)
        journal = Journal(device, reserved_blocks=8)
        for index in range(50):
            journal.begin()
            journal.log_write(f"/f{index}", b"x" * 32)
            journal.commit()
        assert journal.blocks_in_use <= 8
        # Early records are gone, late ones remain.
        targets = [record.target for record in journal.records()]
        assert "/f0" not in targets
        assert "/f49" in targets

    def test_block_counter_tracks_record_blocks(self):
        device = BlockDevice(block_count=256, block_size=64)
        journal = Journal(device, reserved_blocks=12)

        def append_some(count, start):
            for index in range(start, start + count):
                journal.begin()
                # 1..3 blocks per record, so reclaim frees uneven runs.
                journal.log_write(f"/f{index}", b"x" * (index % 3) * 50)
                journal.commit()

        def assert_counter(j):
            assert j.blocks_in_use == sum(len(b) for b in j._record_blocks)
            assert j.blocks_in_use <= 10

        append_some(40, 0)  # wraps the extent: oldest records reclaimed
        assert "/f0" not in [r.target for r in journal.records()]
        assert_counter(journal)
        journal.checkpoint()
        assert journal.blocks_in_use == 1  # the checkpoint marker
        assert_counter(journal)
        append_some(7, 40)
        assert_counter(journal)
        before = journal.blocks_in_use
        journal.recover()
        assert journal.blocks_in_use == before
        assert_counter(journal)
        remounted = Journal.remount(device, journal.extent)
        assert remounted.blocks_in_use == before
        assert_counter(remounted)
        append_some(20, 47)
        assert_counter(remounted)

    def test_oversized_record_rejected(self):
        device = BlockDevice(block_count=64, block_size=16)
        # 5 slots: two superblock copies + 3 record slots, just enough
        # for the BEGIN record on 16-byte blocks.
        journal = Journal(device, reserved_blocks=5)
        journal.begin()
        with pytest.raises(errors.JournalError):
            journal.log_write("/big", b"y" * 200)

    def test_minimum_reserved_blocks(self):
        with pytest.raises(errors.JournalError):
            Journal(BlockDevice(), reserved_blocks=3)


class TestRecordEncoding:
    def test_roundtrip(self):
        record = JournalRecord(
            sequence=7, txn_id=3, record_type=TXN_WRITE,
            target="/x", payload=b"\x00\x01binary\n\xff",
        )
        decoded = JournalRecord.from_bytes(record.to_bytes())
        assert decoded == record

    def test_corrupt_header_detected(self):
        with pytest.raises(errors.JournalError):
            JournalRecord.from_bytes(b"not-json\npayload")

    def test_length_mismatch_detected(self):
        record = JournalRecord(0, 1, TXN_WRITE, "/x", b"abc")
        raw = record.to_bytes()[:-1]  # truncate payload
        with pytest.raises(errors.JournalError):
            JournalRecord.from_bytes(raw)

    def test_unknown_type_detected(self):
        raw = b'{"seq":0,"txn":1,"type":"bogus","target":"","len":0}\n'
        with pytest.raises(errors.JournalError):
            JournalRecord.from_bytes(raw)
