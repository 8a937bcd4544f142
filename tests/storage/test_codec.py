"""Tests for the binary-v2 record codec, DBFS's one table encoding.

Covers the wire format in isolation (round-trips, partial decode,
corruption handling), the format descriptor DBFS writes and checks
(``evolve_type`` field-order growth, rejection of descriptors and rows
in any other encoding), JSON escrow blobs beside v2 rows, and crash
recovery over v2-encoded volumes.
"""

import json

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.core.datatypes import FieldDef, PDType
from repro.core.membrane import membrane_for_type
from repro.core.views import View
from repro.storage.codec import (
    ENCODING_V2,
    RecordCodec,
    codec_for_format,
    decode_record_v1,
    encode_record_v1,
    is_v2_payload,
)
from repro.storage.crashsim import CrashSim
from repro.storage.dbfs import DatabaseFS
from repro.storage.query import DataQuery, DeleteRequest, StoreRequest

DED = AccessCredential(holder="codec-ded", is_ded=True)

FIELDS = ["amount", "blob", "city", "name", "year"]


@pytest.fixture
def codec():
    return RecordCodec(FIELDS)


SAMPLES = [
    {"name": "Ada", "year": 1815},
    {"name": "véronique-Ω-💡", "city": "Saint-Étienne"},
    {"blob": b"\x00\xffraw\xb2bytes", "year": 0},
    {"amount": 3.25, "year": -44, "name": ""},
    {"name": None, "year": True},
    {"year": (1 << 70), "amount": -2.5},          # out-of-range int -> JSON
    {"blob": b"", "city": "x" * 5000},
    {"name": {"nested": [1, "two", None]}, "blob": b"\x01"},
    {"name": [{"deep": b"nested-bytes"}]},         # bytes inside a container
    {},
]


class TestV2RoundTrip:
    @pytest.mark.parametrize("record", SAMPLES)
    def test_round_trip(self, codec, record):
        raw = codec.encode(dict(record))
        assert is_v2_payload(raw)
        assert codec.decode(raw) == record

    def test_types_survive_exactly(self, codec):
        raw = codec.encode(
            {"year": 1, "amount": 1.0, "name": "1", "blob": b"1"}
        )
        decoded = codec.decode(raw)
        assert type(decoded["year"]) is int
        assert type(decoded["amount"]) is float
        assert type(decoded["name"]) is str
        assert type(decoded["blob"]) is bytes

    def test_bool_not_collapsed_to_int(self, codec):
        decoded = codec.decode(codec.encode({"year": True, "amount": False}))
        assert decoded["year"] is True
        assert decoded["amount"] is False

    def test_bytes_stored_raw_not_base64(self, codec):
        payload = b"\xde\xad\xbe\xef" * 8
        raw = codec.encode({"blob": payload})
        assert payload in raw

    def test_unknown_field_rejected(self, codec):
        with pytest.raises(errors.DBFSError):
            codec.encode({"ghost": 1})

    def test_duplicate_field_order_rejected(self):
        with pytest.raises(errors.DBFSError):
            RecordCodec(["a", "b", "a"])


class TestPartialDecode:
    def test_decodes_only_wanted_fields(self, codec):
        raw = codec.encode({"name": "Ada", "year": 1815, "city": "London"})
        assert codec.decode_fields(raw, ["year"]) == {"year": 1815}
        assert codec.decode_fields(raw, ["city", "name"]) == {
            "city": "London", "name": "Ada",
        }

    def test_absent_fields_skipped(self, codec):
        raw = codec.encode({"name": "Ada"})
        assert codec.decode_fields(raw, ["year", "name"]) == {"name": "Ada"}

    def test_unknown_fields_ignored(self, codec):
        raw = codec.encode({"name": "Ada"})
        assert codec.decode_fields(raw, ["ghost"]) == {}

    def test_json_row_rejected(self, codec):
        raw = encode_record_v1({"name": "Ada", "year": 1815})
        with pytest.raises(errors.DBFSError, match="magic"):
            codec.decode_fields(raw, ["year"])
        with pytest.raises(errors.DBFSError, match="magic"):
            codec.decode(raw)


class TestSchemaEvolutionRows:
    def test_short_row_decodes_against_longer_order(self):
        old = RecordCodec(["name", "year"])
        raw = old.encode({"name": "Ada", "year": 1815})
        new = RecordCodec(["name", "year", "phone"])
        assert new.decode(raw) == {"name": "Ada", "year": 1815}
        assert new.decode_fields(raw, ["phone", "year"]) == {"year": 1815}

    def test_row_with_more_slots_than_descriptor_rejected(self):
        wide = RecordCodec(["a", "b", "c"])
        raw = wide.encode({"a": 1})
        narrow = RecordCodec(["a", "b"])
        with pytest.raises(errors.DBFSError):
            narrow.decode(raw)


class TestCorruption:
    def test_truncated_header(self, codec):
        raw = codec.encode({"name": "Ada"})
        with pytest.raises(errors.DBFSError):
            codec.decode(raw[:3])

    def test_truncated_offset_table(self, codec):
        raw = codec.encode({"name": "Ada"})
        with pytest.raises(errors.DBFSError):
            codec.decode(raw[:6])

    def test_truncated_value(self, codec):
        raw = codec.encode({"name": "Ada", "year": 1815})
        with pytest.raises(errors.DBFSError):
            codec.decode(raw[:-5])

    def test_unknown_tag(self, codec):
        raw = bytearray(codec.encode({"name": "Ada"}))
        # The first value byte is the tag of the only present field.
        raw[4 + 4 * len(FIELDS)] = 0x7F
        with pytest.raises(errors.DBFSError):
            codec.decode(bytes(raw))


class TestEncodingDetection:
    def test_json_rows_never_look_like_v2(self):
        raw = encode_record_v1({"any": "row"})
        assert raw[0] == ord("{")
        assert not is_v2_payload(raw)

    def test_codec_for_format(self):
        compiled = codec_for_format(
            {"encoding": ENCODING_V2, "field_order": ["a", "b"]}
        )
        assert compiled.field_order == ["a", "b"]
        with pytest.raises(errors.DBFSError):
            codec_for_format({"encoding": ENCODING_V2})
        with pytest.raises(errors.DBFSError, match="'user'"):
            codec_for_format(JSON_DESCRIPTOR)

    def test_v1_round_trip_preserves_bytes(self):
        record = {"blob": b"\x00\x01", "name": "Ada"}
        assert decode_record_v1(encode_record_v1(dict(record))) == record


# ---------------------------------------------------------------------------
# DBFS format descriptors
# ---------------------------------------------------------------------------

#: A descriptor naming the JSON row encoding, as older volumes wrote it.
JSON_DESCRIPTOR = {
    "type": "user",
    "encoding": "json+base64-bytes",
    "public_fields": ["name", "year"],
    "sensitive_fields": ["ssn"],
    "membrane_encoding": "json",
}


def user_type():
    return PDType(
        name="user",
        fields=(
            FieldDef("name", "string"),
            FieldDef("ssn", "string", sensitive=True),
            FieldDef("year", "int"),
        ),
        views={"v_ano": View("v_ano", frozenset({"year"}))},
        default_consent={"stats": "v_ano"},
        collection={"web_form": "form.html"},
        ttl_seconds=1000.0,
    )


def evolved_user_type():
    return PDType(
        name="user",
        fields=(
            FieldDef("name", "string"),
            FieldDef("ssn", "string", sensitive=True),
            FieldDef("year", "int"),
            FieldDef("phone", "string", required=False),
        ),
        views={"v_ano": View("v_ano", frozenset({"year"}))},
        default_consent={"stats": "v_ano"},
        collection={"web_form": "form.html"},
        ttl_seconds=1000.0,
    )


def make_fs(authority=None):
    authority = authority or Authority(bits=512, seed=31)
    fs = DatabaseFS(operator_key=authority.issue_operator_key("codec-op"))
    fs.create_type(user_type(), DED)
    return fs


def store_user(fs, subject, name="Ada", year=1815, pd_type=None):
    membrane = membrane_for_type(pd_type or user_type(), subject,
                                 created_at=0.0)
    return fs.store(
        StoreRequest(
            pd_type="user",
            record={"name": name, "ssn": f"ssn-{subject}", "year": year},
            membrane_json=membrane.to_json(),
        ),
        DED,
    )


def fetch(fs, ref, fields=("name", "ssn", "year", "phone")):
    records = fs.fetch_records(
        DataQuery(uids=(ref.uid,), fields={ref.uid: frozenset(fields)}), DED
    )
    return records[ref.uid]


def raw_public_payload(fs, ref):
    return fs.inodes.read_payload(fs._record_index[ref.uid])


def forge_descriptor(fs, spec):
    """Overwrite the user type's format descriptor inode with *spec*."""
    format_no = fs._formats_root.children["user"]
    fs.inodes.rewrite_scrubbed(format_no, json.dumps(spec).encode())


def store_and_escrow(fs):
    """One live v2 row (alice) and one escrow-erased record (bob)."""
    live = store_user(fs, "alice", year=1900)
    escrowed = store_user(fs, "bob", year=1950)
    fs.delete(DeleteRequest(escrowed.uid, mode="escrow"), DED)
    return live, escrowed


def assert_escrow_is_json(fs, authority, ref):
    blob = fs.escrow_blob(ref.uid)
    assert not is_v2_payload(blob.ciphertext)
    recovered = decode_record_v1(authority.recover(blob))
    assert recovered["ssn"] == "ssn-bob"


class TestDBFSNegotiation:
    def test_v2_descriptor_declares_encoding_and_order(self):
        fs = make_fs()
        spec = fs._format_of("user")
        assert spec["encoding"] == ENCODING_V2
        assert spec["field_order"] == ["name", "ssn", "year"]

    def test_invalid_codec_rejected(self):
        # A volume whose descriptor names another row encoding is
        # refused at mount, on both remount paths, naming the type.
        authority = Authority(bits=512, seed=33)
        fs = make_fs(authority)
        store_user(fs, "alice")
        forge_descriptor(fs, JSON_DESCRIPTOR)
        with pytest.raises(errors.DBFSError, match="'user'.*json"):
            DatabaseFS.remount_from_device(
                fs.device, fs.inodes,
                operator_key=authority.issue_operator_key("codec-op"),
            )
        with pytest.raises(errors.DBFSError, match="'user'.*json"):
            fs.remount()

    def test_round_trip(self):
        fs = make_fs()
        ref = store_user(fs, "alice", name="Ada-Ω", year=1815)
        assert fetch(fs, ref) == {
            "name": "Ada-Ω", "ssn": "ssn-alice", "year": 1815,
        }

    def test_v2_rows_are_binary_on_disk(self):
        fs = make_fs()
        ref = store_user(fs, "alice")
        assert is_v2_payload(raw_public_payload(fs, ref))

    def test_json_row_is_rejected_not_decoded(self):
        fs = make_fs()
        ref = store_user(fs, "alice")
        fs.inodes.rewrite_scrubbed(
            fs._record_index[ref.uid],
            encode_record_v1({"name": "Ada", "year": 1815}),
        )
        fs._record_cache.clear()
        with pytest.raises(errors.DBFSError, match="magic"):
            fetch(fs, ref)  # projection: partial decode
        with pytest.raises(errors.DBFSError, match="magic"):
            fs.fetch_records(DataQuery(uids=(ref.uid,)), DED)  # full decode
        with pytest.raises(errors.DBFSError, match="magic"):
            fs.export_subject("alice", DED)

    def test_escrow_blob_is_always_v1_json(self):
        # The authority must decode escrow without operator descriptors.
        fs = make_fs()
        ref = store_user(fs, "alice")
        fs.delete(DeleteRequest(ref.uid, mode="escrow"), DED)
        blob = fs.escrow_blob(ref.uid)
        assert blob is not None
        assert not is_v2_payload(blob.ciphertext)

    def test_remount_preserves_both_codecs(self):
        # v2 table rows and JSON escrow blobs side by side.
        authority = Authority(bits=512, seed=31)
        fs = make_fs(authority)
        live, escrowed = store_and_escrow(fs)
        fs.remount()
        assert fetch(fs, live)["year"] == 1900
        assert_escrow_is_json(fs, authority, escrowed)

    def test_remount_from_device_parses_both(self):
        authority = Authority(bits=512, seed=32)
        fs = make_fs(authority)
        live, escrowed = store_and_escrow(fs)
        recovered = DatabaseFS.remount_from_device(
            fs.device, fs.inodes,
            operator_key=authority.issue_operator_key("codec-op"),
        )
        assert fetch(recovered, live)["year"] == 1900
        assert_escrow_is_json(recovered, authority, escrowed)


class TestMixedEncodingTables:
    """Rows written under different field orders share one table."""

    def test_v2_evolution_appends_order_at_tail(self):
        # Ordinals of already-written v2 rows must never move.
        fs = make_fs()
        ref = store_user(fs, "alice", year=1815)
        fs.evolve_type(evolved_user_type(), DED)
        spec = fs._format_of("user")
        assert spec["field_order"] == ["name", "ssn", "year", "phone"]
        assert fetch(fs, ref)["year"] == 1815

    def test_mixed_table_survives_remount(self):
        # Pre-evolution rows carry a shorter offset table than rows
        # written after it; both decode after a remount.
        fs = make_fs()
        old_ref = store_user(fs, "alice", year=1815)
        fs.evolve_type(evolved_user_type(), DED)
        new_ref = store_user(fs, "bob", year=1990,
                             pd_type=evolved_user_type())
        fs.remount()
        assert fetch(fs, old_ref)["year"] == 1815
        assert fetch(fs, new_ref)["year"] == 1990

    def test_sensitive_fields_stay_separate_under_v2(self):
        fs = make_fs()
        ref = store_user(fs, "alice")
        raw = raw_public_payload(fs, ref)
        assert b"ssn-alice" not in raw


# ---------------------------------------------------------------------------
# Crash recovery over v2 volumes
# ---------------------------------------------------------------------------


class TestCrashRecoveryByCodec:
    """Power cut mid-store must not corrupt v2 rows.

    The full every-write-index sweeps live in test_crash_consistency.py;
    this strided sweep is the quick check a codec regression trips.
    """

    def test_strided_sweep(self):
        report = CrashSim(shard_count=1).sweep(stride=7)
        assert report.passed, report.failing_trials()

    def test_v2_sharded_spot_checks(self):
        sim = CrashSim(shard_count=2)
        format_writes, total = sim.measure()
        midpoint = format_writes + (total - format_writes) // 2
        for cut_after in (format_writes, midpoint, total - 1):
            trial = sim.run_trial(cut_after)
            assert trial.ok, trial.failures
