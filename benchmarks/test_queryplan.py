"""QUERYPLAN — binary record codec v2 + selectivity-driven planning.

Four measurements, emitted to ``BENCH_queryplan.json`` (bench_util
schema v2):

* **codec round-trip** — µs/row to encode/decode one row under the v1
  JSON codec vs the v2 binary codec, plus the v2 partial-decode cost
  of touching a single field (informational; no gate);
* **single predicate** — one indexed predicate, planned v2 store vs a
  naive v1 store (informational);
* **multi-predicate mix** — a conjunctive query mix through
  ``select_uids_where``: the planner + v2 partial decode against a
  v1 store with no indexes (full-scan, full-JSON-decode per row).
  Gate: >= 3x;
* **GDPRBench bulk decode** — the bulk ``fetch_records`` path over a
  GDPRBench-loaded population with projected (non-sensitive) fields,
  record cache off, v1 vs v2.  Gates: v2 at least 25 % faster, and
  exactly one partial decode (no full decode) per record per fetch.

DBFS tables are always binary-v2.  The "v1" baseline is a frozen
stand-in: :class:`JsonRowCodec`, installed into the naive store's codec
cache before any row is stored, keeps each row as one JSON document
that every read must parse whole.  On the scan path it, like v2, skips
the sensitive inode when no sensitive field is wanted.  The bulk-decode
baseline fetches whole records and projects them afterwards, as v1
tables (which had no partial decode) did; JSON rows read through the
projecting path are timed beside it as an ungated ``layout_gain``.

Scale knobs (for the CI smoke job): ``QUERYPLAN_BENCH_SUBJECTS``,
``QUERYPLAN_BENCH_ROUNDS``, ``QUERYPLAN_BENCH_CODEC_ROWS``,
``QUERYPLAN_BENCH_BULK_RECORDS``.
"""

import itertools
import os
import time

from bench_util import latency_block, merge_metric
from conftest import print_series

from repro import RgpdOS
from repro.baseline.gdprbench import GDPRBenchRunner, RgpdOSAdapter
from repro.storage import dbfs as dbfs_module
from repro.storage.cache import CacheConfig
from repro.storage.codec import (
    RecordCodec,
    decode_record_v1,
    encode_record_v1,
)
from repro.storage.query import DataQuery, Predicate
from repro.workloads.generator import (
    STANDARD_DECLARATIONS,
    PopulationGenerator,
)

SUBJECTS = int(os.environ.get("QUERYPLAN_BENCH_SUBJECTS", "400"))
ROUNDS = int(os.environ.get("QUERYPLAN_BENCH_ROUNDS", "6"))
CODEC_ROWS = int(os.environ.get("QUERYPLAN_BENCH_CODEC_ROWS", "2000"))

TARGET_MIX_SPEEDUP = 3.0
TARGET_DECODE_GAIN = 1.25

#: The conjunctive query mix (fields of the standard ``user`` type).
QUERY_MIX = [
    (Predicate("year_of_birthdate", "ge", 1990),
     Predicate("city", "eq", "Lyon")),
    (Predicate("city", "eq", "Paris"),
     Predicate("year_of_birthdate", "lt", 1985)),
    (Predicate("year_of_birthdate", "ge", 1970),
     Predicate("year_of_birthdate", "le", 1975),
     Predicate("city", "ne", "Nice")),
    (Predicate("city", "eq", "Rennes"),
     Predicate("name", "contains", "a")),
]

#: Record cache off so every query actually decodes rows; all other
#: fast-path caches stay at production defaults on BOTH sides.
BENCH_CACHES = CacheConfig(record_cache_records=0)


class JsonRowCodec:
    """The frozen v1 baseline: one JSON document per row.

    A test fake with :class:`RecordCodec`'s interface, not a DBFS
    option.  A projection still parses the whole row.
    """

    def encode(self, record):
        return encode_record_v1(record)

    def decode(self, raw):
        return decode_record_v1(raw)

    def decode_fields(self, raw, fields):
        wanted = set(fields)
        return {k: v for k, v in decode_record_v1(raw).items() if k in wanted}


def use_json_rows(system):
    """Store ``user`` rows of *system* as JSON (before any is stored)."""
    system.dbfs._codec_cache["user"] = JsonRowCodec()


def build_system(authority, json_rows, indexed):
    # Fresh uid counter per system so the v1/v2 builds assign the same
    # uids and their query results are directly comparable.
    dbfs_module._uid_counter = itertools.count(5_000_000)
    system = RgpdOS(
        operator_name="queryplan-bench",
        authority=authority,
        with_machine=False,
        cache_config=BENCH_CACHES,
    )
    system.install(STANDARD_DECLARATIONS)
    if json_rows:
        use_json_rows(system)
    generator = PopulationGenerator(seed=404)
    with system.dbfs.batch():
        for subject in generator.subjects(SUBJECTS):
            system.collect(
                "user", subject.user_record(),
                subject_id=subject.subject_id,
                method="web_form", consents={"analytics": "v_ano"},
            )
    credential = system.ps.builtins.credential
    if indexed:
        system.dbfs.create_index("user", "year_of_birthdate", credential)
        system.dbfs.create_index("user", "city", credential)
    return system, credential


def time_repeat(fn, rounds=ROUNDS):
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return time.perf_counter() - start


def sample_rows(count):
    generator = PopulationGenerator(seed=505)
    return [subject.user_record() for subject in generator.subjects(count)]


def test_codec_round_trip(benchmark):
    """µs/row: v1 JSON vs v2 binary encode/decode + v2 partial decode."""
    rows = sample_rows(min(CODEC_ROWS, 500))
    repeats = max(1, CODEC_ROWS // len(rows))
    codec = RecordCodec(sorted(rows[0]))
    v1_blobs = [encode_record_v1(dict(row)) for row in rows]
    v2_blobs = [codec.encode(dict(row)) for row in rows]
    for v1_blob, v2_blob, row in zip(v1_blobs, v2_blobs, rows):
        assert decode_record_v1(v1_blob) == codec.decode(v2_blob) == row

    total = len(rows) * repeats

    def per_row_us(fn):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / total * 1e6

    v1_encode = per_row_us(
        lambda: [encode_record_v1(dict(row)) for row in rows])
    v2_encode = per_row_us(lambda: [codec.encode(dict(row)) for row in rows])
    v1_decode = per_row_us(lambda: [decode_record_v1(b) for b in v1_blobs])
    v2_decode = per_row_us(lambda: [codec.decode(b) for b in v2_blobs])
    v2_partial = per_row_us(
        lambda: [codec.decode_fields(b, ("city",)) for b in v2_blobs])

    rows_out = [
        ("codec", "encode_us", "decode_us", "partial_us"),
        ("v1-json", round(v1_encode, 3), round(v1_decode, 3), "-"),
        ("v2-binary", round(v2_encode, 3), round(v2_decode, 3),
         round(v2_partial, 3)),
    ]
    print_series(f"QUERYPLAN codec round-trip ({total} rows)", rows_out)
    benchmark.extra_info["v2_partial_vs_v1_decode"] = v1_decode / v2_partial
    merge_metric(
        "queryplan", "codec_round_trip",
        config={"rows": total},
        samples={
            "v1_encode_us_per_row": v1_encode,
            "v1_decode_us_per_row": v1_decode,
            "v2_encode_us_per_row": v2_encode,
            "v2_decode_us_per_row": v2_decode,
            "v2_partial_decode_us_per_row": v2_partial,
        },
        speedup=v1_decode / v2_partial,
        baseline="v1_decode_us_per_row",
    )
    benchmark(lambda: [codec.decode(b) for b in v2_blobs])


def test_single_predicate(benchmark, authority):
    """One indexed predicate: planned v2 store vs naive v1 store."""
    naive, naive_cred = build_system(authority, json_rows=True, indexed=False)
    planned, planned_cred = build_system(
        authority, json_rows=False, indexed=True
    )
    predicates = (Predicate("city", "eq", "Lyon"),)

    def run(system, credential):
        return system.dbfs.select_uids_where("user", predicates, credential)

    assert run(naive, naive_cred) == run(planned, planned_cred)
    naive_seconds = time_repeat(lambda: run(naive, naive_cred))
    planned_seconds = time_repeat(lambda: run(planned, planned_cred))
    speedup = naive_seconds / planned_seconds

    print_series("QUERYPLAN single predicate", [
        ("config", "seconds"),
        ("naive_v1_scan", round(naive_seconds, 5)),
        ("planned_v2_index", round(planned_seconds, 5)),
        ("speedup", round(speedup, 2)),
    ])
    benchmark.extra_info["speedup"] = speedup
    merge_metric(
        "queryplan", "single_predicate",
        config={"subjects": SUBJECTS, "rounds": ROUNDS},
        samples={
            "naive_v1_seconds": naive_seconds,
            "planned_v2_seconds": planned_seconds,
        },
        speedup=speedup, baseline="naive_v1_seconds",
    )
    benchmark(lambda: run(planned, planned_cred))


def test_multi_predicate_mix(benchmark, authority):
    """The conjunctive mix: planner + v2 partial decode, >= 3x gate."""
    naive, naive_cred = build_system(authority, json_rows=True, indexed=False)
    planned, planned_cred = build_system(
        authority, json_rows=False, indexed=True
    )

    def run_mix(system, credential):
        return [
            system.dbfs.select_uids_where("user", predicates, credential)
            for predicates in QUERY_MIX
        ]

    assert run_mix(naive, naive_cred) == run_mix(planned, planned_cred)
    naive_seconds = time_repeat(lambda: run_mix(naive, naive_cred))
    planned_seconds = time_repeat(lambda: run_mix(planned, planned_cred))
    speedup = naive_seconds / planned_seconds

    plans = [
        planned.dbfs.explain("user", predicates, planned_cred).describe()
        for predicates in QUERY_MIX
    ]
    print_series(
        f"QUERYPLAN multi-predicate mix ({SUBJECTS} subjects, "
        f"{len(QUERY_MIX)} queries x {ROUNDS} rounds)",
        [
            ("config", "seconds", "per_mix_ms"),
            ("naive_v1_scan", round(naive_seconds, 5),
             round(naive_seconds / ROUNDS * 1e3, 2)),
            ("planned_v2", round(planned_seconds, 5),
             round(planned_seconds / ROUNDS * 1e3, 2)),
            ("speedup", round(speedup, 2), ""),
        ],
    )
    benchmark.extra_info["speedup"] = speedup
    stats = planned.dbfs.stats
    merge_metric(
        "queryplan", "multi_predicate_mix",
        config={
            "subjects": SUBJECTS, "rounds": ROUNDS,
            "queries": len(QUERY_MIX),
        },
        samples={
            "naive_v1_seconds": naive_seconds,
            "planned_v2_seconds": planned_seconds,
        },
        speedup=speedup, baseline="naive_v1_seconds",
        latency=latency_block(
            planned.telemetry.registry, ["dbfs.select_where", "dbfs.plan"]
        ),
        extra={
            "plans": plans,
            "decode_stats": {
                "partial_decodes": stats.partial_decodes,
                "full_decodes": stats.full_decodes,
                "plans": stats.plans,
            },
        },
    )
    assert speedup >= TARGET_MIX_SPEEDUP, (
        f"multi-predicate speedup {speedup:.2f}x below the "
        f"{TARGET_MIX_SPEEDUP}x target"
    )
    benchmark(lambda: run_mix(planned, planned_cred))


def test_gdprbench_bulk_decode(benchmark):
    """GDPRBench bulk fetch: v2 partial decode >= 25 % faster than v1."""
    record_count = int(os.environ.get("QUERYPLAN_BENCH_BULK_RECORDS", "5000"))
    projection = frozenset({"name", "email", "city", "year_of_birthdate"})

    def load(json_rows):
        adapter = RgpdOSAdapter(with_machine=False, cache_config=BENCH_CACHES)
        if json_rows:
            use_json_rows(adapter.system)
        runner = GDPRBenchRunner(adapter, seed=7)
        runner.load(record_count)
        return adapter

    def bulk_fetch(adapter, whole_records=False):
        dbfs = adapter.system.dbfs
        credential = adapter.system.ps.builtins.credential
        uids = tuple(sorted(adapter._refs))
        if not whole_records:
            query = DataQuery(
                uids=uids, fields={uid: projection for uid in uids}
            )
            return dbfs.fetch_records(query, credential)
        # A v1 table had no partial decode: each fetch decoded the
        # whole record, sensitive half included, then projected it.
        full = dbfs.fetch_records(DataQuery(uids=uids), credential)
        return {
            uid: {k: v for k, v in record.items() if k in projection}
            for uid, record in full.items()
        }

    v1_adapter = load(json_rows=True)
    v2_adapter = load(json_rows=False)
    stats = v2_adapter.system.dbfs.stats
    partial_before, full_before = stats.partial_decodes, stats.full_decodes
    v1_records = bulk_fetch(v1_adapter, whole_records=True)
    v2_records = bulk_fetch(v2_adapter)
    # Work counters beside the timing: one partial decode per record
    # per fetch, and never a full one.
    assert stats.partial_decodes - partial_before == record_count
    assert stats.full_decodes == full_before
    assert len(v1_records) == len(v2_records) == record_count
    assert v1_records == bulk_fetch(v1_adapter)
    assert sorted(r["city"] for r in v1_records.values()) == \
        sorted(r["city"] for r in v2_records.values())

    v1_seconds = time_repeat(
        lambda: bulk_fetch(v1_adapter, whole_records=True)
    )
    v2_seconds = time_repeat(lambda: bulk_fetch(v2_adapter))
    gain = v1_seconds / v2_seconds
    # Informational: JSON rows through the v2 read path, which skips
    # the sensitive half too, so only the row layout differs.
    json_partial_seconds = time_repeat(lambda: bulk_fetch(v1_adapter))
    layout_gain = json_partial_seconds / v2_seconds

    print_series(
        f"QUERYPLAN GDPRBench bulk decode ({record_count} records)",
        [
            ("codec", "seconds", "per_record_us"),
            ("v1-json", round(v1_seconds, 5),
             round(v1_seconds / (ROUNDS * record_count) * 1e6, 1)),
            ("v2-binary", round(v2_seconds, 5),
             round(v2_seconds / (ROUNDS * record_count) * 1e6, 1)),
            ("gain", round(gain, 2), ""),
            ("json-rows-partial-path", round(json_partial_seconds, 5),
             round(json_partial_seconds / (ROUNDS * record_count) * 1e6, 1)),
            ("layout_gain", round(layout_gain, 2), ""),
        ],
    )
    benchmark.extra_info["gain"] = gain
    merge_metric(
        "queryplan", "gdprbench_bulk_decode",
        config={"records": record_count, "rounds": ROUNDS,
                "projection": sorted(projection)},
        samples={
            "v1_seconds": v1_seconds,
            "v2_seconds": v2_seconds,
            "json_rows_partial_path_seconds": json_partial_seconds,
        },
        speedup=gain, baseline="v1_seconds",
        extra={
            "layout_gain": layout_gain,
            "decode_stats": {
                "partial_decodes": stats.partial_decodes,
                "full_decodes": stats.full_decodes,
            },
        },
    )
    assert gain >= TARGET_DECODE_GAIN, (
        f"bulk-decode gain {gain:.2f}x below the "
        f"{TARGET_DECODE_GAIN}x (25 %) target"
    )
    benchmark(lambda: bulk_fetch(v2_adapter))
