"""FASTPATH — the multi-layer read/write fast path, quantified.

Three microbenchmarks compare the default cache configuration against
``CacheConfig.disabled()`` (the seed behaviour):

* **repeated scan** — the same predicate scan over one table, where
  the listing/membrane/record caches remove the per-call JSON decode;
* **repeated purpose invocation** — the same F_pd^r processing over
  the same population, where the decision cache additionally removes
  per-membrane consent re-evaluation;
* **bulk load** — journal group commit vs one commit per store.

The acceptance target is >=3x on the two read-side microbenchmarks.
Results (plus every cache's hit rates) are emitted to
``BENCH_fastpath.json`` at the repo root in the shared
``bench_util`` schema so the trajectory is machine-readable.
"""

import itertools
import time

from bench_util import latency_block, merge_metric
from conftest import bench_decade, print_series

from repro import RgpdOS
from repro.storage import dbfs as dbfs_module
from repro.core.membrane import membrane_for_type
from repro.storage.cache import CacheConfig
from repro.storage.query import Predicate, StoreRequest
from repro.workloads.generator import (
    STANDARD_DECLARATIONS,
    PopulationGenerator,
)

SUBJECTS = 100
ROUNDS = 10
TARGET_SPEEDUP = 3.0


def build_system(authority, cache_config):
    # Fresh uid counter per system so cached/uncached builds assign the
    # same uids and their results are directly comparable.
    dbfs_module._uid_counter = itertools.count(1_000_000)
    system = RgpdOS(
        operator_name="fastpath-bench",
        authority=authority,
        with_machine=False,
        cache_config=cache_config,
    )
    system.install(STANDARD_DECLARATIONS)
    system.register(bench_decade)
    generator = PopulationGenerator(seed=303)
    for subject in generator.subjects(SUBJECTS):
        system.collect(
            "user", subject.user_record(),
            subject_id=subject.subject_id,
            method="web_form", consents={"analytics": "v_ano"},
        )
    return system


def time_repeat(fn, rounds=ROUNDS):
    """Wall seconds for ``rounds`` calls, after one warm-up call."""
    fn()  # warm-up: populates the caches in the cached configuration
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return time.perf_counter() - start


def work_counters(system):
    """(partial decodes, full decodes, block reads) made so far."""
    dbfs = system.dbfs
    return (
        dbfs.stats.partial_decodes,
        dbfs.stats.full_decodes,
        dbfs.device.stats.reads,
    )


def test_fastpath_repeated_scan(benchmark, authority):
    """Repeated predicate scan: >=3x from the record/listing caches."""
    predicate = Predicate("year_of_birthdate", "ge", 0)

    cached = build_system(authority, CacheConfig())
    uncached = build_system(authority, CacheConfig.disabled())
    credential = cached.ps.builtins.credential

    def scan(system):
        return system.dbfs.select_uids("user", predicate, credential)

    assert scan(cached) == scan(uncached)  # identical results first

    uncached_before = work_counters(uncached)
    uncached_seconds = time_repeat(lambda: scan(uncached))
    uncached_after = work_counters(uncached)
    cached_before = work_counters(cached)
    cached_seconds = time_repeat(lambda: scan(cached))
    cached_after = work_counters(cached)
    speedup = uncached_seconds / cached_seconds
    scans = ROUNDS + 1  # time_repeat's warm-up call plus the timed rounds

    rows = [
        ("config", "seconds", "per_scan_us"),
        ("caches_off", round(uncached_seconds, 5),
         round(uncached_seconds / ROUNDS * 1e6, 1)),
        ("caches_on", round(cached_seconds, 5),
         round(cached_seconds / ROUNDS * 1e6, 1)),
        ("speedup", round(speedup, 2), ""),
    ]
    print_series("FASTPATH repeated scan (100 subjects, 10 rounds)", rows)
    benchmark.extra_info["speedup"] = speedup
    merge_metric(
        "fastpath", "repeated_scan",
        config={"subjects": SUBJECTS, "rounds": ROUNDS},
        samples={
            "caches_off_seconds": uncached_seconds,
            "caches_on_seconds": cached_seconds,
        },
        speedup=speedup, baseline="caches_off_seconds",
        latency=latency_block(
            cached.telemetry.registry, ["dbfs.select", "block.read"]
        ),
        extra={
            "cache_stats": cached.cache_stats(),
            "work_per_scan": {
                side: {
                    "partial_decodes": (after[0] - before[0]) / scans,
                    "full_decodes": (after[1] - before[1]) / scans,
                    "block_reads": (after[2] - before[2]) / scans,
                }
                for side, before, after in (
                    ("caches_off", uncached_before, uncached_after),
                    ("caches_on", cached_before, cached_after),
                )
            },
        },
    )
    # Work counters beside the timing: a warm cached scan decodes no
    # row and reads no block, while every uncached scan partially
    # decodes each subject's row once.
    assert cached_after == cached_before, (
        f"cached repeats did work: (partial, full, block reads) went "
        f"{cached_before} -> {cached_after}"
    )
    assert uncached_after[0] - uncached_before[0] == SUBJECTS * scans
    assert uncached_after[1] == uncached_before[1]
    assert speedup >= TARGET_SPEEDUP, (
        f"repeated-scan speedup {speedup:.2f}x below the "
        f"{TARGET_SPEEDUP}x target"
    )
    benchmark(lambda: scan(cached))


def test_fastpath_repeated_invocation(benchmark, authority):
    """Repeated purpose invocation: decision cache on top of the rest."""
    cached = build_system(authority, CacheConfig())
    uncached = build_system(authority, CacheConfig.disabled())

    def invoke(system):
        return system.invoke("bench_decade", target="user")

    first_cached, first_uncached = invoke(cached), invoke(uncached)
    assert first_cached.processed == first_uncached.processed == SUBJECTS

    uncached_seconds = time_repeat(lambda: invoke(uncached))
    cached_seconds = time_repeat(lambda: invoke(cached))
    speedup = uncached_seconds / cached_seconds

    decisions = cached.ps.decision_cache.as_dict()
    rows = [
        ("config", "seconds", "per_invoke_ms"),
        ("caches_off", round(uncached_seconds, 5),
         round(uncached_seconds / ROUNDS * 1e3, 2)),
        ("caches_on", round(cached_seconds, 5),
         round(cached_seconds / ROUNDS * 1e3, 2)),
        ("speedup", round(speedup, 2), ""),
        ("decision_hit_rate", decisions["hit_rate"], ""),
    ]
    print_series("FASTPATH repeated invocation (100 subjects, 10 rounds)", rows)
    benchmark.extra_info["speedup"] = speedup
    merge_metric(
        "fastpath", "repeated_invocation",
        config={"subjects": SUBJECTS, "rounds": ROUNDS},
        samples={
            "caches_off_seconds": uncached_seconds,
            "caches_on_seconds": cached_seconds,
        },
        speedup=speedup, baseline="caches_off_seconds",
        latency=latency_block(
            cached.telemetry.registry,
            ["ps.invoke", "ded.run", "dbfs.query_membranes", "dbfs.fetch_records"],
        ),
        extra={"decision_cache": decisions},
    )
    assert decisions["hits"] > 0
    assert speedup >= TARGET_SPEEDUP, (
        f"repeated-invocation speedup {speedup:.2f}x below the "
        f"{TARGET_SPEEDUP}x target"
    )
    benchmark(lambda: invoke(cached))


def test_fastpath_bulk_load_group_commit(benchmark, authority):
    """store_many: N+2 journal records and one flush instead of 3N/N."""
    system = build_system(authority, CacheConfig())
    dbfs = system.dbfs
    user_type = dbfs.get_type("user")
    credential = system.ps.builtins.credential
    generator = PopulationGenerator(seed=404)

    def requests(count, offset):
        out = []
        for index, subject in enumerate(generator.subjects(count)):
            membrane = membrane_for_type(
                user_type, f"bulk-{offset}-{index}", created_at=0.0
            )
            out.append(StoreRequest(
                pd_type="user",
                record=subject.user_record(),
                membrane_json=membrane.to_json(),
            ))
        return out

    batch = requests(50, "a")
    flushes_before = dbfs.journal.stats.flushes
    appends_before = dbfs.journal.stats.appends
    refs = dbfs.store_many(batch, credential)
    flushes = dbfs.journal.stats.flushes - flushes_before
    appends = dbfs.journal.stats.appends - appends_before

    assert len(refs) == 50
    assert flushes == 1           # one group flush for 50 stores
    assert appends == 50 + 2      # BEGIN + 50 op records + COMMIT

    rows = [
        ("metric", "grouped", "ungrouped"),
        ("journal_records", appends, 3 * 50),
        ("flushes", flushes, 50),
    ]
    print_series("FASTPATH bulk load (50 stores)", rows)
    merge_metric(
        "fastpath", "bulk_load",
        config={"stores": 50},
        samples={
            "grouped_records": appends,
            "grouped_flushes": flushes,
            "ungrouped_records": 3 * 50,
            "ungrouped_flushes": 50,
        },
        latency=latency_block(
            system.telemetry.registry,
            ["dbfs.store", "journal.batch", "journal.commit", "block.write"],
        ),
        extra={"journal_stats": dbfs.cache_stats()["journal"]},
    )
    benchmark.pedantic(
        lambda: dbfs.store_many(requests(10, "b"), credential),
        rounds=3, iterations=1,
    )
