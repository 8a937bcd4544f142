"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Self time and unattributed share
# ---------------------------------------------------------------------------

# root [0, 100) -> a [10, 40) -> c [15, 25)
#               -> b [50, 90) -> d [85, 95)  (runs past its parent)
TREE = [
    (1, 0, 1, spans.OP_SPAN, 0, 100),
    (2, 1, 1, "a", 10, 40),
    (3, 2, 1, "c", 15, 25),
    (4, 1, 1, "b", 50, 90),
    (5, 4, 1, "d", 85, 95),
]


def test_self_time_subtracts_children():
    table = spans.self_times(TREE)
    assert table[spans.OP_SPAN]["self_ns"] == 100 - 30 - 40
    assert table["a"]["self_ns"] == 30 - 10
    # Only the part of d inside b's interval is subtracted from b.
    assert table["b"]["self_ns"] == 40 - 5
    assert table["c"]["self_ns"] == 10
    assert table["d"]["self_ns"] == 10
    assert table["a"]["total_ns"] == 30
    assert sum(row["calls"] for row in table.values()) == 5


def test_overlapping_children_count_once():
    tree = [
        (1, 0, 1, "p", 0, 100),
        (2, 1, 1, "x", 10, 60),
        (3, 1, 1, "y", 40, 70),
    ]
    assert spans.self_times(tree)["p"]["self_ns"] == 100 - 60


def test_same_name_spans_accumulate():
    tree = [
        (1, 0, 1, spans.OP_SPAN, 0, 50),
        (2, 1, 1, "a", 0, 10),
        (3, 0, 2, spans.OP_SPAN, 100, 150),
        (4, 3, 2, "a", 100, 130),
    ]
    table = spans.self_times(tree)
    assert table["a"] == {"calls": 2, "total_ns": 40, "self_ns": 40}
    assert table[spans.OP_SPAN]["self_ns"] == 40 + 20


def test_unattributed_share():
    table = spans.self_times(TREE)
    assert spans.unattributed_share(table) == pytest.approx(30 / 100)
    assert spans.unattributed_share({}) == 0.0


def test_jsonl_round_trip(tmp_path):
    recorder = spans.SpanRecorder()
    recorder.spans.extend(TREE)
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(str(path))
    assert spans.read_jsonl(str(path)) == TREE
    first = json.loads(path.read_text().splitlines()[1])
    assert set(first) == {"id", "parent", "trace", "name", "start_ns", "end_ns"}


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    def scan(self, needle):
        return [needle]

    @property
    def size(self):
        return 7


def test_patches_record_nested_spans_and_undo():
    recorder = spans.SpanRecorder()
    patches = spans.Patches(recorder)
    patches.layer(Toy, "toy", skip=("scan",))
    patches.method(Toy, "scan", "toy.scan", count=lambda self, needle: ("hits", 3))
    patches.method(Toy, "size", "toy.size")
    toy = Toy()
    try:
        assert toy.outer(2) == 5  # outside an op: passes straight through
        assert recorder.spans == []
        with recorder.op():
            assert toy.outer(2) == 5
            assert toy.scan("x") == ["x"]
            assert toy.size == 7
        with recorder.op():
            toy.inner(1)
    finally:
        patches.undo()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[3], []).append(span)
    root_id = by_name[spans.OP_SPAN][0][0]
    (outer,) = by_name["toy.outer"]
    inner_first = by_name["toy.inner"][0]
    assert outer[1] == root_id
    assert inner_first[1] == outer[0]
    assert by_name["toy.inner"][1][2] == 2  # second op, second trace id
    assert recorder.counts["hits"] == 3
    assert len(by_name["toy.size"]) == 1
    assert Toy.outer is vars(Toy)["outer"] and not hasattr(Toy.outer, "__wrapped__")
    assert isinstance(vars(Toy)["size"], property)


def test_public_methods_skip_private_and_generators():
    class Sample:
        def visible(self):
            pass

        def _hidden(self):
            pass

        def rows(self):
            yield 1

    assert spans.public_methods(Sample) == ["visible"]


# ---------------------------------------------------------------------------
# Percentile rule and failure counting
# ---------------------------------------------------------------------------


def test_percentile_rule_needs_ten_beyond():
    assert measure.samples_beyond(1000, 0.99) == 10
    assert measure.samples_beyond(999, 0.99) == 9
    assert measure.samples_needed(0.99) == 1000
    assert measure.samples_needed(0.90) == 100
    assert measure.samples_needed(0.50) == 20
    values = list(range(1, 1001))
    assert measure.percentile(values, 0.99) == 990
    assert measure.percentile(values, 0.50) == 500
    with pytest.raises(ValueError):
        measure.percentile(values[:999], 0.99)
    with pytest.raises(ValueError):
        measure.percentile(list(range(19)), 0.50)


def test_tally_counts_each_op_once():
    tally = measure.Tally(attempted=10)
    tally.fail(3, "read mismatch")
    tally.fail(3, "export mismatch")
    tally.fail(7, "read mismatch")
    assert tally.failed == 2
    assert tally.fail_ratio == pytest.approx(0.2)
    assert tally.reasons == {"read mismatch": 2, "export mismatch": 1}
    assert measure.Tally().fail_ratio == 0.0


def _subject(subject_id="subj-1", year=1984):
    return workloads.Subject(
        subject_id=subject_id, first_name="Ada", last_name="Lovelace",
        email="ada@example.eu", year_of_birth=year, city="Lyon",
        national_id="123456789",
    )


def test_reference_model_counts_consent_mismatches():
    model = workloads.ReferenceModel()
    model.apply([(-1, "insert", "k", _subject(), {})], tally=None)
    tally = measure.Tally(attempted=4)
    analytics = workloads.PURPOSE_ANALYTICS
    model.apply([
        (0, "read", "k", analytics, {"decade": 1980}),  # denial expected
        (1, "consent", "k", analytics, True),
        (2, "read", "k", analytics, {"decade": 1980}),
        (3, "read", "k", analytics, None),  # data expected
    ], tally)
    assert tally.failed_ops == {0, 3}


def test_reference_model_checks_account_reads_and_exports():
    model = workloads.ReferenceModel()
    subject = _subject()
    model.apply([(-1, "insert", "k", subject, {})], tally=None)
    tally = measure.Tally(attempted=4)
    record = subject.user_record()
    good = {f: record[f] for f in ("name", "email", "city", "year_of_birthdate")}
    model.apply([
        (0, "read", "k", workloads.PURPOSE_ACCOUNT, good),
        (1, "update", "k", {"city": "Paris"}, True),
        (2, "read", "k", workloads.PURPOSE_ACCOUNT, good),  # stale city
        (3, "access", "k", [record]),  # stale record
    ], tally)
    assert tally.failed_ops == {2, 3}


# ---------------------------------------------------------------------------
# Per-layer metric arithmetic
# ---------------------------------------------------------------------------


def test_per_layer_metrics_arithmetic():
    table = {
        spans.OP_SPAN: {"calls": 4, "total_ns": 40_000, "self_ns": 4_000},
        "block.scan": {"calls": 2, "total_ns": 8_000, "self_ns": 8_000},
        "shard.export_subject": {"calls": 2, "total_ns": 9_000, "self_ns": 1_000},
        "shard.stats": {"calls": 2, "total_ns": 3_000, "self_ns": 3_000},
    }
    caches = {m: (0, 0) for m in layers._CACHES}
    after = dict(caches, **{"cache.record.hit_ratio": (3, 1)})
    extra = {
        "bench.trace_overhead_ratio": 1.2, "obs.telemetry_cost_ratio": 1.5,
        "journal.records_end": 254, "user_bytes": 100,
    }
    counts = {"block.scan.blocks": 2 * 65536, "block.write.bytes": 400}
    metrics = layers.per_layer_metrics(table, 4, counts, caches, after, extra)
    assert [m for m, _ in layers.PER_LAYER] == list(metrics)
    assert metrics["bench.unattributed_share"] == pytest.approx(0.1)
    assert metrics["block.scan.calls_per_op"] == 0.5
    assert metrics["block.scan.self_us_per_op"] == pytest.approx(2.0)
    assert metrics["block.scan.blocks_per_call"] == 65536
    assert metrics["shard.self_us_per_op"] == pytest.approx(1.0)
    assert metrics["cache.record.hit_ratio"] == 0.75
    assert metrics["cache.decision.hit_ratio"] == 0.0
    assert metrics["block.bytes_written_per_user_byte"] == 4.0
    assert metrics["journal.records_end"] == 254
    assert metrics["rights.erase.self_us_per_op"] == 0.0


# ---------------------------------------------------------------------------
# Smoke-scale runs: every workload's correctness check
# ---------------------------------------------------------------------------


def _small(name):
    return dataclasses.replace(
        workloads.WORKLOADS[name], population=60, chunk_ops=20,
        warmup_ops=10, min_ops=0,
    )


def _run(workload, setup, ops, recorder=None):
    loop = workloads.ClosedLoop(workload, setup, seed=3, recorder=recorder)
    loop.step()  # warm-up
    while loop.result.ops < ops:
        loop.step()
    return loop.result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct(name):
    workload = _small(name)
    setup = workloads.set_up(workload, seed=3)
    result = _run(workload, setup, 60)
    workloads.check_erasures(setup.adapter.inner.system, setup.model, result.tally)
    assert result.ops == 60
    assert result.tally.attempted == 70
    assert result.tally.failed == 0, result.tally.reasons
    if name == "customer":
        # Exactly the persona's 10% erasure share in every chunk.
        assert result.erasures == len(result.erase_ns) == 6
        assert len(setup.model.erased) == 7  # one more in the warm-up


def test_drive_runs_until_the_percentile_rule_holds():
    workload = _small("controller")
    setup = workloads.set_up(workload, seed=3)
    result = workloads.drive(workload, setup, seed=3, seconds=0)
    assert result.ops == measure.samples_needed(0.99)
    assert result.tally.failed == 0


def test_interleaved_loops_run_the_same_ops():
    workload = _small("customer")
    first = workloads.ClosedLoop(workload, workloads.set_up(workload, seed=3), seed=3)
    second = workloads.ClosedLoop(
        workload, workloads.set_up(workload, seed=3, telemetry=False), seed=3
    )
    for loop in (first, second):
        loop.step()
    workloads.interleave(first, second, seconds=60, max_ops=40)
    assert first.result.names == second.result.names
    assert first.result.ops == 40
    assert first.result.tally.failed == second.result.tally.failed == 0


def test_smoke_checks_catch_a_wrong_consent_model():
    workload = _small("processor")
    setup = workloads.set_up(workload, seed=3)
    for key in setup.model.analytics:
        setup.model.analytics[key] = not setup.model.analytics[key]
    result = _run(workload, setup, 20)
    assert result.tally.failed == result.tally.attempted


def test_smoke_checks_catch_an_export_without_the_record():
    workload = _small("regulator")
    setup = workloads.set_up(workload, seed=3)
    for record in setup.model.records.values():
        record["city"] = "Nowhere"
    result = _run(workload, setup, 40)
    assert result.tally.reasons.get("export lacks the subject's record", 0) > 0


def test_erasure_oracle_flags_a_subject_that_was_not_erased():
    workload = _small("customer")
    setup = workloads.set_up(workload, seed=3)
    key, record = next(iter(setup.model.records.items()))
    setup.model.erased.append((5, key, setup.model.subject_of[key], record))
    tally = measure.Tally(attempted=6)
    workloads.check_erasures(setup.adapter.inner.system, setup.model, tally)
    assert tally.failed_ops == {5}
    assert "erased record's membrane is not erased" in tally.reasons


def test_traced_smoke_run_attributes_erasure_to_the_scan():
    workload = _small("customer")
    recorder = spans.SpanRecorder()
    patches = layers.install(recorder)
    try:
        setup = workloads.set_up(workload, seed=3)
        result = _run(workload, setup, 40, recorder=recorder)
    finally:
        patches.undo()
    assert result.tally.failed == 0
    table = spans.self_times(recorder.spans)
    assert recorder.ops == 40
    assert table["rights.erase"]["calls"] == len(result.erase_ns)
    assert table["block.scan"]["calls"] > 0
    assert spans.unattributed_share(table) < 0.5


# ---------------------------------------------------------------------------
# BENCHMARK.json matches the harness
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
