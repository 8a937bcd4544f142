"""Trace spans: nesting, trace-id propagation, attributes — including
end-to-end traces across a full ``invoke()`` and a sharded
``bulk_erase()``."""

import pytest

from repro import RgpdOS, Telemetry
from repro.obs import Tracer

import helpers
from conftest import LISTING1_DECLARATIONS


class TestSpanNesting:
    def test_root_span_has_no_parent(self):
        tracer = Tracer()
        with tracer.span("root") as span:
            assert span.parent_id is None
        finished = tracer.finished_spans()
        assert [s.name for s in finished] == ["root"]
        assert finished[0].end_ns >= finished[0].start_ns

    def test_children_inherit_trace_id_and_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.trace_id == root.trace_id
        assert grandchild.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id

    def test_sibling_roots_get_distinct_trace_ids(self):
        tracer = Tracer()
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_current_span_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.current_span is None
        with tracer.span("outer") as outer:
            assert tracer.current_span is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert tracer.current_span is None

    def test_attributes_recorded(self):
        tracer = Tracer()
        with tracer.span("op", subject_id="alice") as span:
            span.set_attr("hit", True)
            span.set_attrs(shard=3, purpose="stats")
        finished = tracer.finished_spans()[0]
        assert finished.attrs == {
            "subject_id": "alice", "hit": True, "shard": 3,
            "purpose": "stats",
        }

    def test_traces_group_by_trace_id(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("a.1"):
                pass
        with tracer.span("b"):
            pass
        traces = tracer.traces()
        assert len(traces) == 2
        sizes = sorted(len(spans) for spans in traces.values())
        assert sizes == [1, 2]

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(max_spans=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer) == 4
        assert [s.name for s in tracer.finished_spans()] == [
            "s6", "s7", "s8", "s9"
        ]


class TestDisabledTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("root") as span:
            span.set_attr("ignored", 1)
            with tracer.span("child"):
                pass
        assert len(tracer) == 0
        assert tracer.traces() == {}

    def test_disabled_telemetry_end_to_end(self, shared_authority):
        system = RgpdOS(
            operator_name="quiet", authority=shared_authority,
            with_machine=False, telemetry=Telemetry.disabled(),
        )
        system.install(LISTING1_DECLARATIONS)
        system.register(helpers.birth_decade)
        system.collect(
            "user",
            {"name": "Alice", "pwd": "pw", "year_of_birthdate": 1990},
            subject_id="alice", method="web_form",
        )
        system.invoke("birth_decade", target="user")
        assert len(system.telemetry.tracer) == 0
        assert system.telemetry.registry.histograms == {}


class TestTelemetryDefaults:
    def test_default_system_keeps_histograms_not_spans(self):
        """RgpdOS's default telemetry records every latency histogram of
        the demo workload, and no span."""
        from repro.cli import _demo_system

        system = _demo_system()
        system.invoke("compute_age", target="user")
        system.rights.object_to("bob", "purpose3")
        system.invoke("compute_age", target="user")
        system.rights.erase("alice")
        system.audit()

        histograms = system.telemetry.registry.histograms
        assert set(histograms) == {
            "block.read", "block.scrub", "block.write",
            "dbfs.delete", "dbfs.export_subject", "dbfs.fetch_records",
            "dbfs.query_membranes", "dbfs.remount",
            "dbfs.remount.index_attach", "dbfs.store",
            "ded.ded_execute", "ded.ded_filter", "ded.ded_load_data",
            "ded.ded_load_membrane", "ded.ded_return", "ded.ded_store",
            "ded.ded_type2req", "ded.run", "journal.commit", "ps.invoke",
            "rights.erase",
        }
        assert histograms["ps.invoke"].count == 2
        assert histograms["ded.run"].count == 2
        assert histograms["ded.ded_load_membrane"].count == 2
        assert len(system.telemetry.tracer) == 0

    def test_measure_times_even_when_disabled(self):
        value, elapsed = Telemetry.disabled().measure("stage", lambda: 42)
        assert value == 42 and elapsed >= 0

    def test_measure_feeds_histogram_and_span_from_one_reading(self):
        quiet = Telemetry(tracing=False)
        _, elapsed = quiet.measure("stage", lambda: None)
        assert quiet.registry.histograms["stage"].sum_ns == elapsed
        assert len(quiet.tracer) == 0

        traced = Telemetry()
        with traced.op("outer"):
            _, elapsed = traced.measure("stage", lambda: None)
        spans = {span.name: span for span in traced.tracer.finished_spans()}
        assert spans["stage"].parent_id == spans["outer"].span_id
        assert spans["stage"].duration_ns == elapsed
        assert traced.registry.histograms["stage"].sum_ns == elapsed


@pytest.fixture
def traced_system(shared_authority):
    system = RgpdOS(
        operator_name="traced", authority=shared_authority,
        with_machine=False, telemetry=Telemetry(),
    )
    system.install(LISTING1_DECLARATIONS)
    system.register(helpers.birth_decade)
    for index, (name, year) in enumerate(
        [("Alice", 1990), ("Bob", 1985), ("Carol", 1971), ("Dave", 2002)]
    ):
        system.collect(
            "user",
            {"name": name, "pwd": f"pw{index}", "year_of_birthdate": year},
            subject_id=name.lower(), method="web_form",
        )
    return system


class TestSystemTraces:
    def test_single_invoke_is_one_nested_trace(self, traced_system):
        """One invoke() = one trace: PS -> DED -> stages -> DBFS."""
        traced_system.telemetry.tracer.clear()
        traced_system.invoke("birth_decade", target="user")
        traces = traced_system.telemetry.tracer.traces()
        assert len(traces) == 1
        (spans,) = traces.values()
        assert len(spans) >= 4
        names = {span.name for span in spans}
        assert "ps.invoke" in names
        assert "ded.run" in names
        assert "ded.ded_load_membrane" in names
        assert "dbfs.query_membranes" in names

        by_id = {span.span_id: span for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["ps.invoke"]
        # every span chains up to the single root, and the chain is
        # at least PS -> DED -> stage deep somewhere
        def depth(span):
            steps = 0
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                steps += 1
            return steps
        assert all(by_id[s.parent_id] in spans
                   for s in spans if s.parent_id is not None)
        assert max(depth(span) for span in spans) >= 2

    def test_stage_spans_nest_under_ded_run(self, traced_system):
        traced_system.telemetry.tracer.clear()
        traced_system.invoke("birth_decade", target="user")
        spans = traced_system.telemetry.tracer.finished_spans()
        ded_run = next(s for s in spans if s.name == "ded.run")
        stages = [s for s in spans if s.name.startswith("ded.ded_")]
        assert {s.name for s in stages} >= {
            "ded.ded_type2req", "ded.ded_load_membrane", "ded.ded_filter",
        }
        assert all(s.parent_id == ded_run.span_id for s in stages)

    def test_invoke_span_attributes(self, traced_system):
        traced_system.telemetry.tracer.clear()
        traced_system.invoke("birth_decade", target="user")
        spans = traced_system.telemetry.tracer.finished_spans()
        ps_span = next(s for s in spans if s.name == "ps.invoke")
        assert ps_span.attrs["processing"] == "birth_decade"
        ded_span = next(s for s in spans if s.name == "ded.run")
        assert ded_span.attrs["purpose"] == "purpose3"
        assert ded_span.attrs["processed"] == 4

    def test_bulk_erase_fans_out_across_shards(self, shared_authority):
        system = RgpdOS(
            operator_name="sharded-traced", authority=shared_authority,
            with_machine=False, shards=4, telemetry=Telemetry(),
        )
        system.install(LISTING1_DECLARATIONS)
        subject_ids = [f"subject-{index}" for index in range(12)]
        for index, subject_id in enumerate(subject_ids):
            system.collect(
                "user",
                {"name": subject_id, "pwd": "pw",
                 "year_of_birthdate": 1980 + index},
                subject_id=subject_id, method="web_form",
            )
        system.telemetry.tracer.clear()
        system.rights.bulk_erase(subject_ids)

        traces = system.telemetry.tracer.traces()
        assert len(traces) == 1
        (spans,) = traces.values()
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["rights.bulk_erase"]

        shard_spans = [s for s in spans if s.name == "rights.shard"]
        touched = {span.attrs["shard"] for span in shard_spans}
        assert len(shard_spans) >= 2  # 12 subjects spread over 4 shards
        assert touched <= {0, 1, 2, 3}
        assert all(span.attrs["op"] == "erase" for span in shard_spans)
        assert all(
            span.trace_id == roots[0].trace_id for span in spans
        )
        # the per-shard journal batches nest under the shard fan-out
        batch_spans = [s for s in spans if s.name == "journal.batch"]
        assert len(batch_spans) == len(shard_spans)
