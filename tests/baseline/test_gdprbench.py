"""Unit tests for the GDPRBench-style workload suite."""

import pytest

from repro import errors
from repro.baseline.gdprbench import (
    PERSONAS,
    PURPOSE_ACCOUNT,
    PURPOSE_ANALYTICS,
    GDPRBenchRunner,
    PlainDBAdapter,
    RgpdOSAdapter,
    UserspaceDBAdapter,
    build_persona_tasks,
)
from repro.workloads.generator import PopulationGenerator


@pytest.fixture(params=[PlainDBAdapter, UserspaceDBAdapter, RgpdOSAdapter])
def adapter(request):
    return request.param()


def insert_one(adapter, consents=None):
    subject = PopulationGenerator(seed=5).subject()
    if consents is None:
        consents = {PURPOSE_ANALYTICS: "v_ano"}
    key = adapter.insert(subject, consents)
    return subject, key


class TestAdapterContract:
    """Every adapter honours the persona-operation interface."""

    def test_insert_read(self, adapter):
        subject, key = insert_one(adapter)
        record = adapter.read(key, PURPOSE_ACCOUNT)
        assert record is not None
        assert subject.first_name in str(record.get("name", record))

    def test_update(self, adapter):
        _, key = insert_one(adapter)
        assert adapter.update(key, {"city": "Dijon"})

    def test_delete_then_read_fails_or_denies(self, adapter):
        _, key = insert_one(adapter)
        adapter.delete(key)
        with pytest.raises((errors.RgpdOSError, KeyError)):
            adapter.read(key, PURPOSE_ACCOUNT)

    def test_subject_access_returns_records(self, adapter):
        _, key = insert_one(adapter)
        export = adapter.subject_access(key)
        assert export["records"]

    def test_audit_returns_list(self, adapter):
        _, key = insert_one(adapter)
        adapter.read(key, PURPOSE_ACCOUNT)
        assert isinstance(adapter.audit(key), list)


class TestConsentSemantics:
    """Where the engines differ — and must."""

    def test_plain_db_ignores_consent(self):
        adapter = PlainDBAdapter()
        _, key = insert_one(adapter, consents={})
        # No analytics consent, read succeeds anyway: no GDPR at all.
        assert adapter.read(key, PURPOSE_ANALYTICS) is not None

    def test_userspace_db_enforces_consent(self):
        adapter = UserspaceDBAdapter()
        _, key = insert_one(adapter, consents={})
        assert adapter.read(key, PURPOSE_ANALYTICS) is None

    def test_rgpdos_enforces_consent(self):
        adapter = RgpdOSAdapter()
        _, key = insert_one(adapter, consents={})
        assert adapter.read(key, PURPOSE_ANALYTICS) is None

    def test_rgpdos_analytics_sees_only_view_fields(self):
        adapter = RgpdOSAdapter()
        _, key = insert_one(adapter, consents={PURPOSE_ANALYTICS: "v_ano"})
        record = adapter.read(key, PURPOSE_ANALYTICS)
        assert record == {"decade": record["decade"]}  # only derived data

    def test_consent_toggle_roundtrip(self):
        for adapter_cls in (UserspaceDBAdapter, RgpdOSAdapter):
            adapter = adapter_cls()
            _, key = insert_one(adapter, consents={})
            assert adapter.read(key, PURPOSE_ANALYTICS) is None
            adapter.toggle_consent(key, PURPOSE_ANALYTICS, granted=True)
            assert adapter.read(key, PURPOSE_ANALYTICS) is not None
            adapter.toggle_consent(key, PURPOSE_ANALYTICS, granted=False)
            assert adapter.read(key, PURPOSE_ANALYTICS) is None


class TestRgpdOSAdapterCodec:
    def test_only_binary_v2_accepted(self):
        assert RgpdOSAdapter(record_codec="v2").system is not None
        with pytest.raises(ValueError, match="v1"):
            RgpdOSAdapter(record_codec="v1")


class TestForgettingSemantics:
    def test_userspace_delete_leaves_residue(self):
        adapter = UserspaceDBAdapter()
        subject, key = insert_one(adapter)
        adapter.delete(key)
        scan = adapter.db.forensic_scan(subject.first_name.encode())
        assert scan["journal_records"] >= 1

    def test_rgpdos_delete_forgets(self):
        adapter = RgpdOSAdapter()
        subject, key = insert_one(adapter)
        adapter.delete(key)
        scan = adapter.system.dbfs.forensic_scan(subject.first_name.encode())
        assert scan == {"device_blocks": 0, "journal_records": 0}


class TestRunner:
    def test_personas_have_normalised_mixes(self):
        for persona, mix in PERSONAS.items():
            assert abs(sum(mix.values()) - 1.0) < 1e-9, persona

    @pytest.mark.parametrize("persona", sorted(PERSONAS))
    def test_each_persona_runs(self, persona):
        runner = GDPRBenchRunner(PlainDBAdapter(), seed=3)
        runner.load(10)
        result = runner.run(persona, 30)
        assert result.operations == 30
        assert sum(result.op_counts.values()) == 30
        assert result.wall_seconds > 0

    def test_unknown_persona_rejected(self):
        runner = GDPRBenchRunner(PlainDBAdapter(), seed=3)
        with pytest.raises(errors.RgpdOSError):
            runner.run("hacker", 1)

    def test_population_steady_under_deletes(self):
        runner = GDPRBenchRunner(UserspaceDBAdapter(), seed=3)
        runner.load(10)
        runner.run("customer", 50)  # includes delete+reinsert ops
        assert len(runner.keys) == 10

    def test_persona_tasks_keep_the_roster_whole(self):
        """Built task lists hand back the erasure keys they never drew:
        a long run keeps drawing from the whole population."""
        population = 200
        runner = GDPRBenchRunner(UserspaceDBAdapter(), seed=3)
        runner.load(population)
        for chunk in range(50):
            tasks, _ = build_persona_tasks(runner, "customer", 100, seed=chunk)
            for task in tasks:
                task()
            assert len(runner.keys) == population
        assert len(set(runner.keys)) == population

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            runner = GDPRBenchRunner(PlainDBAdapter(), seed=11)
            runner.load(8)
            results.append(runner.run("customer", 25).op_counts)
        assert results[0] == results[1]

    def test_rgpdos_runner_end_to_end(self):
        runner = GDPRBenchRunner(RgpdOSAdapter(), seed=3)
        runner.load(6)
        result = runner.run("processor", 20)
        assert result.operations == 20
        # Some subjects did not consent to analytics: denials expected
        # over 20 purpose reads with a 0.7 consent rate... but possibly
        # zero; just check the field exists and is non-negative.
        assert result.denied >= 0
