"""Unit tests for the audit's § 2 technical rules (``rule-*`` controls)."""

import pytest

import helpers
from repro.core.views import SCOPE_ALL


class TestCleanSystem:
    def test_empty_system_compliant(self, system):
        report = system.audit()
        assert report.ok
        assert "COMPLIANT" in report.summary()

    def test_populated_system_compliant(self, populated):
        system, _, _ = populated
        system.register(helpers.compute_age)
        system.invoke("compute_age", target="user")
        assert system.audit().ok

    def test_after_full_lifecycle_still_compliant(self, populated):
        system, alice, _ = populated
        system.register(helpers.birth_decade)
        system.invoke("birth_decade", target="user")
        system.ps.builtins.copy(alice, actor="alice")
        system.rights.object_to("alice", "purpose3")
        system.rights.erase("alice")
        assert system.audit().ok

    def test_findings_map_to_articles(self, system):
        report = system.audit()
        articles = set(report.by_article())
        assert any("Art. 17" in a for a in articles)
        assert any("Art. 32" in a for a in articles)
        assert any("Art. 5(1)(e)" in a for a in articles)


class TestViolationDetection:
    def test_overdue_ttl_detected(self, populated):
        system, _, _ = populated
        system.advance_time(2 * 365 * 86400.0)  # past TTL, no sweep run
        report = system.audit()
        assert not report.ok
        failed = {c.control_id for c in report.failures()}
        assert failed == {"art5e-retention", "rule-ttl-respected"}

    def test_ttl_sweep_restores_compliance(self, populated):
        system, _, _ = populated
        system.advance_time(2 * 365 * 86400.0)
        system.rights.expire_overdue()
        assert system.audit().ok

    def test_divergent_copies_detected(self, populated):
        system, alice, _ = populated
        builtins = system.ps.builtins
        copy_ref = builtins.copy(alice, actor="alice")
        # Corrupt one membrane directly, bypassing the consistency
        # helper (simulating a buggy component).
        membrane = system.dbfs.get_membrane(
            copy_ref.uid, builtins.credential
        ).copy()
        membrane.grant("purpose2", SCOPE_ALL, at=1.0)
        system.dbfs.put_membrane(copy_ref.uid, membrane, builtins.credential)
        report = system.audit()
        failures = [c.control_id for c in report.failures()]
        assert "rule-copy-membrane-consistency" in failures

    def test_rogue_log_entry_detected(self, populated):
        system, _, _ = populated
        system.log.record(
            at=0.0, purpose="shadow", processing="rogue",
            outcome="completed", via_ps=False,
        )
        report = system.audit()
        failures = [c.control_id for c in report.failures()]
        assert "rule-all-processing-via-ps" in failures

    def test_outsider_probes_always_run(self, system):
        report = system.audit()
        control = next(
            c for c in report.controls if c.control_id == "rule-dbfs-ded-only"
        )
        assert control.status == "pass"
        assert "refused" in control.detail


class TestObserveOnce:
    def test_one_membrane_pass_and_one_probe_set(self, populated, monkeypatch):
        """Every control reads the run's shared observations: one
        membrane pass, and the four outsider probes run exactly once."""
        system, _, _ = populated
        dbfs = system.dbfs
        passes = []
        iter_membranes = dbfs.iter_membranes

        def counting(*args, **kwargs):
            passes.append(args)
            return iter_membranes(*args, **kwargs)

        monkeypatch.setattr(dbfs, "iter_membranes", counting)
        denied_before = dbfs.stats.denied_accesses
        report = system.audit()
        assert report.ok
        assert len(report.controls) == 14
        assert len(passes) == 1
        assert dbfs.stats.denied_accesses - denied_before == 4
