"""Expiry-boundary regression sweep (Art. 5(1)(e)).

One canonical rule — ``Membrane.is_expired`` uses an inclusive
``now >= created_at + ttl_seconds`` — and every decision site in the
system must agree with it *at the exact deadline instant*:

* the membrane predicates themselves,
* the TTL watcher monitor,
* the article-indexed audit's overdue scan and its ``rule-ttl-respected``
  control,
* transfer export (refuses overdue PD) and import (skips a package
  whose TTL ran out in transit, instead of crashing on a zero TTL).

These are regression tests for an off-by-one family: before the sweep,
sites disagreed between ``>`` and ``>=``, so a PD exactly at its
deadline was simultaneously "live" to one subsystem and "overdue" to
another.  The frozen-clock tests pin the other half of the contract:
no retention verdict may move while the deterministic clock is paused,
and none may consult the wall clock.
"""

import time

import pytest

from repro.core.membrane import Membrane
from repro.core.transfer import export_package, import_package
from repro.obs.monitors import ExpiryDaemon, TTLWatcherMonitor

YEAR = 365 * 86400.0


def make_membrane(created_at=1000.0, ttl=500.0):
    return Membrane(
        pd_type="user",
        subject_id="alice",
        origin="subject",
        sensitivity="high",
        created_at=created_at,
        ttl_seconds=ttl,
    )


class TestMembranePredicates:
    def test_inclusive_at_exact_deadline(self):
        membrane = make_membrane(created_at=1000.0, ttl=500.0)
        assert not membrane.is_expired(1499.999)
        assert membrane.is_expired(1500.0)  # AT the deadline, not after
        assert membrane.is_expired(1500.001)

    def test_no_ttl_never_expires(self):
        membrane = make_membrane(ttl=None)
        assert not membrane.is_expired(float("inf"))
        assert membrane.expiry_deadline() is None

    def test_deadline_and_remaining_agree(self):
        membrane = make_membrane(created_at=1000.0, ttl=500.0)
        assert membrane.expiry_deadline() == 1500.0
        assert membrane.remaining_ttl(1400.0) == 100.0
        # Clamped at zero exactly when is_expired flips true.
        assert membrane.remaining_ttl(1500.0) == 0.0
        assert membrane.remaining_ttl(9999.0) == 0.0


class TestTTLWatcherBoundary:
    def test_overdue_at_exact_deadline(self, populated):
        system, _, _ = populated
        watcher = TTLWatcherMonitor(
            system.dbfs, system.clock, system.telemetry
        )
        system.advance_time(YEAR - 1.0)
        block = watcher.tick(system.clock.now())
        assert block["overdue"] == 0
        system.advance_time(1.0)  # lands exactly on created_at + 1Y
        block = watcher.tick(system.clock.now())
        assert block["overdue"] == 2  # alice + bob user records


class TestAuditEngineBoundary:
    def test_ttl_overdue_at_exact_deadline(self, populated):
        system, _, _ = populated
        system.advance_time(YEAR - 1.0)
        assert system.audit_engine.observe().ttl_overdue == []
        system.advance_time(1.0)
        assert len(system.audit_engine.observe().ttl_overdue) == 2


class TestComplianceGraceBoundary:
    def test_zero_grace_matches_canonical_boundary(self, populated):
        """``rule-ttl-respected`` flips on the canonical inclusive
        boundary, with no grace window."""
        system, _, _ = populated
        system.advance_time(YEAR - 1.0)
        by_id = {c.control_id: c for c in system.audit().controls}
        assert by_id["rule-ttl-respected"].status == "pass"
        system.advance_time(1.0)
        by_id = {c.control_id: c for c in system.audit().controls}
        assert by_id["rule-ttl-respected"].status == "fail"


class TestTransferBoundary:
    def test_export_refuses_pd_at_exact_deadline(self, populated):
        system, _, _ = populated
        system.advance_time(YEAR)
        package = export_package(system, "alice")
        assert package["records"] == []
        assert package["skipped_expired"] == 1

    def test_export_just_before_deadline_still_travels(self, populated):
        system, _, _ = populated
        system.advance_time(YEAR - 60.0)
        package = export_package(system, "alice")
        (record,) = package["records"]
        assert record["remaining_ttl"] == pytest.approx(60.0)

    def test_import_skips_zero_ttl_instead_of_crashing(
        self, populated, shared_authority
    ):
        """A package whose TTL ran out in transit used to explode in
        ``Membrane.__post_init__`` ("TTL must be positive").  The import
        side must clamp-skip and account for it."""
        from conftest import LISTING1_DECLARATIONS, make_system

        system, _, _ = populated
        package = export_package(system, "alice")
        (record,) = package["records"]
        record["remaining_ttl"] = 0.0  # expired on the wire
        destination = make_system(shared_authority)
        destination.install(LISTING1_DECLARATIONS)
        outcome = import_package(destination, package)
        assert outcome.imported == []
        assert outcome.skipped_expired == 1
        assert destination.dbfs.list_subjects() == []


class TestFrozenClock:
    """Satellite (c): retention verdicts are a pure function of the
    deterministic clock.  While it is paused nothing moves, and no
    retention path may consult the wall clock."""

    def test_verdicts_stable_while_paused(self, populated):
        system, _, _ = populated
        system.advance_time(YEAR - 10.0)  # just shy of the deadline
        watcher = TTLWatcherMonitor(
            system.dbfs, system.clock, system.telemetry
        )
        first = watcher.tick(system.clock.now())
        assert first["overdue"] == 0
        before = system.audit_engine.observe().ttl_overdue
        for _ in range(5):  # clock frozen: nothing may flip
            assert watcher.tick(system.clock.now()) is None  # unchanged
            assert system.audit_engine.observe().ttl_overdue == before

    def test_daemon_idle_while_paused(self, populated):
        system, _, _ = populated
        daemon = ExpiryDaemon(
            dbfs=system.dbfs,
            clock=system.clock,
            builtins=system.ps.builtins,
            trail=system.evidence,
            telemetry=system.telemetry,
        )
        system.advance_time(YEAR - 10.0)
        for _ in range(5):
            assert daemon.tick(system.clock.now()) is None
        assert daemon.erased_total == 0
        assert daemon.pending == 2

    def test_no_wall_clock_reads_in_retention_paths(
        self, populated, monkeypatch
    ):
        """Booby-trap ``time.time``: if any retention verdict consults
        the wall clock instead of the shared deterministic Clock, this
        trips."""
        system, _, _ = populated
        system.advance_time(YEAR)

        def forbidden():
            raise AssertionError(
                "retention path read the wall clock (time.time)"
            )

        monkeypatch.setattr(time, "time", forbidden)
        membrane = make_membrane()
        assert membrane.is_expired(99999.0)
        watcher = TTLWatcherMonitor(
            system.dbfs, system.clock, system.telemetry
        )
        assert watcher.tick(system.clock.now())["overdue"] == 2
        assert len(system.audit_engine.observe().ttl_overdue) == 2
