"""Integration: cross-operator PD transfer (Art. 20)."""

import json

import pytest

from repro import errors
from repro.core.transfer import export_json, export_package, import_package
from conftest import LISTING1_DECLARATIONS, make_system


@pytest.fixture
def source(populated):
    """The Listing-1 system with alice & bob, plus a subject-granted
    marketing consent for alice."""
    system, alice, bob = populated
    system.rights.grant_consent("alice", alice, "purpose2", "v_name")
    return system, alice, bob


@pytest.fixture
def destination(shared_authority):
    """A second operator with the same declarations installed."""
    dest = make_system(shared_authority)
    dest.install(LISTING1_DECLARATIONS)
    return dest


@pytest.fixture
def bare_destination(shared_authority):
    """A second operator with NO declarations (type auto-install path)."""
    return make_system(shared_authority)


class TestExport:
    def test_package_structure(self, source):
        system, alice, _ = source
        package = export_package(system, "alice")
        assert package["format"] == "rgpdos-transfer/1"
        assert package["subject_id"] == "alice"
        assert package["source_operator"] == "test-operator"
        (record,) = package["records"]
        assert record["pd_type"] == "user"
        assert record["data"]["name"] == "Alice Martin"
        assert record["remaining_ttl"] == pytest.approx(365 * 86400.0)

    def test_erased_pd_not_exported(self, source):
        system, alice, _ = source
        system.rights.erase("alice")
        package = export_package(system, "alice")
        assert package["records"] == []
        assert package["skipped_erased"] == 1

    def test_remaining_ttl_shrinks_with_time(self, source):
        system, _, _ = source
        system.advance_time(100 * 86400.0)
        package = export_package(system, "alice")
        (record,) = package["records"]
        assert record["remaining_ttl"] == pytest.approx(265 * 86400.0)

    def test_json_wire_format_roundtrips(self, source):
        system, _, _ = source
        document = export_json(system, "alice")
        parsed = json.loads(document)
        assert parsed["subject_id"] == "alice"


class TestImport:
    def test_import_into_prepared_destination(self, source, destination):
        system, _, _ = source
        package = export_package(system, "alice")
        outcome = import_package(destination, package)
        assert len(outcome.imported) == 1
        assert outcome.types_installed == []
        assert destination.dbfs.list_subjects() == ["alice"]

    def test_types_auto_installed(self, source, bare_destination):
        system, _, _ = source
        package = export_package(system, "alice")
        outcome = import_package(bare_destination, package)
        assert outcome.types_installed == ["user"]
        assert "user" in bare_destination.dbfs.list_types()

    def test_auto_install_can_be_disabled(self, source, bare_destination):
        system, _, _ = source
        package = export_package(system, "alice")
        with pytest.raises(errors.UnknownTypeError):
            import_package(
                bare_destination, package, install_missing_types=False
            )

    def test_unknown_format_rejected(self, destination):
        with pytest.raises(errors.GDPRError):
            import_package(destination, {"format": "zip"})


class TestMembraneRebuild:
    def imported_membrane(self, source_fixture, destination):
        system, _, _ = source_fixture
        package = export_package(system, "alice")
        outcome = import_package(destination, package)
        (ref,) = outcome.imported
        return destination.dbfs.get_membrane(
            ref.uid, destination.ps.builtins.credential
        )

    def test_origin_becomes_third_party(self, source, destination):
        membrane = self.imported_membrane(source, destination)
        assert membrane.origin == "third_party"
        assert membrane.collection == {"third_party": "test-operator"}

    def test_subject_granted_consents_travel(self, source, destination):
        membrane = self.imported_membrane(source, destination)
        # alice personally granted purpose2 via v_name at the source.
        assert membrane.permits("purpose2") == "v_name"

    def test_source_operator_defaults_do_not_travel(self, source, destination):
        """purpose1/purpose3 were legitimate-interest defaults of the
        *source* operator; they do not bind the destination."""
        membrane = self.imported_membrane(source, destination)
        assert membrane.permits("purpose1") is None
        assert membrane.permits("purpose3") is None

    def test_ttl_clock_does_not_reset(self, source, destination):
        system, _, _ = source
        system.advance_time(300 * 86400.0)
        package = export_package(system, "alice")
        outcome = import_package(destination, package)
        (ref,) = outcome.imported
        membrane = destination.dbfs.get_membrane(
            ref.uid, destination.ps.builtins.credential
        )
        assert membrane.ttl_seconds == pytest.approx(65 * 86400.0)

    def test_destination_stays_compliant(self, source, destination):
        self.imported_membrane(source, destination)
        assert destination.audit().ok

    def test_import_is_an_art30_record(self, source, destination):
        """The import is the destination's collection of the PD: it
        must land in the subject's record of processing."""
        system, _, _ = source
        outcome = import_package(destination, export_package(system, "alice"))
        (ref,) = outcome.imported
        (entry,) = destination.log.for_subject("alice")
        assert entry.processing == "transfer:import"
        assert [a.uid for a in entry.accesses] == [ref.uid]
        by_id = {c.control_id: c for c in destination.audit().controls}
        assert by_id["art30-records"].status == "pass"

    def test_imported_pd_fully_functional(self, source, destination):
        """The imported record works with the destination's rights."""
        system, _, _ = source
        package = export_package(system, "alice")
        outcome = import_package(destination, package)
        (ref,) = outcome.imported
        report = destination.rights.right_of_access("alice")
        assert report.export["records"][0]["data"]["name"] == "Alice Martin"
        erasure = destination.rights.erase("alice")
        assert erasure.fully_forgotten
