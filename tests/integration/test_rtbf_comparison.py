"""Integration: the right to be forgotten, rgpdOS vs the baseline.

Section 4's second illustration plus § 1's journal observation, as one
comparative experiment:

* the baseline's GDPR delete leaves the PD recoverable from the
  filesystem journal and from unscrubbed device blocks;
* rgpdOS's delete (escrow mode) leaves zero plaintext residue, the
  operator cannot decrypt the escrow blob, and the authority can.
"""

import json

import pytest

from repro.baseline.userspace_db import GDPRUserspaceDB

SECRET_NAME = "Forgettable-Person-XYZ"


@pytest.fixture
def victim(system):
    ref = system.collect(
        "user",
        {"name": SECRET_NAME, "pwd": "secret-pwd-xyz",
         "year_of_birthdate": 1970},
        subject_id="victim",
        method="web_form",
    )
    return system, ref


class TestBaselineRetains:
    def test_journal_keeps_deleted_pd(self):
        db = GDPRUserspaceDB()
        db.create_table("users")
        db.insert("users", "k", {"name": SECRET_NAME}, subject_id="v",
                  consents={})
        db.gdpr_delete("users", "k")
        scan = db.forensic_scan(SECRET_NAME.encode())
        assert scan["journal_records"] >= 1
        assert scan["device_blocks"] >= 1

    def test_journal_replay_recovers_deleted_pd(self):
        """Crash recovery would literally resurrect the data."""
        db = GDPRUserspaceDB()
        db.create_table("users")
        db.insert("users", "k", {"name": SECRET_NAME}, subject_id="v",
                  consents={})
        db.gdpr_delete("users", "k")
        replayed = db.fs.journal.replay()
        payloads = b"".join(record.payload for record in replayed)
        assert SECRET_NAME.encode() in payloads


class TestRgpdOSForgets:
    def test_no_plaintext_residue_anywhere(self, victim):
        system, ref = victim
        system.rights.erase("victim")
        for needle in (SECRET_NAME.encode(), b"secret-pwd-xyz"):
            scan = system.dbfs.forensic_scan(needle)
            assert scan == {"device_blocks": 0, "journal_records": 0}, needle

    def test_erased_pd_unreadable_through_every_path(self, victim):
        system, ref = victim
        system.rights.erase("victim")
        from repro import errors
        from repro.storage.query import DataQuery

        with pytest.raises(errors.ExpiredPDError):
            system.dbfs.fetch_records(
                DataQuery(uids=(ref.uid,)), system.ps.builtins.credential
            )
        export = system.rights.right_of_access("victim")
        assert export.export["records"][0]["data"] is None

    def test_operator_locked_out_authority_not(self, victim):
        """The § 4 escrow construction, end to end."""
        system, ref = victim
        system.rights.erase("victim", mode="escrow")
        blob = system.dbfs.escrow_blob(ref.uid)
        # Operator: no private key, no access.
        assert system.operator_key.can_decrypt(blob) is False
        assert SECRET_NAME.encode() not in blob.ciphertext
        # Authority: full recovery for legal investigation.
        recovered = json.loads(system.authority.recover(blob))
        assert recovered["name"] == SECRET_NAME
        assert recovered["pwd"] == "secret-pwd-xyz"

    def test_erase_mode_destroys_even_the_escrow(self, victim):
        system, ref = victim
        system.rights.erase("victim", mode="erase")
        from repro import errors

        with pytest.raises(errors.UnknownRecordError):
            system.dbfs.escrow_blob(ref.uid)

    def test_forgetting_covers_copies(self, victim):
        system, ref = victim
        system.ps.builtins.copy(ref, actor="victim")
        system.ps.builtins.copy(ref, actor="victim")
        outcome = system.rights.erase("victim")
        assert len(outcome.erased_uids) == 3
        scan = system.dbfs.forensic_scan(SECRET_NAME.encode())
        assert scan["device_blocks"] == 0

    def test_audit_confirms_erasure(self, victim):
        system, _ = victim
        system.rights.erase("victim")
        report = system.audit()
        assert report.ok
        control = next(
            c for c in report.controls
            if c.control_id == "rule-erased-pd-unreadable"
        )
        assert control.status == "pass"
