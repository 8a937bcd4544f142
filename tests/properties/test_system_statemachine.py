"""Stateful property test: the full rgpdOS lifecycle vs a model.

A hypothesis rule-based state machine drives one rgpdOS instance
through random interleavings of the operations the paper defines —
collection, consent grants and objections, copies, erasure, TTL expiry
and processing invocations — while maintaining a tiny reference model
of what the GDPR semantics *should* be.  After every step the machine
checks:

* an invocation processes exactly the model's consented-and-live PD
  and denies exactly the unconsented-and-live PD;
* erased PD stays erased and unreadable;
* consent state is uniform across each copy-lineage group;
* the compliance audit holds whenever the TTL sweep is current.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Authority, RgpdOS, processing

SUBJECT_IDS = ("s1", "s2", "s3", "s4")
TTL_SECONDS = 2 * 365 * 86400.0  # the standard user type's 2Y

_AUTHORITY = Authority(bits=512, seed=2024)

DECLS = """
type user {
  fields { name: string, year_of_birthdate: int };
  view v_ano { year_of_birthdate };
  collection { web_form: f.html };
  age: 2Y;
}
purpose analytics { uses: user via v_ano; basis: consent; }
"""


@processing(purpose="analytics")
def sm_decade(user):
    if user.year_of_birthdate:
        return (user.year_of_birthdate // 10) * 10
    return None


class _ModelRecord:
    __slots__ = ("subject", "erased", "created_at", "lineage")

    def __init__(self, subject, created_at, lineage):
        self.subject = subject
        self.erased = False
        self.created_at = created_at
        self.lineage = lineage


class RgpdOSMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.system = RgpdOS(
            operator_name="statemachine",
            authority=_AUTHORITY,
            with_machine=False,
        )
        self.system.install(DECLS)
        self.system.register(sm_decade)
        # Model state.
        self.records = {}          # uid -> _ModelRecord
        self.refs = {}             # uid -> PDRef
        self.lineage_consent = {}  # lineage id -> bool (analytics consent)
        self.counter = 0

    # ------------------------------------------------------------------
    # Model helpers
    # ------------------------------------------------------------------

    def _live(self, uid):
        record = self.records[uid]
        if record.erased:
            return False
        return self.system.clock.now() < record.created_at + TTL_SECONDS

    def _expired(self, uid):
        record = self.records[uid]
        return (
            not record.erased
            and self.system.clock.now() >= record.created_at + TTL_SECONDS
        )

    def _consented(self, uid):
        return self.lineage_consent[self.records[uid].lineage]

    def _live_uids(self):
        return [uid for uid in self.records if self._live(uid)]

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(subject=st.sampled_from(SUBJECT_IDS),
          consent=st.booleans(),
          year=st.integers(min_value=1940, max_value=2005))
    def collect(self, subject, consent, year):
        self.counter += 1
        ref = self.system.collect(
            "user",
            {"name": f"Person {self.counter}", "year_of_birthdate": year},
            subject_id=subject,
            method="web_form",
            consents={"analytics": "v_ano"} if consent else None,
        )
        lineage = f"group-{ref.uid}"
        self.records[ref.uid] = _ModelRecord(
            subject, self.system.clock.now(), lineage
        )
        self.refs[ref.uid] = ref
        self.lineage_consent[lineage] = consent

    @precondition(lambda self: self._live_uids())
    @rule(data=st.data())
    def copy(self, data):
        uid = data.draw(st.sampled_from(self._live_uids()))
        source = self.records[uid]
        new_ref = self.system.ps.builtins.copy(
            self.refs[uid], actor=source.subject
        )
        self.records[new_ref.uid] = _ModelRecord(
            source.subject, self.system.clock.now(), source.lineage
        )
        self.refs[new_ref.uid] = new_ref

    @precondition(lambda self: self._live_uids())
    @rule(data=st.data(), grant=st.booleans())
    def change_consent(self, data, grant):
        uid = data.draw(st.sampled_from(self._live_uids()))
        record = self.records[uid]
        if grant:
            self.system.rights.grant_consent(
                record.subject, self.refs[uid], "analytics", "v_ano"
            )
        else:
            self.system.rights.object_to(record.subject, "analytics")
        # Propagation: grant reaches the lineage group; objection
        # reaches every lineage group the subject owns.
        if grant:
            self.lineage_consent[record.lineage] = True
        else:
            for other in self.records.values():
                if other.subject == record.subject:
                    self.lineage_consent[other.lineage] = False

    @precondition(lambda self: self._live_uids())
    @rule(data=st.data())
    def erase_subject(self, data):
        uid = data.draw(st.sampled_from(self._live_uids()))
        subject = self.records[uid].subject
        self.system.rights.erase(subject)
        for record in self.records.values():
            if record.subject == subject:
                record.erased = True

    @rule(days=st.integers(min_value=1, max_value=400))
    def advance_time_and_sweep(self, days):
        self.system.advance_time(days * 86400.0)
        purged = self.system.rights.expire_overdue()
        for uid in purged:
            self.records[uid].erased = True

    @rule()
    def invoke_and_check(self):
        result = self.system.invoke("sm_decade", target="user")
        expected_processed = {
            uid for uid in self.records
            if self._live(uid) and self._consented(uid)
        }
        expected_denied = {
            uid for uid in self.records
            if self._live(uid) and not self._consented(uid)
        }
        expected_expired = {uid for uid in self.records if self._expired(uid)}
        assert set(result.values) == expected_processed
        assert result.denied == len(expected_denied)
        assert result.expired == len(expected_expired)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def erased_stay_erased(self):
        if not hasattr(self, "system"):
            return
        credential = self.system.ps.builtins.credential
        for uid, record in self.records.items():
            membrane = self.system.dbfs.get_membrane(uid, credential)
            if record.erased:
                assert membrane.erased, uid

    @invariant()
    def lineage_groups_consistent(self):
        if not hasattr(self, "system"):
            return
        engine = self.system.audit_engine
        rule = engine._rule_copy_membrane_consistency(engine.observe())
        assert rule.status == "pass", rule.detail

    @invariant()
    def audit_holds_when_sweep_current(self):
        if not hasattr(self, "system"):
            return
        if not any(self._expired(uid) for uid in self.records):
            report = self.system.audit()
            assert report.ok, report.failures()


TestRgpdOSStateMachine = RgpdOSMachine.TestCase
TestRgpdOSStateMachine.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
