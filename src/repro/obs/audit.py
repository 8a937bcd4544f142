"""Article-indexed compliance audit engine.

The paper's pitch is that the OS can *demonstrate* GDPR compliance,
not merely enforce it: § 2 has rgpdOS force the operator "to respect a
number of *technical* rules", and § 4's processing log "logs every
executed processing".  This module is the demonstrating half:
:class:`AuditEngine` evaluates a live :class:`~repro.core.system.RgpdOS`
against one **control map** keyed by GDPR article —

* Art. 6   — lawful basis declared (and consent actually granted) for
  every purpose that processed PD;
* Art. 5(1)(c) — data minimisation: purposes scoped to views, decode
  counters showing only projected fields were materialised;
* Art. 5(1)(e) — storage limitation: no live membrane past its TTL;
* Art. 32  — security of processing: outsider probes refused at every
  DBFS entry point (probed negatively, not trusted);
* Art. 33  — breach notification: every notifiable breach report is
  either notified or inside its 72-hour window;
* Art. 30  — records of processing: the log covers every subject that
  holds PD and every entry went through the PS;

plus the eight § 2 technical rules (``rule-*`` controls): every PD
wrapped, DBFS reachable by DEDs only, membranes well formed, copies
consistent, TTLs respected, sensitive fields separated, all processing
via the PS, erased PD unreadable.

Every control reads the same :class:`AuditObservations` — one membrane
pass, one set of outsider probes, one TTL-overdue list and one
processing-log scan per run — and pulls concrete :class:`Evidence`:
processing-log entries, telemetry counters and gauges, membrane state,
sealed trail entries.  Every evidence item carries a ``ref`` that
:func:`resolve_evidence` can re-resolve against the live system, so a
report is checkable, not just readable.

Reports render as JSON (``to_dict``) and regulator-ready markdown
(``to_markdown``), and every audit run seals a summary entry into the
system's hash-chained :class:`~repro.obs.evidence.EvidenceTrail`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from .. import errors
from ..core.active_data import AccessCredential
from ..core.breach import NOTIFICATION_DEADLINE_SECONDS
from ..core.membrane import LAWFUL_BASES, Membrane
from ..storage.query import DataQuery, MembraneQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import RgpdOS

STATUS_PASS = "pass"
STATUS_WARN = "warn"
STATUS_FAIL = "fail"


@dataclass(frozen=True)
class Evidence:
    """One concrete, re-resolvable piece of evidence.

    ``ref`` is a ``kind:locator`` string :func:`resolve_evidence`
    understands (``metric:...``, ``log:entry:...``, ``membrane:...``,
    ``purpose:...``, ``journal:shard:...``, ``breach:...``,
    ``trail:...``); ``data`` is the value observed at audit time.
    """

    kind: str
    ref: str
    summary: str
    data: object = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "ref": self.ref,
            "summary": self.summary,
            "data": self.data,
        }


@dataclass
class ControlResult:
    """One control's verdict plus the evidence it rests on."""

    control_id: str
    article: str
    title: str
    status: str
    detail: str = ""
    evidence: List[Evidence] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "control_id": self.control_id,
            "article": self.article,
            "title": self.title,
            "status": self.status,
            "detail": self.detail,
            "evidence": [item.to_dict() for item in self.evidence],
        }


@dataclass
class AuditReport:
    """All control results of one audit run, article-indexed."""

    at: float
    operator: str
    controls: List[ControlResult] = field(default_factory=list)
    evidence_head: str = ""

    @property
    def ok(self) -> bool:
        return not any(c.status == STATUS_FAIL for c in self.controls)

    def counts(self) -> Dict[str, int]:
        counts = {STATUS_PASS: 0, STATUS_WARN: 0, STATUS_FAIL: 0}
        for control in self.controls:
            counts[control.status] = counts.get(control.status, 0) + 1
        return counts

    def by_article(self) -> Dict[str, List[ControlResult]]:
        grouped: Dict[str, List[ControlResult]] = {}
        for control in self.controls:
            grouped.setdefault(control.article, []).append(control)
        return grouped

    def failures(self) -> List[ControlResult]:
        return [c for c in self.controls if c.status == STATUS_FAIL]

    def summary(self) -> str:
        counts = self.counts()
        status = "COMPLIANT" if self.ok else "NON-COMPLIANT"
        return (
            f"{status}: {counts[STATUS_PASS]} pass, "
            f"{counts[STATUS_WARN]} warn, {counts[STATUS_FAIL]} fail "
            f"across {len(self.controls)} controls"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "report": "rgpdOS article-indexed compliance audit",
            "at": self.at,
            "operator": self.operator,
            "summary": self.summary(),
            "counts": self.counts(),
            "compliant": self.ok,
            "evidence_head": self.evidence_head,
            "controls": [control.to_dict() for control in self.controls],
        }

    def to_markdown(self) -> str:
        """Regulator-ready rendering, grouped by article."""
        lines = [
            "# GDPR compliance audit",
            "",
            f"- **Operator:** {self.operator}",
            f"- **Audited at:** t={self.at:.3f} (simulated seconds)",
            f"- **Verdict:** {self.summary()}",
            f"- **Evidence chain head:** `{self.evidence_head or 'empty'}`",
            "",
        ]
        for article, controls in sorted(self.by_article().items()):
            lines.append(f"## {article}")
            lines.append("")
            for control in controls:
                marker = {STATUS_PASS: "PASS", STATUS_WARN: "WARN",
                          STATUS_FAIL: "FAIL"}[control.status]
                lines.append(f"### [{marker}] {control.title}")
                lines.append("")
                if control.detail:
                    lines.append(control.detail)
                    lines.append("")
                if control.evidence:
                    lines.append("Evidence:")
                    for item in control.evidence:
                        lines.append(
                            f"- `{item.ref}` — {item.summary}"
                        )
                    lines.append("")
        return "\n".join(lines)


class AuditObservations:
    """What one audit run reads from the live system, each read once.

    Controls share these instead of re-walking the store.  Each is
    computed on first use and then cached for the run, so a read that
    raises fails only the controls that needed it.
    """

    def __init__(self, system: "RgpdOS", credential: AccessCredential):
        self.system = system
        self.credential = credential
        self.now = system.clock.now()

    @cached_property
    def membranes(self) -> List[Tuple[str, Membrane]]:
        """Every ``(uid, membrane)`` pair: the one membrane pass."""
        return self.system.dbfs.iter_membranes(self.credential)

    @cached_property
    def ttl_overdue(self) -> List[str]:
        """Live membranes past their TTL, on the canonical inclusive
        boundary (:meth:`Membrane.is_expired`): a PD exactly at its
        deadline is already overdue here, exactly as the DED already
        refuses to serve it and the expiry daemon already erases it."""
        return [
            uid
            for uid, membrane in self.membranes
            if not membrane.erased and membrane.is_expired(self.now)
        ]

    @cached_property
    def rogue_entries(self) -> List[int]:
        """Processing-log entries that bypassed the PS."""
        return [e.entry_id for e in self.system.log.entries() if not e.via_ps]

    @cached_property
    def outsider_probes(self) -> Tuple[int, int]:
        """``(refused, attempted)``: a non-DED credential tried on every
        DBFS entry point.  The boundary is probed, not trusted; each
        refusal adds one to ``rgpdos.dbfs.denied_accesses``."""
        dbfs = self.system.dbfs
        outsider = AccessCredential(holder="audit-probe", is_ded=False)
        types = dbfs.list_types()
        attempts: List[Callable[[], object]] = []
        if types:
            attempts.append(lambda: dbfs.query_membranes(
                MembraneQuery(pd_type=types[0]), outsider))
        if self.membranes:
            uid = self.membranes[0][0]
            attempts.append(lambda: dbfs.fetch_records(
                DataQuery(uids=(uid,)), outsider))
            attempts.append(lambda: dbfs.get_membrane(uid, outsider))
        attempts.append(
            lambda: dbfs.export_subject("audit-probe-subject", outsider))
        refused = 0
        for attempt in attempts:
            try:
                attempt()
            except errors.PDLeakError:
                refused += 1
        return refused, len(attempts)

    @cached_property
    def breach(self) -> Dict[str, float]:
        monitor = self.system.breach_monitor
        pending = monitor.pending_notifications()
        overdue = [r for r in pending if r.notification_deadline < self.now]
        countdown = min(
            (r.notification_deadline - self.now for r in pending
             if r.notification_deadline >= self.now),
            default=0.0,
        )
        return {
            "notifiable": len(monitor.notifiable_reports()),
            "pending": len(pending),
            "overdue": len(overdue),
            "countdown_seconds": countdown,
        }


def _rule(control_id: str, article: str, ok: bool, detail: str,
          metric: str) -> ControlResult:
    """One § 2 technical rule as a pass/fail control citing ``metric``."""
    return ControlResult(
        control_id=control_id,
        article=article,
        title=f"Technical rule: {control_id[len('rule-'):]}",
        status=STATUS_PASS if ok else STATUS_FAIL,
        detail=detail,
        evidence=[Evidence(
            kind="rule", ref=f"metric:{metric}", summary=detail, data=ok,
        )],
    )


class AuditEngine:
    """Evaluates the control map against a live system.

    Construct once per :class:`RgpdOS` (the system does this itself as
    ``system.audit_engine``; :meth:`RgpdOS.audit` runs it); each
    :meth:`run` produces a fresh :class:`AuditReport`, refreshes the
    ``rgpdos.audit.*`` gauges, and seals a summary entry into the
    system's evidence trail.
    """

    def __init__(self, system: "RgpdOS") -> None:
        self.system = system
        self._ded = AccessCredential(holder="audit-engine", is_ded=True)
        self.last_report: Optional[AuditReport] = None

    # -- the control map --------------------------------------------------

    def control_map(
        self,
    ) -> List[Callable[[AuditObservations], ControlResult]]:
        return [
            self._control_lawful_basis,
            self._control_minimisation,
            self._control_retention,
            self._control_security,
            self._control_breach_notification,
            self._control_records_of_processing,
            self._rule_every_pd_has_membrane,
            self._rule_dbfs_ded_only,
            self._rule_membranes_wellformed,
            self._rule_copy_membrane_consistency,
            self._rule_ttl_respected,
            self._rule_sensitive_fields_separated,
            self._rule_all_processing_via_ps,
            self._rule_erased_pd_unreadable,
        ]

    def observe(self) -> AuditObservations:
        """Fresh, lazily read observations of the live system."""
        return AuditObservations(self.system, self._ded)

    def run(self) -> AuditReport:
        """Run every control; never raises — crashes become failures."""
        system = self.system
        obs = self.observe()
        self._publish_observables(obs)
        report = AuditReport(at=obs.now, operator=system.operator_name)
        for control in self.control_map():
            try:
                report.controls.append(control(obs))
            except errors.RgpdOSError as exc:
                report.controls.append(ControlResult(
                    control_id=control.__name__.lstrip("_").replace("_", "-"),
                    article="-",
                    title=control.__name__,
                    status=STATUS_FAIL,
                    detail=f"control crashed: {exc}",
                ))
        self._publish_verdicts(report)
        trail_entry = system.evidence.append(
            kind="audit",
            source="audit-engine",
            payload={
                "summary": report.counts(),
                "compliant": report.ok,
                "controls": {
                    c.control_id: c.status for c in report.controls
                },
            },
            at=report.at,
        )
        report.evidence_head = trail_entry["hash"]
        self.last_report = report
        return report

    # -- observable gauges -------------------------------------------------

    def _publish_observables(self, obs: AuditObservations) -> None:
        """Refresh the ``rgpdos.audit.*`` gauges the controls cite.

        Publishing *before* evidence is gathered means every
        ``metric:`` ref in the report resolves against the registry at
        the values the verdicts were computed from.
        """
        registry = self.system.telemetry.registry
        registry.gauge("rgpdos.audit.ttl_overdue").set(len(obs.ttl_overdue))
        registry.gauge("rgpdos.audit.log_entries").set(len(self.system.log))
        status = obs.breach
        registry.gauge("rgpdos.audit.breach_notifiable").set(
            status["notifiable"])
        registry.gauge("rgpdos.audit.breach_overdue").set(status["overdue"])
        registry.gauge("rgpdos.audit.breach_countdown_seconds").set(
            status["countdown_seconds"])

    def _publish_verdicts(self, report: AuditReport) -> None:
        registry = self.system.telemetry.registry
        counts = report.counts()
        registry.gauge("rgpdos.audit.last_run").set(report.at)
        registry.gauge("rgpdos.audit.controls_pass").set(counts[STATUS_PASS])
        registry.gauge("rgpdos.audit.controls_warn").set(counts[STATUS_WARN])
        registry.gauge("rgpdos.audit.controls_fail").set(counts[STATUS_FAIL])

    # -- article controls --------------------------------------------------

    def _control_lawful_basis(self, obs: AuditObservations) -> ControlResult:
        """Art. 6: every purpose names a lawful basis; consent-based
        purposes that processed PD are actually granted somewhere."""
        system = self.system
        purposes = dict(system.ps._purposes)
        bad_basis = [
            name for name, p in purposes.items()
            if p.basis not in LAWFUL_BASES
        ]
        granted: Dict[str, int] = {name: 0 for name in purposes}
        for _uid, membrane in obs.membranes:
            if membrane.erased:
                continue
            for purpose, decision in membrane.consents.items():
                if purpose in granted and decision.scope != "none":
                    granted[purpose] += 1
        ungrounded = [
            name for name, p in purposes.items()
            if p.basis == "consent"
            and granted.get(name, 0) == 0
            and any(e.outcome == "completed"
                    for e in system.log.for_purpose(name))
        ]
        evidence = [
            Evidence(
                kind="telemetry",
                ref="metric:rgpdos.dbfs.subjects",
                summary="subjects whose membranes were inspected",
                data=len(system.dbfs.list_subjects()),
            )
        ]
        for name, purpose in sorted(purposes.items()):
            evidence.append(Evidence(
                kind="purpose",
                ref=f"purpose:{name}",
                summary=(f"basis={purpose.basis}, "
                         f"granted by {granted.get(name, 0)} membrane(s)"),
                data={"basis": purpose.basis,
                      "granted_membranes": granted.get(name, 0)},
            ))
            entries = system.log.for_purpose(name)
            if entries:
                evidence.append(Evidence(
                    kind="processing_log",
                    ref=f"log:entry:{entries[0].entry_id}",
                    summary=f"first logged processing under {name!r}",
                    data=entries[0].outcome,
                ))
        if bad_basis:
            status, detail = STATUS_FAIL, (
                f"purposes with unknown lawful basis: {bad_basis}"
            )
        elif ungrounded:
            status, detail = STATUS_WARN, (
                f"consent-based purposes processed PD but no live membrane "
                f"grants them (consent may have been withdrawn since): "
                f"{ungrounded}"
            )
        else:
            status, detail = STATUS_PASS, (
                f"all {len(purposes)} purposes carry a lawful basis "
                f"({sorted(LAWFUL_BASES)})"
            )
        return ControlResult(
            control_id="art6-lawful-basis", article="Art. 6",
            title="Lawful basis declared for every purpose",
            status=status, detail=detail, evidence=evidence,
        )

    def _control_minimisation(self, obs: AuditObservations) -> ControlResult:
        """Art. 5(1)(c): purposes scoped to views; decode counters show
        the store materialises only projected fields."""
        system = self.system
        purposes = dict(system.ps._purposes)
        unknown_types: List[str] = []
        whole_type_consent: List[str] = []
        view_scoped = 0
        for name, purpose in purposes.items():
            for type_name, view in purpose.uses:
                try:
                    pd_type = system.dbfs.get_type(type_name)
                except errors.RgpdOSError:
                    unknown_types.append(f"{name} uses {type_name}")
                    continue
                if view is not None:
                    view_scoped += 1
                elif purpose.basis == "consent" and pd_type.sensitive_fields:
                    whole_type_consent.append(f"{name} uses {type_name}")
        stats = system.dbfs.stats
        registry = system.telemetry.registry
        registry.gauge("rgpdos.audit.partial_decodes").set(
            stats.partial_decodes)
        registry.gauge("rgpdos.audit.full_decodes").set(stats.full_decodes)
        evidence = [
            Evidence(
                kind="telemetry",
                ref="metric:rgpdos.audit.partial_decodes",
                summary="rows decoded partially (projected fields only)",
                data=stats.partial_decodes,
            ),
            Evidence(
                kind="telemetry",
                ref="metric:rgpdos.audit.full_decodes",
                summary="rows fully decoded",
                data=stats.full_decodes,
            ),
        ]
        for name, purpose in sorted(purposes.items()):
            views = [f"{t} via {v}" if v else f"{t} (whole type)"
                     for t, v in purpose.uses]
            evidence.append(Evidence(
                kind="purpose", ref=f"purpose:{name}",
                summary="uses " + (", ".join(views) or "nothing"),
                data=list(purpose.uses),
            ))
        if unknown_types:
            status, detail = STATUS_FAIL, (
                f"purposes using undeclared types: {unknown_types}"
            )
        elif whole_type_consent:
            status, detail = STATUS_WARN, (
                f"consent-based purposes using whole sensitive types "
                f"(no view scope): {whole_type_consent}"
            )
        else:
            status, detail = STATUS_PASS, (
                f"{view_scoped} view-scoped purpose uses; decode path "
                f"materialised {stats.partial_decodes} partial vs "
                f"{stats.full_decodes} full rows"
            )
        return ControlResult(
            control_id="art5c-minimisation", article="Art. 5(1)(c)",
            title="Data minimisation via view-scoped purposes",
            status=status, detail=detail, evidence=evidence,
        )

    def _control_retention(self, obs: AuditObservations) -> ControlResult:
        """Art. 5(1)(e): no live PD outlives its TTL.

        The verdict rests on *proactive* enforcement: the expiry
        daemon's sealed retention waves in the evidence trail prove the
        OS erased overdue PD because its timers fired — not because a
        request happened to touch an expired record and the DED refused
        it lazily.  A clean membrane scan with sealed waves behind it
        passes; a clean scan with no enforcement history still passes
        but says so honestly in the detail.
        """
        overdue = obs.ttl_overdue
        evidence = [
            Evidence(
                kind="telemetry",
                ref="metric:rgpdos.audit.ttl_overdue",
                summary="live membranes past their retention TTL",
                data=len(overdue),
            ),
        ]
        registry = self.system.telemetry.registry
        residue = registry.gauges.get("rgpdos.residue.device_blocks")
        if residue is not None:
            evidence.append(Evidence(
                kind="telemetry",
                ref="metric:rgpdos.residue.device_blocks",
                summary="device residue blocks found by the last "
                        "completed scrubber sweep",
                data=residue.value,
            ))
        # Sealed erasure waves: the daemon's proof-of-work.  The trail
        # is hash-chained, so each cited seq is tamper-evident.
        waves = self.system.evidence.find(
            lambda entry: entry["kind"] == "retention-wave"
        )
        waves_erased = sum(
            int(entry["payload"].get("erased", 0)) for entry in waves
        )
        for entry in waves[-3:]:
            evidence.append(Evidence(
                kind="trail",
                ref=f"trail:{entry['seq']}",
                summary="sealed expiry-daemon erasure wave "
                        f"({entry['payload'].get('erased', 0)} erased)",
                data=entry["hash"],
            ))
        for uid in overdue[:5]:
            evidence.append(Evidence(
                kind="membrane", ref=f"membrane:{uid}",
                summary="membrane past TTL", data=uid,
            ))
        if overdue:
            status = STATUS_FAIL
            detail = f"{len(overdue)} PD record(s) past TTL: {overdue[:5]}"
        elif waves:
            status = STATUS_PASS
            detail = (
                "no live PD past its retention TTL; proactively enforced "
                f"by the expiry daemon ({len(waves)} sealed wave(s), "
                f"{waves_erased} PD erased)"
            )
        else:
            status = STATUS_PASS
            detail = (
                "no live PD past its retention TTL (no expiry-daemon "
                "waves sealed yet — nothing has expired, or the daemon "
                "is not running)"
            )
        return ControlResult(
            control_id="art5e-retention", article="Art. 5(1)(e)",
            title="Storage limitation (TTL retention)",
            status=status, detail=detail, evidence=evidence,
        )

    def _control_security(self, obs: AuditObservations) -> ControlResult:
        """Art. 32: outsider probes refused at every DBFS entry point."""
        refused, attempted = obs.outsider_probes
        ok = refused == attempted
        detail = f"{refused}/{attempted} outsider probes refused"
        evidence = [
            Evidence(
                kind="telemetry",
                ref="metric:rgpdos.dbfs.denied_accesses",
                summary="non-DED access attempts refused at the DBFS "
                        "boundary (includes this audit's probes)",
                data=self.system.dbfs.stats.denied_accesses,
            ),
            Evidence(
                kind="rule", ref="metric:rgpdos.dbfs.records",
                summary=f"probe outcome: {detail}", data=ok,
            ),
        ]
        return ControlResult(
            control_id="art32-security", article="Art. 32",
            title="Security of processing (DED-only mediation)",
            status=STATUS_PASS if ok else STATUS_FAIL,
            detail=detail, evidence=evidence,
        )

    def _control_breach_notification(
        self, obs: AuditObservations
    ) -> ControlResult:
        """Art. 33: notifiable breaches notified inside 72 hours."""
        status_map = obs.breach
        monitor = self.system.breach_monitor
        evidence = [
            Evidence(
                kind="telemetry",
                ref="metric:rgpdos.audit.breach_countdown_seconds",
                summary="seconds left on the tightest pending "
                        "Art. 33 notification deadline",
                data=status_map["countdown_seconds"],
            ),
            Evidence(
                kind="telemetry",
                ref="metric:rgpdos.audit.breach_notifiable",
                summary="notifiable breach reports on record",
                data=status_map["notifiable"],
            ),
        ]
        for index, report in enumerate(monitor.reports):
            if report.notifiable:
                evidence.append(Evidence(
                    kind="breach", ref=f"breach:{index}",
                    summary=report.summary(),
                    data={"deadline": report.notification_deadline,
                          "notified_at": report.notified_at},
                ))
        if status_map["overdue"]:
            status = STATUS_FAIL
            detail = (
                f"{status_map['overdue']} notifiable breach report(s) "
                f"past the {NOTIFICATION_DEADLINE_SECONDS / 3600:.0f}h "
                f"deadline without notification"
            )
        elif status_map["pending"]:
            status = STATUS_WARN
            detail = (
                f"{status_map['pending']} notifiable breach(es) awaiting "
                f"notification; {status_map['countdown_seconds']:.0f}s left"
            )
        else:
            status = STATUS_PASS
            detail = (
                f"{status_map['notifiable']} notifiable report(s), "
                f"none pending past notification"
            )
        return ControlResult(
            control_id="art33-breach", article="Art. 33",
            title="Breach notification within 72 hours",
            status=status, detail=detail, evidence=evidence,
        )

    def _control_records_of_processing(
        self, obs: AuditObservations
    ) -> ControlResult:
        """Art. 30: the processing log is the record of processing
        activities — complete per subject, all entries via the PS."""
        system = self.system
        rogue = obs.rogue_entries
        uncovered = [
            subject for subject in system.dbfs.list_subjects()
            if not system.log.for_subject(subject)
        ]
        activity = system.log.activity_report()
        evidence = [
            Evidence(
                kind="telemetry",
                ref="metric:rgpdos.audit.log_entries",
                summary="processing-log entries (Art. 30 records)",
                data=len(system.log),
            ),
            Evidence(
                kind="processing_log", ref="log:activity",
                summary="aggregate record of processing activities",
                data=activity,
            ),
        ]
        entries = system.log.entries()
        if entries:
            evidence.append(Evidence(
                kind="processing_log",
                ref=f"log:entry:{entries[-1].entry_id}",
                summary="latest logged processing",
                data=entries[-1].processing,
            ))
        if rogue:
            status = STATUS_FAIL
            detail = f"{len(rogue)} log entries bypassed the PS: {rogue[:5]}"
        elif uncovered:
            status = STATUS_FAIL
            detail = (
                f"subjects holding PD with no logged processing "
                f"(collection unrecorded): {uncovered[:5]}"
            )
        elif not entries:
            status = STATUS_WARN
            detail = "no processing logged yet (empty system?)"
        else:
            status = STATUS_PASS
            detail = (
                f"{len(entries)} entries, all via the PS, covering "
                f"{activity['subjects_touched']} subject(s)"
            )
        return ControlResult(
            control_id="art30-records", article="Art. 30",
            title="Records of processing activities (§ 4 log)",
            status=status, detail=detail, evidence=evidence,
        )

    # -- § 2 technical rules -----------------------------------------------

    def _rule_every_pd_has_membrane(
        self, obs: AuditObservations
    ) -> ControlResult:
        """Paper rule 3: every PD stored in DBFS has a membrane."""
        # Structurally impossible to violate; probed anyway.
        missing = [uid for uid, membrane in obs.membranes if membrane is None]
        return _rule(
            "rule-every-pd-has-membrane",
            "Art. 25 (data protection by design)",
            not missing,
            f"{len(missing)} bare records" if missing else
            f"all {len(obs.membranes)} records wrapped",
            metric="rgpdos.dbfs.records",
        )

    def _rule_dbfs_ded_only(self, obs: AuditObservations) -> ControlResult:
        """Paper rule 4, probed negatively: a non-DED credential must
        be refused on every DBFS entry point."""
        refused, attempted = obs.outsider_probes
        return _rule(
            "rule-dbfs-ded-only",
            "Art. 32 (security of processing)",
            refused == attempted,
            f"{refused}/{attempted} outsider probes refused",
            metric="rgpdos.dbfs.denied_accesses",
        )

    def _rule_membranes_wellformed(
        self, obs: AuditObservations
    ) -> ControlResult:
        """Membranes must name a subject and use known consent scopes."""
        bad: List[str] = []
        for uid, membrane in obs.membranes:
            if not membrane.subject_id:
                bad.append(f"{uid}: no subject")
                continue
            pd_type = self.system.dbfs.get_type(membrane.pd_type)
            for decision in membrane.consents.values():
                try:
                    pd_type.scope_fields(decision.scope)
                except errors.ViewError:
                    bad.append(f"{uid}: bad scope {decision.scope!r}")
        return _rule(
            "rule-membranes-wellformed",
            "Art. 6/7 (lawfulness & consent)",
            not bad,
            "; ".join(bad[:5]) if bad else "all membranes wellformed",
            metric="rgpdos.dbfs.records",
        )

    def _rule_copy_membrane_consistency(
        self, obs: AuditObservations
    ) -> ControlResult:
        """All copies in a lineage group share the same consent state."""
        groups: Dict[str, List[Dict[str, object]]] = {}
        for _uid, membrane in obs.membranes:
            if membrane.lineage and not membrane.erased:
                snapshot = {
                    purpose: decision.scope
                    for purpose, decision in membrane.consents.items()
                }
                groups.setdefault(membrane.lineage, []).append(snapshot)
        divergent = [
            lineage
            for lineage, snapshots in groups.items()
            if any(s != snapshots[0] for s in snapshots[1:])
        ]
        return _rule(
            "rule-copy-membrane-consistency",
            "Art. 7(3) (withdrawal must be effective)",
            not divergent,
            f"divergent lineage groups: {divergent[:3]}" if divergent
            else f"{len(groups)} lineage groups consistent",
            metric="rgpdos.dbfs.records",
        )

    def _rule_ttl_respected(self, obs: AuditObservations) -> ControlResult:
        """No live PD may outlive its TTL."""
        overdue = obs.ttl_overdue
        return _rule(
            "rule-ttl-respected",
            "Art. 5(1)(e) (storage limitation)",
            not overdue,
            f"{len(overdue)} PD past TTL: {overdue[:3]}" if overdue
            else "no PD past its TTL",
            metric="rgpdos.audit.ttl_overdue",
        )

    def _rule_sensitive_fields_separated(
        self, obs: AuditObservations
    ) -> ControlResult:
        """Sensitive fields must live in a separate inode."""
        dbfs = self.system.dbfs
        violations: List[str] = []
        for uid, membrane in obs.membranes:
            if membrane.erased:
                continue
            pd_type = dbfs.get_type(membrane.pd_type)
            if not pd_type.sensitive_fields:
                continue
            record = dbfs._load_record_raw(uid)
            has_sensitive_values = any(
                name in record for name in pd_type.sensitive_fields
            )
            if (has_sensitive_values
                    and "sensitive_inode" not in dbfs.record_inode(uid).attrs):
                violations.append(uid)
        return _rule(
            "rule-sensitive-fields-separated",
            "Art. 9 (special categories) / § 2 membrane",
            not violations,
            f"{len(violations)} records mix sensitivity levels" if violations
            else "sensitive fields stored separately",
            metric="rgpdos.dbfs.records",
        )

    def _rule_all_processing_via_ps(
        self, obs: AuditObservations
    ) -> ControlResult:
        """Paper rules 1–2: every logged processing went through PS."""
        rogue = obs.rogue_entries
        return _rule(
            "rule-all-processing-via-ps",
            "Art. 30 (records of processing)",
            not rogue,
            f"{len(rogue)} log entries bypassed PS" if rogue
            else f"all {len(self.system.log)} entries via PS",
            metric="rgpdos.audit.log_entries",
        )

    def _rule_erased_pd_unreadable(
        self, obs: AuditObservations
    ) -> ControlResult:
        """Erased PD must not be fetchable through any DBFS path."""
        leaks: List[str] = []
        for uid, membrane in obs.membranes:
            if not membrane.erased:
                continue
            try:
                self.system.dbfs.fetch_records(
                    DataQuery(uids=(uid,)), self._ded)
                leaks.append(uid)
            except errors.ExpiredPDError:
                pass
        return _rule(
            "rule-erased-pd-unreadable",
            "Art. 17 (right to erasure)",
            not leaks,
            f"{len(leaks)} erased records still readable" if leaks
            else "erased PD unreadable",
            metric="rgpdos.dbfs.deletes",
        )


def resolve_evidence(system: "RgpdOS", ref: str) -> object:
    """Resolve an evidence ``ref`` against the live system.

    Raises :class:`~repro.errors.GDPRError` when the reference does not
    resolve — the report cited something the system cannot produce,
    which is itself an audit failure.
    """
    kind, _, locator = ref.partition(":")
    try:
        if kind == "metric":
            registry = system.telemetry.registry
            registry.collect()
            if locator in registry.gauges:
                return registry.gauges[locator].value
            if locator in registry.counters:
                return registry.counters[locator].value
            if locator in registry.histograms:
                return registry.histograms[locator].summary()
            raise KeyError(locator)
        if kind == "log":
            sub, _, rest = locator.partition(":")
            if sub == "entry":
                wanted = int(rest)
                for entry in system.log.entries():
                    if entry.entry_id == wanted:
                        return entry.to_dict()
                raise KeyError(rest)
            if sub == "subject":
                return [e.to_dict() for e in system.log.for_subject(rest)]
            if sub == "purpose":
                return [e.to_dict() for e in system.log.for_purpose(rest)]
            if locator == "activity":
                return system.log.activity_report()
            raise KeyError(locator)
        if kind == "membrane":
            ded = AccessCredential(holder="evidence-resolver", is_ded=True)
            return system.dbfs.get_membrane(locator, ded).to_dict()
        if kind == "purpose":
            purpose = system.ps._purposes[locator]
            return {"name": purpose.name, "basis": purpose.basis,
                    "uses": list(purpose.uses)}
        if kind == "breach":
            report = system.breach_monitor.reports[int(locator)]
            return {"at": report.at, "notifiable": report.notifiable,
                    "deadline": report.notification_deadline,
                    "notified_at": report.notified_at}
        if kind == "journal":
            _, _, index = locator.partition(":")
            shard = system.dbfs.shards[int(index)]
            return {"live_records": len(shard.journal),
                    "blocks_in_use": shard.journal.blocks_in_use}
        if kind == "trail":
            return system.evidence.entries()[int(locator)]
    except (KeyError, IndexError, ValueError, errors.RgpdOSError) as exc:
        raise errors.GDPRError(
            f"evidence reference {ref!r} does not resolve: {exc}"
        ) from exc
    raise errors.GDPRError(f"unknown evidence reference kind in {ref!r}")
