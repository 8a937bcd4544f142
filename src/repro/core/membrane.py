"""The PD membrane — the paper's first demonstration of *active data*.

Section 2: *"Each PD stored in DBFS includes a membrane. ... The
membrane features different categories of metadata, among the most
important ones are: the origin of the PD; consents relative to each
data processing operation; time to live; level of sensibility; the
interface to use for data collection."*

A :class:`Membrane` carries exactly those categories, plus what makes
the data *active*: the membrane itself answers access questions
(:meth:`Membrane.permits`, :meth:`Membrane.allowed_fields`) and keeps
an auditable history of every consent change (GDPR Art. 7 requires the
controller to *demonstrate* consent).  The DED never decides on its
own whether a purpose may run — it asks the membrane.

Copies and lineage: the built-in ``copy`` function must keep membranes
consistent across all copies of the same PD (§ 2, built-in functions).
Membranes therefore record a ``lineage`` group id shared by every
copy; the consent-update path fans changes out to the group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Optional

from .. import errors
from .datatypes import ORIGINS, SENSITIVITY_LEVELS, PDType
from .views import SCOPE_NONE

# Lawful bases of GDPR Art. 6(1). Default-consent entries carry
# LEGITIMATE_INTEREST (the paper: operations "backed by a legitimate
# basis ... do not need the specific subject's consent"); subject
# grants carry CONSENT.
BASIS_CONSENT = "consent"
BASIS_CONTRACT = "contract"
BASIS_LEGAL_OBLIGATION = "legal_obligation"
BASIS_VITAL_INTERESTS = "vital_interests"
BASIS_PUBLIC_INTEREST = "public_interest"
BASIS_LEGITIMATE_INTEREST = "legitimate_interest"
LAWFUL_BASES = (
    BASIS_CONSENT,
    BASIS_CONTRACT,
    BASIS_LEGAL_OBLIGATION,
    BASIS_VITAL_INTERESTS,
    BASIS_PUBLIC_INTEREST,
    BASIS_LEGITIMATE_INTEREST,
)


@dataclass(frozen=True)
class ConsentDecision:
    """One live consent entry: purpose → scope, with its lawful basis."""

    scope: str
    basis: str = BASIS_CONSENT
    granted_at: float = 0.0
    granted_by: str = ""

    def __post_init__(self) -> None:
        if self.basis not in LAWFUL_BASES:
            raise errors.MembraneError(
                f"unknown lawful basis {self.basis!r} (valid: {LAWFUL_BASES})"
            )


@dataclass(frozen=True)
class ConsentEvent:
    """One entry of the membrane's consent history (grant or revoke)."""

    action: str  # "grant" | "revoke"
    purpose: str
    scope: str
    basis: str
    at: float
    by: str


@dataclass
class Membrane:
    """The active metadata wrapped around one piece of PD.

    **Version contract.**  ``version`` is bumped monotonically by
    *every* consent/scope mutation — :meth:`grant`, :meth:`revoke`,
    :meth:`restrict`, :meth:`unrestrict` and :meth:`mark_erased`.  The
    DED's membrane-decision cache
    (:class:`repro.core.ded.MembraneDecisionCache`) keys its entries on
    this version, which is what makes caching consent decisions safe:
    a withdrawal changes the version, so the stale cached decision is
    simply never looked up again, and revocation takes effect on the
    very next invocation.  Any new mutating method MUST keep bumping
    ``version``.

    **Published membranes are read-only.**  A membrane handed out by
    DBFS (``get_membrane``, ``query_membranes``, a snapshot read) is
    the value every other reader of that uid shares.  Writers mutate a
    :meth:`copy` and publish it with ``put_membrane``.
    """

    pd_type: str
    subject_id: str
    origin: str
    sensitivity: str
    created_at: float
    ttl_seconds: Optional[float] = None
    consents: Dict[str, ConsentDecision] = field(default_factory=dict)
    collection: Dict[str, str] = field(default_factory=dict)
    lineage: str = ""
    version: int = 1
    erased: bool = False
    erased_at: Optional[float] = None
    restricted: bool = False  # GDPR Art. 18 restriction of processing
    history: List[ConsentEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.origin not in ORIGINS:
            raise errors.MembraneError(f"unknown origin {self.origin!r}")
        if self.sensitivity not in SENSITIVITY_LEVELS:
            raise errors.MembraneError(
                f"unknown sensitivity {self.sensitivity!r}"
            )
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise errors.MembraneError("TTL must be positive")
        if not self.subject_id:
            raise errors.MembraneError("membrane must name its subject")

    # -- the active part: access decisions -----------------------------------

    def permits(self, purpose: str) -> Optional[str]:
        """Return the scope this membrane grants ``purpose``, or None.

        ``None`` means no access (no entry, an explicit ``none`` entry,
        processing restricted, PD erased).  This is the question the
        DED's ``ded_filter`` stage asks for every candidate PD.
        """
        if self.erased or self.restricted:
            return None
        decision = self.consents.get(purpose)
        if decision is None or decision.scope == SCOPE_NONE:
            return None
        return decision.scope

    def allowed_fields(self, purpose: str, pd_type: PDType) -> Optional[FrozenSet[str]]:
        """Resolve the permitted scope to concrete field names."""
        scope = self.permits(purpose)
        if scope is None:
            return None
        if pd_type.name != self.pd_type:
            raise errors.MembraneError(
                f"membrane is for type {self.pd_type!r}, asked against "
                f"{pd_type.name!r}"
            )
        return pd_type.scope_fields(scope)

    def is_expired(self, now: float) -> bool:
        """Storage limitation: has this PD outlived its TTL?

        **Canonical boundary rule.**  A membrane is expired at the
        instant ``now == created_at + ttl_seconds`` (inclusive ``>=``).
        Every expiry decision in the system — the DED access filter,
        the TTL watcher monitor, the Art. 5(1)(e) audit controls,
        transfer export/import and the expiry daemon — must route
        through this predicate (or its ``deadline`` /
        :meth:`remaining_ttl` companions) so that a PD exactly at its
        deadline is treated identically everywhere: unreadable,
        overdue, and not transferable.
        """
        if self.ttl_seconds is None:
            return False
        return now >= self.created_at + self.ttl_seconds

    def expiry_deadline(self) -> Optional[float]:
        """The absolute instant this PD expires (None = no TTL).

        The timer wheel indexes membranes by this deadline; by the
        canonical rule above the PD is expired *at* the deadline, not
        one tick after it.
        """
        if self.ttl_seconds is None:
            return None
        return self.created_at + self.ttl_seconds

    def remaining_ttl(self, now: float) -> Optional[float]:
        if self.ttl_seconds is None:
            return None
        return max(0.0, self.created_at + self.ttl_seconds - now)

    # -- consent lifecycle ----------------------------------------------------

    def grant(
        self,
        purpose: str,
        scope: str,
        basis: str = BASIS_CONSENT,
        at: float = 0.0,
        by: str = "",
    ) -> None:
        """Record a consent (or widen/narrow an existing one)."""
        if self.erased:
            raise errors.MembraneError("cannot grant consent on erased PD")
        self.consents[purpose] = ConsentDecision(
            scope=scope, basis=basis, granted_at=at, granted_by=by
        )
        self.history.append(
            ConsentEvent("grant", purpose, scope, basis, at, by)
        )
        self.version += 1

    def revoke(self, purpose: str, at: float = 0.0, by: str = "") -> None:
        """Withdraw consent for a purpose (GDPR Art. 7(3)).

        Revocation is recorded even if no grant existed: the subject's
        objection (Art. 21) must hold against future grants by default.
        """
        previous = self.consents.get(purpose)
        basis = previous.basis if previous else BASIS_CONSENT
        self.consents[purpose] = ConsentDecision(
            scope=SCOPE_NONE, basis=basis, granted_at=at, granted_by=by
        )
        self.history.append(
            ConsentEvent("revoke", purpose, SCOPE_NONE, basis, at, by)
        )
        self.version += 1

    def restrict(self) -> None:
        """Freeze all processing (GDPR Art. 18)."""
        self.restricted = True
        self.version += 1

    def unrestrict(self) -> None:
        self.restricted = False
        self.version += 1

    def mark_erased(self, at: float) -> None:
        """Flip the membrane to the erased state (crypto-erasure done)."""
        self.erased = True
        self.erased_at = at
        self.version += 1

    def copy(self, **changes: object) -> "Membrane":
        """A private copy (plus ``changes``) to mutate, then publish.
        Consent decisions and history events are frozen: shallow is enough."""
        return replace(
            self,
            consents=dict(self.consents),
            collection=dict(self.collection),
            history=list(self.history),
            **changes,
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (stored in DBFS, exported on access)."""
        return {
            "pd_type": self.pd_type,
            "subject_id": self.subject_id,
            "origin": self.origin,
            "sensitivity": self.sensitivity,
            "created_at": self.created_at,
            "ttl_seconds": self.ttl_seconds,
            "consents": {
                purpose: {
                    "scope": d.scope,
                    "basis": d.basis,
                    "granted_at": d.granted_at,
                    "granted_by": d.granted_by,
                }
                for purpose, d in sorted(self.consents.items())
            },
            "collection": dict(self.collection),
            "lineage": self.lineage,
            "version": self.version,
            "erased": self.erased,
            "erased_at": self.erased_at,
            "restricted": self.restricted,
            "history": [
                {
                    "action": e.action,
                    "purpose": e.purpose,
                    "scope": e.scope,
                    "basis": e.basis,
                    "at": e.at,
                    "by": e.by,
                }
                for e in self.history
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Membrane":
        try:
            consents = {
                purpose: ConsentDecision(
                    scope=d["scope"],
                    basis=d["basis"],
                    granted_at=d["granted_at"],
                    granted_by=d["granted_by"],
                )
                for purpose, d in data["consents"].items()  # type: ignore[union-attr]
            }
            history = [
                ConsentEvent(
                    action=e["action"],
                    purpose=e["purpose"],
                    scope=e["scope"],
                    basis=e["basis"],
                    at=e["at"],
                    by=e["by"],
                )
                for e in data.get("history", [])  # type: ignore[union-attr]
            ]
            return cls(
                pd_type=data["pd_type"],
                subject_id=data["subject_id"],
                origin=data["origin"],
                sensitivity=data["sensitivity"],
                created_at=data["created_at"],
                ttl_seconds=data["ttl_seconds"],
                consents=consents,
                collection=dict(data.get("collection", {})),
                lineage=data.get("lineage", ""),
                version=data.get("version", 1),
                erased=data.get("erased", False),
                erased_at=data.get("erased_at"),
                restricted=data.get("restricted", False),
                history=history,
            )
        except (KeyError, TypeError) as exc:
            raise errors.MembraneError(f"malformed membrane dict: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, raw: str) -> "Membrane":
        try:
            return cls.from_dict(json.loads(raw))
        except json.JSONDecodeError as exc:
            raise errors.MembraneError(f"malformed membrane JSON: {exc}") from exc

    def clone_for_copy(self, at: float) -> "Membrane":
        """Membrane for a copy of this PD — same lineage, same consents.

        The built-in ``copy`` uses this to guarantee "membrane
        consistency across all copies of the same PD".
        """
        return self.copy(created_at=at)


def membrane_for_type(
    pd_type: PDType,
    subject_id: str,
    created_at: float,
    origin: Optional[str] = None,
    granted_by: str = "type-default",
) -> Membrane:
    """Build the default membrane Listing 1 implies for a new record.

    Default-consent entries are installed with the
    ``legitimate_interest`` basis, since the paper defines the default
    consent as "operations that are backed by a legitimate basis, and
    thus do not need the specific subject's consent".
    """
    membrane = Membrane(
        pd_type=pd_type.name,
        subject_id=subject_id,
        origin=origin or pd_type.origin,
        sensitivity=pd_type.sensitivity,
        created_at=created_at,
        ttl_seconds=pd_type.ttl_seconds,
        collection=dict(pd_type.collection),
    )
    for purpose, scope in sorted(pd_type.default_consent.items()):
        membrane.grant(
            purpose,
            scope,
            basis=BASIS_LEGITIMATE_INTEREST,
            at=created_at,
            by=granted_by,
        )
    return membrane
