"""Cross-operator PD transfer (GDPR Art. 20 portability, Chapter V geography).

The paper's membrane records PD origin as possibly "another data
operator" — implying controller-to-controller transfers.  This module
implements them between two rgpdOS instances, plus the **Chapter V**
(Art. 44–46) rules that say *where* PD may lawfully go:

* :class:`TransferPolicy` — the cross-border rulebook: a transfer out
  of a restricted jurisdiction is lawful only on one of the Chapter V
  grounds — an **adequacy decision** in force for the destination
  (Art. 45, possibly time-limited: decisions get invalidated, cf.
  Privacy Shield), or **appropriate safeguards** such as SCCs/BCRs
  registered for the (origin, destination) pair (Art. 46).  Everything
  else is prohibited by Art. 44.  The replicated cluster's placement
  engine (``repro.cluster.placement``) evaluates this policy at
  *placement time*, so an EU subject's replicas can never be assigned
  to a non-adequate region in the first place.

* :func:`export_package` — one subject's PD as a self-contained,
  machine-readable package: schema descriptions, records, membranes,
  and the remaining TTL of each piece (storage limitation travels with
  the data);
* :func:`import_package` — install the package at a destination
  operator: types are auto-installed from the packaged schemas when
  absent, membranes are *rebuilt* rather than copied —

  - origin becomes ``third_party`` (the destination did not collect
    this PD from the subject),
  - only the consents the **subject personally granted** travel; the
    source operator's legitimate-basis defaults do not bind the
    destination (it has its own),
  - the TTL clock does not reset: the destination gets the time the
    source had left, never more.

Erased PD is never exported (there is nothing lawful to move).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from .. import errors
from .active_data import PDRef
from .datatypes import ORIGIN_THIRD_PARTY, PDType
from .membrane import BASIS_CONSENT, Membrane
from .processing_log import ACCESS_PRODUCED, PDAccess
from .system import RgpdOS

PACKAGE_FORMAT = "rgpdos-transfer/1"

# ----------------------------------------------------------------------
# Chapter V — transfers of personal data to third countries (Art. 44-46)
# ----------------------------------------------------------------------

#: Grounds a TransferDecision can cite.
GROUND_DOMESTIC = "domestic"        # not a third-country transfer at all
GROUND_ADEQUACY = "adequacy"        # Art. 45 decision in force
GROUND_SAFEGUARDS = "safeguards"    # Art. 46 appropriate safeguards
GROUND_UNREGULATED = "unregulated"  # origin jurisdiction imposes no rule
GROUND_PROHIBITED = "prohibited"    # Art. 44 general principle: no ground

#: Art. 46 mechanisms the policy knows how to register.
SAFEGUARD_SCC = "scc"   # standard contractual clauses, Art. 46(2)(c)
SAFEGUARD_BCR = "bcr"   # binding corporate rules, Art. 46(2)(b)
SAFEGUARD_MECHANISMS = frozenset({SAFEGUARD_SCC, SAFEGUARD_BCR})


@dataclass(frozen=True)
class AdequacyDecision:
    """An Art. 45 adequacy decision: ``origin``'s authority has found
    ``destination``'s protection essentially equivalent.

    ``expires_at`` models the review clause: decisions are living
    instruments and can lapse or be struck down (Schrems II did exactly
    that to Privacy Shield).  The boundary is inclusive-expiry like
    ``Membrane.is_expired``: the decision is in force while
    ``at < expires_at`` and void from the expiry instant on.
    """

    origin: str
    destination: str
    decided_at: float = 0.0
    expires_at: Optional[float] = None

    def in_force(self, at: float) -> bool:
        if at < self.decided_at:
            return False
        return self.expires_at is None or at < self.expires_at


@dataclass(frozen=True)
class SafeguardGrant:
    """An Art. 46 instrument (SCCs, BCRs) executed for one corridor.

    A grant only carries weight when the caller *invokes* the matching
    mechanism — declaring a node ``safeguard="scc"`` is what activates
    an SCC grant for its corridor.  Grants can expire too (contracts
    have terms).
    """

    origin: str
    destination: str
    mechanism: str = SAFEGUARD_SCC
    expires_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mechanism not in SAFEGUARD_MECHANISMS:
            raise errors.GDPRError(
                f"unknown Art. 46 mechanism {self.mechanism!r} "
                f"(valid: {sorted(SAFEGUARD_MECHANISMS)})"
            )

    def in_force(self, at: float) -> bool:
        return self.expires_at is None or at < self.expires_at


@dataclass(frozen=True)
class TransferDecision:
    """The answer to "may PD of ``origin`` land in ``destination``?"."""

    allowed: bool
    ground: str
    article: str
    reason: str


class TransferPolicy:
    """The Chapter V rulebook the placement engine consults.

    ``restricted_origins`` lists jurisdictions whose law constrains
    exports (GDPR-style regimes).  PD originating anywhere else is
    ``unregulated`` — permitted, but the decision says so explicitly so
    audits can tell "allowed by adequacy" from "no rule applied".
    """

    def __init__(
        self,
        decisions: Sequence[AdequacyDecision] = (),
        safeguards: Sequence[SafeguardGrant] = (),
        restricted_origins: Iterable[str] = ("eu", "uk"),
    ) -> None:
        self.restricted_origins = frozenset(restricted_origins)
        self._decisions: Dict[Tuple[str, str], AdequacyDecision] = {}
        for decision in decisions:
            self._decisions[(decision.origin, decision.destination)] = decision
        self._safeguards: Dict[Tuple[str, str, str], SafeguardGrant] = {}
        for grant in safeguards:
            key = (grant.origin, grant.destination, grant.mechanism)
            self._safeguards[key] = grant

    def adequacy(self, origin: str, destination: str) -> Optional[AdequacyDecision]:
        return self._decisions.get((origin, destination))

    def decide(
        self,
        origin: str,
        destination: str,
        at: float = 0.0,
        safeguard: Optional[str] = None,
    ) -> TransferDecision:
        """Evaluate one corridor at one instant.

        ``safeguard`` is the Art. 46 mechanism the receiving side
        invokes (e.g. the cluster node's declared ``safeguard``); it is
        only honoured when a matching in-force :class:`SafeguardGrant`
        has been registered for the corridor.
        """
        if origin == destination:
            return TransferDecision(
                True, GROUND_DOMESTIC, "Art. 44 (out of scope)",
                f"{origin!r} to itself is not a third-country transfer",
            )
        if origin not in self.restricted_origins:
            return TransferDecision(
                True, GROUND_UNREGULATED, "n/a",
                f"origin {origin!r} imposes no transfer restriction",
            )
        decision = self._decisions.get((origin, destination))
        if decision is not None and decision.in_force(at):
            return TransferDecision(
                True, GROUND_ADEQUACY, "Art. 45",
                f"adequacy decision {origin!r}->{destination!r} in force",
            )
        if safeguard is not None:
            grant = self._safeguards.get((origin, destination, safeguard))
            if grant is not None and grant.in_force(at):
                return TransferDecision(
                    True, GROUND_SAFEGUARDS, "Art. 46",
                    f"{safeguard} executed for {origin!r}->{destination!r}",
                )
        if decision is not None and not decision.in_force(at):
            return TransferDecision(
                False, GROUND_PROHIBITED, "Art. 44",
                f"adequacy decision {origin!r}->{destination!r} expired "
                f"at {decision.expires_at} and no safeguard applies",
            )
        return TransferDecision(
            False, GROUND_PROHIBITED, "Art. 44",
            f"no adequacy decision or invoked safeguard covers "
            f"{origin!r}->{destination!r}",
        )

    def permitted(
        self,
        origin: str,
        destination: str,
        at: float = 0.0,
        safeguard: Optional[str] = None,
    ) -> bool:
        return self.decide(origin, destination, at, safeguard).allowed


#: The instant (on the simulated clock) at which the default policy's
#: eu->us adequacy decision lapses — a Privacy-Shield-style
#: invalidation baked in so the expired-adequacy path stays exercised.
US_ADEQUACY_LAPSE = 1.0


def default_policy() -> TransferPolicy:
    """A small but realistic rulebook for the simulated regions.

    Regions: ``eu`` (the EEA as one jurisdiction), ``uk``, ``ch``,
    ``jp``, ``ca`` (adequate for EU PD), ``us`` (adequacy *lapsed* —
    needs SCCs), ``br`` / ``in`` (SCC corridors only from the EU).
    """
    return TransferPolicy(
        decisions=(
            AdequacyDecision("eu", "uk"),
            AdequacyDecision("eu", "ch"),
            AdequacyDecision("eu", "jp"),
            AdequacyDecision("eu", "ca"),
            # Struck down immediately after the simulated epoch: any
            # decide(at >= US_ADEQUACY_LAPSE) must fall through to
            # safeguards or be prohibited.
            AdequacyDecision("eu", "us", expires_at=US_ADEQUACY_LAPSE),
            AdequacyDecision("uk", "eu"),
            AdequacyDecision("uk", "ch"),
        ),
        safeguards=(
            SafeguardGrant("eu", "us", SAFEGUARD_SCC),
            SafeguardGrant("eu", "br", SAFEGUARD_SCC),
            SafeguardGrant("eu", "in", SAFEGUARD_SCC),
            SafeguardGrant("eu", "us", SAFEGUARD_BCR),
            SafeguardGrant("uk", "us", SAFEGUARD_SCC),
        ),
        restricted_origins=("eu", "uk"),
    )


@dataclass
class TransferOutcome:
    """Result of one import."""

    subject_id: str
    imported: List[PDRef] = field(default_factory=list)
    skipped_erased: int = 0
    skipped_expired: int = 0
    types_installed: List[str] = field(default_factory=list)


def export_package(system: RgpdOS, subject_id: str) -> Dict[str, object]:
    """Build a portable package of one subject's live PD."""
    export = system.dbfs.export_subject(
        subject_id, system.ps.builtins.credential
    )
    records = []
    skipped = 0
    skipped_expired = 0
    for entry in export["records"]:
        if entry.get("erased") or entry["data"] is None:
            skipped += 1
            continue
        membrane = entry["membrane"]
        remaining = _remaining_ttl(membrane, system.clock.now())
        if remaining is not None and remaining <= 0:
            # Storage limitation travels with the data: PD past its
            # TTL has no lawful life left to transfer.
            skipped_expired += 1
            continue
        records.append(
            {
                "pd_type": entry["pd_type"],
                "data": entry["data"],
                "membrane": membrane,
                "remaining_ttl": remaining,
            }
        )
    return {
        "format": PACKAGE_FORMAT,
        "source_operator": system.operator_name,
        "subject_id": subject_id,
        "exported_at": system.clock.now(),
        "schemas": export["schemas"],
        "records": records,
        "skipped_erased": skipped,
        "skipped_expired": skipped_expired,
    }


def _remaining_ttl(membrane: Mapping[str, object], now: float) -> Optional[float]:
    ttl = membrane.get("ttl_seconds")
    if ttl is None:
        return None
    created_at = membrane.get("created_at", 0.0)
    return max(0.0, created_at + ttl - now)  # type: ignore[operator]


def export_json(system: RgpdOS, subject_id: str) -> str:
    """The package as a JSON document (the Art. 20 wire format)."""

    def default(value: object) -> object:
        if isinstance(value, bytes):
            return {"__bytes__": value.hex()}
        raise TypeError(type(value).__name__)

    return json.dumps(
        export_package(system, subject_id), sort_keys=True, default=default
    )


def import_package(
    system: RgpdOS,
    package: Mapping[str, object],
    install_missing_types: bool = True,
) -> TransferOutcome:
    """Install a transfer package at the destination operator."""
    if package.get("format") != PACKAGE_FORMAT:
        raise errors.GDPRError(
            f"unknown transfer package format {package.get('format')!r}"
        )
    subject_id = package["subject_id"]
    outcome = TransferOutcome(
        subject_id=subject_id,  # type: ignore[arg-type]
        skipped_erased=int(package.get("skipped_erased", 0)),
    )
    now = system.clock.now()

    for record_entry in package["records"]:  # type: ignore[union-attr]
        type_name = record_entry["pd_type"]
        if type_name not in system.dbfs.list_types():
            if not install_missing_types:
                raise errors.UnknownTypeError(
                    f"destination has no type {type_name!r} and "
                    "auto-install is disabled"
                )
            description = package["schemas"][type_name]  # type: ignore[index]
            pd_type = PDType.from_description(description)
            system.install_type(pd_type)
            outcome.types_installed.append(type_name)

        pd_type = system.dbfs.get_type(type_name)
        remaining_ttl = record_entry.get("remaining_ttl")
        if remaining_ttl is not None and remaining_ttl <= 0:
            # The export side refuses overdue PD, but a package built at
            # the exact deadline (remaining == 0 under the canonical
            # ``is_expired`` boundary) or one whose TTL ran out in
            # transit carries no lawful life to install — and
            # ``Membrane.__post_init__`` rightly rejects a non-positive
            # TTL.  Skip, and account for it.
            outcome.skipped_expired += 1
            continue
        membrane = _rebuild_membrane(
            record_entry["membrane"],  # type: ignore[arg-type]
            remaining_ttl,  # type: ignore[arg-type]
            pd_type,
            now,
            source_operator=str(package.get("source_operator", "unknown")),
        )
        from ..storage.query import StoreRequest

        ref = system.dbfs.store(
            StoreRequest(
                pd_type=type_name,
                record=dict(record_entry["data"]),  # type: ignore[arg-type]
                membrane_json=membrane.to_json(),
            ),
            system.ps.builtins.credential,
        )
        outcome.imported.append(ref)
        system.log.record(
            at=now,
            purpose="builtin_acquisition",
            processing="transfer:import",
            outcome="completed",
            # Art. 30: the import is this operator's collection of the
            # record, so it lands in the subject's record of processing.
            accesses=(
                PDAccess(uid=ref.uid, subject_id=ref.subject_id,
                         mode=ACCESS_PRODUCED),
            ),
            detail=f"imported {ref.uid} from "
                   f"{package.get('source_operator')}",
        )
    return outcome


def _rebuild_membrane(
    source: Mapping[str, object],
    remaining_ttl: Optional[float],
    pd_type: PDType,
    now: float,
    source_operator: str,
) -> Membrane:
    """Destination membrane: third-party origin, subject consents only."""
    membrane = Membrane(
        pd_type=pd_type.name,
        subject_id=source["subject_id"],  # type: ignore[arg-type]
        origin=ORIGIN_THIRD_PARTY,
        sensitivity=source.get("sensitivity", pd_type.sensitivity),  # type: ignore[arg-type]
        created_at=now,
        # Export refuses overdue PD, so a non-None value here is
        # strictly positive; the explicit None check avoids ever
        # turning a zero TTL into an unlimited one.
        ttl_seconds=remaining_ttl if remaining_ttl is not None else None,
        collection={"third_party": source_operator},
    )
    subject_id = source["subject_id"]
    for purpose, decision in sorted(
        source.get("consents", {}).items()  # type: ignore[union-attr]
    ):
        # Only consents the subject personally granted travel; the
        # source's legitimate-interest defaults stay at the source.
        if (
            decision.get("basis") == BASIS_CONSENT
            and decision.get("granted_by") == subject_id
            and decision.get("scope") != "none"
        ):
            scope = decision["scope"]
            # The scope must still make sense against the destination's
            # (possibly differently-versioned) type.
            try:
                pd_type.scope_fields(scope)
            except errors.ViewError:
                continue
            membrane.grant(
                purpose,
                scope,
                basis=BASIS_CONSENT,
                at=now,
                by=subject_id,
            )
    return membrane
